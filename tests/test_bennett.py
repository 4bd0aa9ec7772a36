import math

import numpy as np
import pytest
from helpers import random_upper_bounded_mv, w_defining_residual

from tailbound import (
    BennettBound,
    DegenerateDistributionError,
    DomainError,
    EnsembleSpec,
    InternalConsistencyError,
    MomentVector,
    Support,
    TruncatedExponential,
    bennett_bound,
    bennett_p3_lambert,
    bennett_tightness_check,
    bennett_unique_root,
    lambert_w0,
    mc_tail,
    moments_bernoulli,
    moments_uniform,
)


def uniform_spec(p=3, n=1):
    return EnsembleSpec.iid_replicate(moments_uniform(p, 0, 1), n)


def classical_second_moment_bound(t, b, mu2):
    u = b * t / mu2
    return math.exp(-(mu2 / b ** 2) * ((u + 1) * math.log(u + 1) - u))


class TestOrderTwo:
    def test_both_printed_forms_agree(self, rng):
        for _ in range(50):
            mu2 = float(rng.uniform(0.05, 4.0))
            b = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(0.01, 5.0))
            form_a = math.exp(t / b - (t / b + mu2 / b ** 2)
                              * math.log(t * b / mu2 + 1.0))
            form_b = classical_second_moment_bound(t, b, mu2)
            assert form_a == pytest.approx(form_b, rel=1e-12)

    def test_matches_generic_path(self, rng):
        for _ in range(25):
            mv = random_upper_bounded_mv(rng, 2, b=float(rng.uniform(0.5, 2.0)))
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 6)))
            t = float(rng.uniform(0.01, 2.0))
            result = bennett_bound(spec, t, 2)
            mu2 = result.aggregated_moments[0]
            assert result.bound == pytest.approx(
                min(classical_second_moment_bound(t, result.b, mu2), 1.0),
                rel=1e-12)

    def test_root_is_log_form(self):
        spec = uniform_spec(2, 1)
        t = 0.1
        result = bennett_bound(spec, t, 2)
        assert result.y_star == pytest.approx(math.log(1 + t / (1 / 3)),
                                              rel=1e-13)
        assert result.roots.unique

    def test_alpha0_exceeds_one(self, rng):
        for _ in range(20):
            mv = random_upper_bounded_mv(rng, 2)
            result = bennett_bound(EnsembleSpec.iid_replicate(mv, 2),
                                   float(rng.uniform(0.01, 3.0)), 2)
            assert result.alpha[0] > 1.0


class TestOrderThreeLambert:
    def test_uniform_worked_example(self):
        # n=1 uniform on [0,1], t=0.1: alpha = (1.4, 1/3), y = 4.2 - W(3 e^4.2)
        result = bennett_p3_lambert(uniform_spec(3, 1), 0.1)
        assert result.alpha == pytest.approx((1.4, 1 / 3), rel=1e-13)
        expected_y = 4.2 - lambert_w0(3.0 * math.exp(4.2))
        assert result.y_star == pytest.approx(expected_y, rel=1e-12)
        mu2, mu3 = 1 / 3, 1 / 4
        y = result.y_star
        expected = math.exp(0.1 - (0.1 + mu2) * y + (mu2 / 2 - mu3 / 2) * y * y)
        assert result.bound == pytest.approx(expected, rel=1e-12)

    def test_matches_scan_on_random_inputs(self, rng):
        for _ in range(200):
            mv = random_upper_bounded_mv(rng, 3, b=float(rng.uniform(0.3, 2.5)))
            n = int(rng.integers(1, 8))
            spec = EnsembleSpec.iid_replicate(mv, n)
            t = float(rng.uniform(0.01, 2.0)) * n * mv.support.upper
            closed = bennett_p3_lambert(spec, t)
            scanned = bennett_bound(spec, t, 3, root_method="scan")
            assert closed.bound == pytest.approx(scanned.bound, rel=1e-9)
            assert w_defining_residual(closed) <= 1e-12

    def test_zero_quadratic_falls_back_to_order_two(self):
        # Bernoulli: mu3 = mu2 means alpha_1 = 0 and no quadratic correction
        spec = EnsembleSpec.iid_replicate(moments_bernoulli(3, 0.4), 5)
        t = 0.7
        p3 = bennett_p3_lambert(spec, t)
        p2 = bennett_bound(spec, t, 2)
        assert p3.alpha[1] == pytest.approx(0.0, abs=1e-14)
        assert p3.bound == pytest.approx(p2.bound, rel=1e-12)

    def test_continuity_as_third_moment_vanishes(self):
        # as mu3 -> 0 the root tends to t*b/mu2 and the bound to the
        # second-moment-only value exp(-t^2/(2*mu2)); check the approach is
        # monotone on a shrinking grid and stays below the classical bound
        t, b, mu2 = 0.2, 1.0, 0.3
        p2 = classical_second_moment_bound(t, b, mu2)
        limit = math.exp(-t * t / (2 * mu2))
        gaps = []
        for mu3 in (1e-3, 1e-6):
            mv = MomentVector(3, (0.0, mu2, 0.0), Support.upper_only(b),
                              positive_part_pth=mu3)
            spec = EnsembleSpec.iid_replicate(mv, 1)
            bound = bennett_p3_lambert(spec, t).bound
            assert bound <= p2 + 1e-12
            gaps.append(abs(bound - limit))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-4

    def test_huge_alpha_ratio_uses_log_form(self):
        # z - log(alpha1) > 690: exp(z)/alpha1 overflows; log-form root
        mv = MomentVector(3, (0.0, 1e-3, 0.0), Support.upper_only(1.0),
                          positive_part_pth=1e-9)
        spec = EnsembleSpec.iid_replicate(mv, 1)
        result = bennett_p3_lambert(spec, 1.0)
        z = result.alpha[0] / result.alpha[1]
        assert z - math.log(result.alpha[1]) > 690.0
        assert w_defining_residual(result) <= 1e-12
        assert 0.0 < result.bound <= 1.0
        # the scan agrees even in this regime
        scanned = bennett_bound(spec, 1.0, 3, root_method="scan")
        assert result.bound == pytest.approx(scanned.bound, rel=1e-9)


class TestGenericOrder:
    def test_scaling_reduction(self, rng):
        # variables on b != 1 bound like variables scaled to 1 at t/b
        for _ in range(20):
            b = float(rng.uniform(0.4, 3.0))
            p = int(rng.integers(2, 6))
            mv = random_upper_bounded_mv(rng, p, b=b)
            scaled = MomentVector(
                p, tuple(m / b ** k for k, m in enumerate(mv.mu, start=1)),
                Support.upper_only(1.0), mv.positive_part_pth / b ** p)
            t = float(rng.uniform(0.05, 1.5))
            got = bennett_bound(EnsembleSpec.iid_replicate(mv, 3), t, p)
            ref = bennett_bound(EnsembleSpec.iid_replicate(scaled, 3), t / b, p)
            assert got.bound == pytest.approx(ref.bound, rel=1e-10)

    def test_all_roots_satisfy_residual(self, rng):
        for _ in range(30):
            p = int(rng.integers(2, 7))
            mv = random_upper_bounded_mv(rng, p)
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 5)))
            result = bennett_bound(spec, float(rng.uniform(0.05, 2.0)), p)
            from tailbound.special import poly_exp_residual
            for r in result.roots.roots:
                resid = abs(poly_exp_residual(result.alpha, r))
                assert resid <= 1e-10 * (1 + math.exp(min(r, 700)))
            assert result.y_star in result.roots.roots

    def test_monotone_in_threshold(self):
        spec = uniform_spec(4, 10)
        bounds = [bennett_bound(spec, t, 4).bound
                  for t in np.linspace(0.1, 5.0, 15)]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_requires_common_upper_bound(self):
        a = moments_uniform(2, 0, 1)
        b = moments_uniform(2, 0, 2)
        with pytest.raises(DomainError):
            bennett_bound(EnsembleSpec((a, b)), 0.5, 2)

    def test_rejects_degenerate_top_moment(self):
        mv = MomentVector(2, (-1.0, 0.0), Support.upper_only(1.0),
                          positive_part_pth=0.0)
        with pytest.raises(DegenerateDistributionError):
            bennett_bound(EnsembleSpec.iid_replicate(mv, 2), 0.5, 2)

    def test_order_below_two_rejected(self):
        with pytest.raises(DomainError):
            bennett_bound(uniform_spec(3, 1), 0.5, 1)


class TestUniqueRoot:
    def test_order_four_nonnegative_odd_moment(self, rng):
        for _ in range(20):
            mv = random_upper_bounded_mv(rng, 4, b=1.0, lo=-1.5)
            spec = EnsembleSpec.iid_replicate(mv, 3)
            result = bennett_unique_root(spec, 0.4, 4)
            assert len(result.roots.roots) == 1
            assert result.roots.unique

    def test_order_two_log_root(self):
        result = bennett_unique_root(uniform_spec(2, 2), 0.3, 2)
        assert result.y_star == pytest.approx(math.log(result.alpha[0]),
                                              rel=1e-13)

    def test_order_five_randomized(self, rng):
        # odd aggregated moments floored at zero: single root every time
        for _ in range(100):
            mv = random_upper_bounded_mv(rng, 5, b=1.0, lo=-2.0)
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 4)))
            result = bennett_unique_root(spec, float(rng.uniform(0.05, 1.5)), 5)
            assert len(result.roots.roots) == 1

    def test_flooring_applied_to_odd_aggregates(self):
        mv = MomentVector(4, (-0.5, 0.5, -0.2, 0.3), Support.upper_only(1.0),
                          positive_part_pth=0.3)
        result = bennett_unique_root(EnsembleSpec.iid_replicate(mv, 1), 0.2, 4)
        assert result.aggregated_moments[1] == 0.0  # floored mu3


class TestTightness:
    def test_uniform_ordering_on_grid(self):
        spec = uniform_spec(3, 4)
        mu2 = 4 / 3
        for t in (0.01 * mu2, 0.1 * mu2, mu2, 10 * mu2):
            cmp_ = bennett_tightness_check(spec, t)
            assert cmp_.bound_p3 <= cmp_.bound_p2 + 1e-12
            assert cmp_.improvement >= -1e-12

    def test_equality_when_third_equals_second(self):
        spec = EnsembleSpec.iid_replicate(moments_bernoulli(3, 0.35), 6)
        cmp_ = bennett_tightness_check(spec, 0.9)
        assert abs(cmp_.bound_p3 - cmp_.bound_p2) <= 1e-10

    def test_randomized_ordering(self, rng):
        for _ in range(40):
            mv = random_upper_bounded_mv(rng, 3)
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 5)))
            cmp_ = bennett_tightness_check(spec, float(rng.uniform(0.02, 2.0)))
            assert cmp_.bound_p3 <= cmp_.bound_p2 + 1e-12


class TestValidity:
    def test_truncated_exponential_tail_dominated(self):
        dist = TruncatedExponential(b=1.0, rate=1.0)
        n = 10
        spec = EnsembleSpec.iid_replicate(dist.moment_vector(3), n)
        for t in (1.0, 2.0, 4.0):
            bound = bennett_bound(spec, t, 3).bound
            estimate = mc_tail(dist, n, t, trials=100_000, seed=7)
            assert estimate.probability <= bound + 3 * estimate.stderr

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_threshold_must_be_positive_and_finite(self, t, p):
        # at t = inf the bound was NaN
        with pytest.raises(DomainError):
            bennett_bound(uniform_spec(4, 10), t, p)

    def test_bounds_in_unit_interval(self, rng):
        for _ in range(30):
            p = int(rng.integers(2, 6))
            mv = random_upper_bounded_mv(rng, p)
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 6)))
            bound = bennett_bound(spec, float(rng.uniform(0.01, 20.0)), p).bound
            assert 0.0 < bound <= 1.0


class TestSerialization:
    def test_round_trip(self):
        result = bennett_bound(uniform_spec(4, 3), 0.8, 4)
        record = result.to_json_dict()
        assert "roots_x_max" not in record and "roots_step" not in record
        assert BennettBound.from_json_dict(record) == result
        # records written while the roots came from a grid scan still load
        old = {**record, "roots_x_max": 50.0, "roots_step": 0.05}
        assert BennettBound.from_json_dict(old) == result

    def test_record_has_contracted_fields(self):
        record = bennett_p3_lambert(uniform_spec(3, 1), 0.1).to_json_dict()
        for key in ("t", "p", "bound", "alpha", "roots", "y_star", "b",
                    "residual"):
            assert key in record
