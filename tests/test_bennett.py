import math

import mpmath
import numpy as np
import pytest
from helpers import (
    bennett_bound_generic,
    random_upper_bounded_mv,
    w_defining_residual,
)
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tailbound import (
    BennettBound,
    Bernoulli,
    Beta,
    DegenerateDistributionError,
    DomainError,
    EnsembleSpec,
    InternalConsistencyError,
    MomentVector,
    PointMass,
    PreconditionError,
    Support,
    TailboundError,
    TruncatedExponential,
    Uniform,
    bennett_bound,
    bennett_p3_lambert,
    mc_tail,
)
from tailbound import bennett as bennett_module
from tailbound.special import RootSet


def uniform_spec(p=3, n=1):
    return EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(p), n)


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

    @pytest.mark.parametrize("laws, n, t", [
        ([TruncatedExponential(1.0, 2.0 ** -9)], 1, 1.0),
        ([Bernoulli(0.3912690528726641), Bernoulli(0.06296479004764532),
          Uniform(-534.4765611197311, 1.0)], 59, 0.004657725185432733),
        ([Uniform(-1e3, 1.0)], 100, 1e-3),
        ([Uniform(-1.0, 1e-14)], 10, 0.5),
    ])
    def test_large_second_moment_against_50_digits(self, laws, n, t):
        # where mu2 is large beside t b, alpha_0 = 1 + t b / mu2 rounds, and
        # the terms of t/b - (t/b + mu2/b^2) log(alpha_0) cancel. Taken so,
        # the first two bounds fell 3.6e-12 and 4.9e-10 relative below
        # their exact values, the third read 1 (1.5e-14 above) and the
        # fourth 0, where the exact value is 0.963
        spec = EnsembleSpec([law.moment_vector(2) for law in laws
                             for _ in range(n)])
        result = bennett_bound(spec, t, 2)
        with mpmath.workdps(50):
            mu2, b = mpmath.mpf(result.aggregated_moments[0]), result.b
            u = b * mpmath.mpf(t) / mu2
            exact = mpmath.exp(-(mu2 / b ** 2)
                               * ((1 + u) * mpmath.log1p(u) - u))
            assert abs(result.bound - exact) <= 1e-14 * exact

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
        expected_y = 4.2 - float(mpmath.lambertw(3 * mpmath.exp(4.2)))
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
            scanned = bennett_bound_generic(spec, t, 3)
            assert closed.bound == pytest.approx(scanned.bound, rel=1e-9)
            assert w_defining_residual(closed) <= 1e-12

    def test_zero_quadratic_falls_back_to_order_two(self):
        # Bernoulli: mu3 = mu2 means alpha_1 = 0 and no quadratic correction
        spec = EnsembleSpec.iid_replicate(Bernoulli(0.4).moment_vector(3), 5)
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
        scanned = bennett_bound_generic(spec, 1.0, 3)
        assert result.bound == pytest.approx(scanned.bound, rel=1e-9)

    @pytest.mark.parametrize("hi", [1.0, 2.5, 7.0, 95.0])
    def test_alpha0_rounding_to_one_keeps_the_root(self, hi):
        # t so small that alpha_0 = 1 + a rounds to 1, a = t b^2/mu^3 =
        # 4 t/hi: the root is a/c_1 = 3 t/hi to within a relative 1e-30
        # (c_1 = b mu^2/mu^3 = 4/3), and both calls find it; the parent
        # raised PreconditionError here (exit 2)
        spec = EnsembleSpec.iid_replicate(Uniform(0, hi).moment_vector(3), 1)
        general = bennett_bound(spec, 1e-30, 3)
        assert bennett_p3_lambert(spec, 1e-30) == general
        assert general.y_star == pytest.approx(3e-30 / hi, rel=1e-15)
        assert general.bound == 1.0

    @pytest.mark.parametrize("factor", [0.5, 1.001, 2.0])
    def test_residual_check_catches_a_wrong_root_near_zero(self, monkeypatch,
                                                           factor):
        # at t = 1e-30 the root is 3e-30 and every term of the equation is
        # near 1e-30; a check scaled by e^y >= 1 passed any y below 1e-10
        spec = EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(3), 1)
        solve = bennett_module.solve_poly_exp

        def off_by_factor(coeffs):
            (root,) = solve(coeffs).roots
            return RootSet((factor * root,), True)

        monkeypatch.setattr(bennett_module, "solve_poly_exp", off_by_factor)
        with pytest.raises(InternalConsistencyError):
            bennett_p3_lambert(spec, 1e-30)

    @pytest.mark.parametrize("t", [1e-320, 5e-324])
    def test_a_root_below_the_float_range_is_a_precondition_failure(self, t):
        # the root, about t b/mu^2 = 3e-6 t, rounds to 0: both calls report
        # a violated precondition (exit 2), not a solver failure (exit 4)
        spec = EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(3),
                                          10 ** 6)
        with pytest.raises(PreconditionError) as general:
            bennett_bound(spec, t, 3)
        with pytest.raises(PreconditionError) as closed:
            bennett_p3_lambert(spec, t)
        assert str(closed.value) == str(general.value)


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
            alpha = result.alpha
            for r in result.roots.roots:
                resid = abs(alpha[0] - sum(a_j * r ** j for j, a_j
                                           in enumerate(alpha[1:], start=1))
                            - math.exp(r))
                assert resid <= 1e-10 * (1 + math.exp(min(r, 700)))
            assert result.y_star in result.roots.roots

    def test_monotone_in_threshold(self):
        spec = uniform_spec(4, 10)
        bounds = [bennett_bound(spec, t, 4).bound
                  for t in np.linspace(0.1, 5.0, 15)]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_requires_common_upper_bound(self):
        a = Uniform(0, 1).moment_vector(2)
        b = Uniform(0, 2).moment_vector(2)
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


class TestSingleRoot:
    """c_j >= 0 for every j >= 2, that is summed moments mu^3..mu^(p-1)
    that are all nonnegative, gives one root, certified without a scan."""

    @pytest.mark.parametrize("p, lo", [(4, -1.5), (5, -2.0), (6, -0.5)])
    def test_nonnegative_summed_moments_give_one_certified_root(
            self, rng, p, lo):
        certified = 0
        for _ in range(100):
            mv = random_upper_bounded_mv(rng, p, b=1.0, lo=lo)
            spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 4)))
            result = bennett_bound(spec, float(rng.uniform(0.05, 1.5)), p)
            single = all(m >= 0.0 for m in result.aggregated_moments[1:-1])
            assert result.roots.unique == single
            if single:
                certified += 1
                assert len(result.roots.roots) == 1
        assert certified > 0

    def test_order_two_log_root(self):
        result = bennett_bound(uniform_spec(2, 2), 0.3, 2)
        assert result.roots.unique
        assert result.y_star == pytest.approx(math.log(result.alpha[0]),
                                              rel=1e-13)


@st.composite
def laws_ending_at_one(draw):
    """A law of one of the five kinds whose support ends at 1."""
    kind = draw(st.sampled_from(["beta", "truncexp", "uniform", "bernoulli",
                                 "point"]))
    if kind == "beta":
        return Beta(draw(st.floats(1e-16, 1e4)), draw(st.floats(1e-16, 1e4)))
    if kind == "truncexp":
        return TruncatedExponential(1.0, draw(st.floats(1e-3, 1e3)))
    if kind == "bernoulli":
        return Bernoulli(draw(st.floats(0.0, 1.0)))
    lo = draw(st.floats(-1e3, 1.0, exclude_max=True))
    if kind == "uniform":
        return Uniform(lo, 1.0)
    return PointMass(draw(st.floats(lo, 1.0)), lo, 1.0)


class TestTightness:
    """The third-moment bound never exceeds the classical second-moment
    bound, given exact second and positive-part third moments."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(laws=st.lists(laws_ending_at_one(), min_size=1, max_size=4),
           n=st.integers(1, 100), t=st.floats(1e-3, 1e3))
    # alpha1 is small beside alpha0 here (alpha0 = 3e15 at a = 1e-16),
    # where a root that cancels put p = 3 above p = 2
    @example(laws=[Beta(1e-16, 1)], n=10, t=1.0)
    @example(laws=[Beta(1e-8, 1)], n=10, t=1.0)
    # mu2 = 5.2e5 beside t b = 1: p = 2 fell 3.6e-12 below its exact value
    @example(laws=[TruncatedExponential(1.0, 2.0 ** -9)], n=1, t=1.0)
    # the third moment equals the second: both bounds are one value
    @example(laws=[Bernoulli(0.35)], n=6, t=0.9)
    def test_third_moment_never_loosens(self, laws, n, t):
        try:
            spec = EnsembleSpec([law.moment_vector(3) for law in laws
                                 for _ in range(n)])
            p2 = bennett_bound(spec, t, 2).bound
            p3 = bennett_bound(spec, t, 3).bound
        except TailboundError:
            assume(False)
        assert p3 <= p2 * (1.0 + 1e-12)

    def test_equality_when_third_equals_second(self):
        spec = EnsembleSpec.iid_replicate(Bernoulli(0.35).moment_vector(3), 6)
        p2 = bennett_bound(spec, 0.9, 2).bound
        p3 = bennett_bound(spec, 0.9, 3).bound
        assert abs(p3 - p2) <= 1e-10

    @pytest.mark.parametrize("a", [1e-8, 1e-12, 1e-16])
    def test_beta_near_a_point_mass_at_zero(self, a):
        spec = EnsembleSpec.iid_replicate(Beta(a, 1).moment_vector(3), 10)
        assert bennett_bound(spec, 1.0, 3).bound < bennett_bound(spec, 1.0, 2).bound


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
