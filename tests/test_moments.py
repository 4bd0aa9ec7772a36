import math

import numpy as np
import pytest
from helpers import random_interval_mv

from tailbound import (
    DomainError,
    EnsembleSpec,
    InfeasibleMomentsError,
    MomentVector,
    OrderError,
    Support,
    Uniform,
    moments_bernoulli,
    moments_beta,
    moments_from_samples,
    moments_point,
    moments_uniform,
    read_sample_file,
    reflect_moments,
    restrict_order,
    shift_to_origin,
)


class TestSupport:
    def test_interval_requires_order(self):
        with pytest.raises(DomainError):
            Support.interval(1.0, 1.0)

    def test_upper_only_has_no_width(self):
        s = Support.upper_only(2.0)
        assert s.lower is None
        with pytest.raises(DomainError):
            _ = s.width

    def test_upper_must_be_finite(self):
        with pytest.raises(DomainError):
            Support.interval(0.0, math.inf)


class TestMomentVector:
    def test_positive_part_defaults_on_nonnegative_support(self):
        mv = MomentVector(2, (0.5, 0.4), Support.interval(0.0, 1.0))
        assert mv.positive_part_pth == 0.4

    def test_positive_part_required_below_zero(self):
        with pytest.raises(DomainError):
            MomentVector(3, (0.0, 0.5, 0.1), Support.interval(-1.0, 1.0))

    def test_rejects_support_chain_violation(self):
        # mu2 > upper * mu1 is impossible on [0, 1]
        with pytest.raises(InfeasibleMomentsError):
            MomentVector(2, (0.5, 0.6), Support.interval(0.0, 1.0))

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(InfeasibleMomentsError) as err:
            MomentVector(3, (0.5, 0.4, 0.05), Support.interval(0.0, 1.0))
        assert "Cauchy-Schwarz" in str(err.value)

    def test_accepts_tolerable_noise(self):
        mv = moments_uniform(4, 0.0, 1.0)
        noisy = tuple(m * (1 + 1e-12) if k % 2 else m
                      for k, m in enumerate(mv.mu))
        MomentVector(4, noisy, mv.support)  # must not raise

    def test_no_chain_validation_on_upper_only_support(self):
        # values like these are upper bounds, not genuine moments
        MomentVector(3, (0.0, 2.0, 1.0), Support.upper_only(1.0),
                     positive_part_pth=1.0)

    def test_moment_accessor(self):
        mv = moments_uniform(3, 0.0, 1.0)
        assert mv.moment(0) == 1.0
        assert mv.moment(2) == pytest.approx(1 / 3)
        with pytest.raises(OrderError):
            mv.moment(4)

    def test_restrict_order(self):
        mv = moments_uniform(5, 0.0, 1.0)
        r = restrict_order(mv, 2)
        assert r.p == 2
        assert r.mu == mv.mu[:2]
        assert r.positive_part_pth == pytest.approx(1 / 3)
        with pytest.raises(OrderError):
            restrict_order(r, 5)

    def test_restrict_order_odd_unbounded_needs_samples(self):
        mv = MomentVector(4, (0.0, 1.0, 0.5, 2.0), Support.upper_only(1.0),
                          positive_part_pth=2.0)
        even = restrict_order(mv, 2)
        assert even.positive_part_pth == 1.0
        with pytest.raises(OrderError):
            restrict_order(mv, 3)


class TestMomentsFromSamples:
    def test_point_mass(self):
        mv = moments_from_samples([1.0, 1.0, 1.0], 3, Support.interval(0, 1))
        assert mv.mu == (1.0, 1.0, 1.0)

    def test_symmetric_two_point(self):
        mv = moments_from_samples([0.0, 1.0], 2, Support.interval(0, 1))
        assert mv.mu == (0.5, 0.5)

    def test_converges_to_uniform_moments(self, rng):
        n = 10 ** 6
        data = rng.random(n)
        mv = moments_from_samples(data, 4, Support.interval(0, 1))
        for k in range(1, 5):
            exact = 1.0 / (k + 1)
            sd = float(np.std(data ** k))
            assert abs(mv.mu[k - 1] - exact) <= 5 * sd / math.sqrt(n)

    def test_positive_part_for_even_order_keeps_negative_mass(self):
        # E max(X^2, 0) = E X^2 even when every sample is negative
        mv = moments_from_samples([-0.5, -0.25], 2, Support.interval(-1, 1))
        assert mv.positive_part_pth == pytest.approx((0.25 + 0.0625) / 2)

    def test_names_offending_index(self):
        with pytest.raises(DomainError) as err:
            moments_from_samples([0.5, 1.5, 0.2], 2, Support.interval(0, 1))
        assert "index 1" in str(err.value)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            moments_from_samples([], 2, Support.interval(0, 1))


class TestAnalyticConstructors:
    def test_uniform_unit_interval(self):
        mv = moments_uniform(2, 0.0, 1.0)
        assert mv.mu == pytest.approx((0.5, 1 / 3), rel=1e-15)
        d = (mv.mu[1] / mv.mu[0]) ** 2
        assert d == pytest.approx(4 / 9, rel=1e-15)

    def test_uniform_first_moment(self):
        assert moments_uniform(1, 0.0, 1.0).mu == (0.5,)

    def test_uniform_zero_two(self):
        mv = moments_uniform(4, 0.0, 2.0)
        assert mv.mu == pytest.approx((1.0, 4 / 3, 2.0, 16 / 5), rel=1e-15)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1e150), (1e8, 1e8 + 1.0),
                                       (1e3, 1e3 + 1e-3), (0.3, 1.7)])
    def test_uniform_against_mpmath(self, lo, hi):
        # (hi^(k+1) - lo^(k+1)) / ((k+1)(hi - lo)) in floats overflows for
        # a huge hi and cancels for a narrow support far from 0
        import mpmath
        p = 2 if hi > 1e100 else 6
        mv = moments_uniform(p, lo, hi)
        with mpmath.workdps(60):
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            want = [float((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)))
                    for k in range(1, p + 1)]
        assert mv.mu == pytest.approx(want, rel=1e-14)

    def test_uniform_positive_part_past_the_float_range_of_its_power(self):
        # odd p with lo < 0 < hi: E max(X^3, 0) = hi^4 / (4 (hi - lo)) is
        # 2.5e299 here, although hi^4 itself overflows
        import mpmath
        mv = Uniform(-1.0, 1e100).moment_vector(3)
        with mpmath.workdps(60):
            a, b = mpmath.mpf(-1), mpmath.mpf(1e100)
            want = [float((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)))
                    for k in (1, 2, 3)]
            pos = float(b ** 4 / (4 * (b - a)))
        assert mv.mu == pytest.approx(want, rel=1e-14)
        assert mv.positive_part_pth == pytest.approx(pos, rel=1e-14)

    def test_uniform_positive_part_unchanged_where_finite(self):
        # the fallback runs only where the direct form overflows
        for lo, hi in ((-1.0, 2.0), (-0.3, 0.7), (-5.0, 1e50)):
            got = Uniform(lo, hi).positive_part_moment(3)
            assert got == hi ** 4 / (4 * (hi - lo))

    def test_uniform_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            moments_uniform(2, 1.0, 1.0)

    def test_bernoulli_constant_moments(self):
        assert moments_bernoulli(4, 0.3).mu == (0.3,) * 4

    def test_beta_moments_match_sampling(self, rng):
        mv = moments_beta(3, 2.0, 5.0)
        data = rng.beta(2.0, 5.0, 200_000)
        for k in range(1, 4):
            est = float(np.mean(data ** k))
            sd = float(np.std(data ** k))
            assert abs(mv.mu[k - 1] - est) <= 5 * sd / math.sqrt(len(data))

    def test_point_inside_support(self):
        mv = moments_point(3, 0.5, Support.interval(0, 1))
        assert mv.mu == (0.5, 0.25, 0.125)
        with pytest.raises(DomainError):
            moments_point(2, 2.0, Support.interval(0, 1))


class TestShiftAndReflect:
    def test_shift_point_mass_at_lower_bound(self):
        mv = moments_point(3, -1.0, Support.interval(-1.0, 1.0))
        shifted = shift_to_origin(mv)
        assert shifted.support.lower == 0.0
        assert shifted.support.upper == 2.0
        assert shifted.mu == (0.0, 0.0, 0.0)

    def test_shift_uniform_matches_analytic(self):
        mv = moments_uniform(4, -1.0, 1.0)
        shifted = shift_to_origin(mv)
        expected = moments_uniform(4, 0.0, 2.0)
        assert shifted.mu == pytest.approx(expected.mu, rel=1e-13)

    def test_shift_two_point_pm_one(self):
        # values {-1, +1} with P(+1) = q, shifted by +1: E(Y+1)^k = q 2^k
        q = 0.3
        data = np.array([-1.0] * 7 + [1.0] * 3)
        mv = moments_from_samples(data, 3, Support.interval(-1, 1))
        shifted = shift_to_origin(mv)
        assert shifted.mu == pytest.approx(tuple(q * 2 ** k for k in (1, 2, 3)),
                                           rel=1e-12)

    def test_shift_noop_at_origin(self):
        mv = moments_uniform(3, 0.0, 1.0)
        assert shift_to_origin(mv) is mv

    def test_reflect_symmetric_uniform(self):
        mv = moments_uniform(4, 0.0, 1.0)
        assert reflect_moments(mv).mu == pytest.approx(mv.mu, rel=1e-12)

    def test_reflect_point_at_upper_bound(self):
        mv = moments_point(3, 1.0, Support.interval(0, 1))
        assert reflect_moments(mv).mu == (0.0, 0.0, 0.0)

    def test_reflect_bernoulli(self):
        mv = moments_bernoulli(4, 0.3)
        assert reflect_moments(mv).mu == pytest.approx((0.7,) * 4, rel=1e-13)

    def test_reflect_twice_is_identity(self, rng):
        for _ in range(20):
            mv = random_interval_mv(rng, 4)
            back = reflect_moments(reflect_moments(mv))
            assert back.mu == pytest.approx(mv.mu, rel=1e-10, abs=1e-12)

    def test_reflect_twice_on_samples(self, rng):
        data = rng.random(1000)
        mv = moments_from_samples(data, 3, Support.interval(0, 1))
        back = reflect_moments(reflect_moments(mv))
        assert back.mu == pytest.approx(mv.mu, rel=1e-10)

    def test_requires_bounded_below(self):
        mv = MomentVector(2, (0.0, 1.0), Support.upper_only(1.0),
                          positive_part_pth=1.0)
        with pytest.raises(DomainError):
            shift_to_origin(mv)
        with pytest.raises(DomainError):
            reflect_moments(mv)


class TestFeasibilityProperties:
    def test_cauchy_schwarz_chain_on_random_mixtures(self, rng):
        for _ in range(100):
            mv = random_interval_mv(rng, int(rng.integers(3, 7)))
            for d in range(1, mv.p - 1):
                lhs = mv.mu[d - 1] * mv.mu[d + 1]
                rhs = mv.mu[d] ** 2
                assert lhs - rhs >= -1e-12 * lhs

    def test_sample_moments_satisfy_chain(self, rng):
        data = rng.random(5000) ** 2
        mv = moments_from_samples(data, 6, Support.interval(0, 1))
        for d in range(1, 5):
            assert mv.mu[d - 1] * mv.mu[d + 1] >= mv.mu[d] ** 2 * (1 - 1e-12)


class TestEnsembleSpec:
    def test_replication(self):
        mv = moments_uniform(2, 0, 1)
        spec = EnsembleSpec.iid_replicate(mv, 5)
        assert spec.n == 5
        assert all(v is mv for v in spec.variables)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            EnsembleSpec(())


class TestSampleFile:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.25\n0.5\n\n# comment\n0.75\n")
        assert list(read_sample_file(path)) == [0.25, 0.5, 0.75]

    def test_two_column_csv_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\na,0.25\nb,0.5\n")
        assert list(read_sample_file(path)) == [0.25, 0.5]

    def test_rejects_bad_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.25\nnot-a-number\n")
        with pytest.raises(DomainError):
            read_sample_file(path)
