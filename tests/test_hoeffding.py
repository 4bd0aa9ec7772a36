import math

import numpy as np
import pytest
from helpers import random_interval_mv

from tailbound import (
    Bernoulli,
    Beta,
    DegenerateDistributionError,
    DomainError,
    EnsembleSpec,
    HoeffdingBound,
    PointMass,
    PreconditionError,
    Support,
    TailboundError,
    Uniform,
    ci_c_bar,
    classical_sample_size,
    hoeffding_bound,
    hoeffding_iid,
    hoeffding_limit,
    hoeffding_missing_factor,
    hoeffding_small_t,
    hoeffding_two_sided,
    i_measure,
    mills_theta,
    moments_bernoulli,
    moments_from_samples,
    moments_point,
    moments_uniform,
    sample_size_for_ci,
)

E = math.e


def uniform_spec(p, n):
    return EnsembleSpec.iid_replicate(moments_uniform(p, 0, 1), n)


class TestOneSided:
    def test_order_one_is_classical(self):
        result = hoeffding_bound(uniform_spec(1, 40), 10.0, 1)
        assert result.bound == pytest.approx(math.exp(-5.0), rel=1e-14)
        assert result.c_values == (1.0,) * 40
        assert result.mode == "one_sided"

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_threshold_must_be_positive_and_finite(self, t, p):
        # at t = inf the p = 3 factor was NaN, and so was the bound
        mv = moments_uniform(3, 0, 1)
        with pytest.raises(DomainError):
            hoeffding_bound(EnsembleSpec.iid_replicate(mv, 10), t, p)
        with pytest.raises(DomainError):
            hoeffding_two_sided([mv] * 10, t, p)

    def test_bernoulli_reduces_to_order_one(self):
        for p in range(1, 7):
            spec = EnsembleSpec.iid_replicate(moments_bernoulli(p, 0.3), 1)
            b_p = hoeffding_bound(spec, 0.5, p).bound
            b_1 = hoeffding_bound(spec, 0.5, 1).bound
            assert b_p == pytest.approx(b_1, rel=1e-12)

    def test_improves_on_classical(self):
        spec = uniform_spec(5, 40)
        t = 10.0
        classical = hoeffding_bound(spec, t, 1).bound
        for p in (2, 3, 4, 5):
            assert hoeffding_bound(spec, t, p).bound <= classical + 1e-12

    def test_in_unit_interval(self):
        tiny = hoeffding_bound(uniform_spec(2, 5), 1e-6, 2).bound
        assert 0.0 < tiny <= 1.0

    def test_auto_shifts_general_interval(self):
        # one-sided sum deviations are shift invariant
        mv = moments_uniform(3, -1.0, 1.0)
        shifted = moments_uniform(3, 0.0, 2.0)
        a = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 8), 2.0, 3)
        b = hoeffding_bound(EnsembleSpec.iid_replicate(shifted, 8), 2.0, 3)
        assert a.bound == pytest.approx(b.bound, rel=1e-13)

    def test_rejects_bad_inputs(self):
        spec = uniform_spec(2, 3)
        with pytest.raises(DomainError):
            hoeffding_bound(spec, 0.0, 2)
        with pytest.raises(DomainError):
            hoeffding_bound(spec, 1.0, 0)
        degenerate = EnsembleSpec.iid_replicate(
            moments_point(2, 0.0, Support.interval(0, 1)), 3)
        with pytest.raises(DegenerateDistributionError):
            hoeffding_bound(degenerate, 1.0, 2)

    def test_records_chernoff_parameter(self):
        result = hoeffding_bound(uniform_spec(2, 10), 2.0, 2)
        denom = sum(result.c_values)  # b_i = 1
        assert result.s_star == pytest.approx(4 * 2.0 / denom, rel=1e-14)


class TestIid:
    def test_matches_general_path(self, rng):
        for _ in range(15):
            p = int(rng.integers(1, 6))
            mv = random_interval_mv(rng, p)
            n = int(rng.integers(1, 30))
            t = float(rng.uniform(0.01, 0.4)) * mv.support.upper
            via_iid = hoeffding_iid(mv, n, t, p)
            via_general = hoeffding_bound(
                EnsembleSpec.iid_replicate(mv, n), n * t, p)
            assert via_iid.bound == pytest.approx(via_general.bound, rel=1e-12)
            assert via_iid.t == pytest.approx(n * t)

    def test_order_one_formula(self):
        mv = moments_uniform(1, 0, 1)
        result = hoeffding_iid(mv, 7, 0.2, 1)
        assert result.bound == pytest.approx(math.exp(-2 * 7 * 0.04), rel=1e-14)

    def test_uniform_strictly_better_than_classical(self):
        mv = moments_uniform(2, 0, 1)
        result = hoeffding_iid(mv, 40, 0.25, 2)
        assert result.bound < math.exp(-2 * 40 * 0.0625)


class TestTwoSided:
    def test_symmetric_uniform_doubles_one_sided(self):
        mv = moments_uniform(3, 0, 1)
        n, t = 20, 4.0
        two = hoeffding_two_sided([mv] * n, t, 3)
        one = hoeffding_bound(EnsembleSpec.iid_replicate(mv, n), t, 3)
        assert two.bound == pytest.approx(2 * one.bound, rel=1e-12)
        assert two.mode == "two_sided"

    def test_order_one_classical(self):
        mv = moments_uniform(1, -0.5, 1.5)
        result = hoeffding_two_sided([mv] * 5, 3.0, 1)
        assert result.bound == pytest.approx(
            2 * math.exp(-2 * 9.0 / (5 * 4.0)), rel=1e-14)

    def test_bernoulli_takes_max_of_both_orientations(self):
        # q = 0.9 on [0,1]: both orientations are Bernoulli, factors equal 1
        from tailbound import c_factor_from_moments, reflect_moments, shift_to_origin
        mv = moments_bernoulli(2, 0.9)
        n, t = 10, 0.2
        shifted = shift_to_origin(mv)
        reflected = reflect_moments(mv)
        d_mu = sum((shifted.mu[1] / shifted.mu[0]) ** 2 for _ in range(n))
        d_lam = sum((reflected.mu[1] / reflected.mu[0]) ** 2 for _ in range(n))
        c_mu = c_factor_from_moments(4 * t / d_mu, 1.0, shifted.mu)
        c_lam = c_factor_from_moments(4 * t / d_lam, 1.0, reflected.mu)
        result = hoeffding_two_sided([mv] * n, t, 2)
        assert result.c_values[0] == pytest.approx(max(c_lam, c_mu), rel=1e-14)
        assert result.c_values[0] == pytest.approx(1.0, rel=1e-12)

    def test_asymmetric_picks_larger_factor(self):
        # skewed two-point data: orientations genuinely differ
        data = np.array([0.05] * 9 + [1.0])
        mv = moments_from_samples(data, 2, Support.interval(0, 1))
        result = hoeffding_two_sided([mv] * 6, 0.9, 2)
        one = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 6), 0.9, 2)
        assert result.bound <= 2 * min(1.0, one.bound) + 1e-12
        assert all(0 < c <= 1 + 1e-12 for c in result.c_values)

    def test_capped_at_one(self):
        mv = moments_uniform(2, 0, 1)
        assert hoeffding_two_sided([mv] * 3, 1e-9, 2).bound == 1.0


class TestSmallT:
    def test_order_one_formula(self):
        mv = moments_uniform(2, 0, 1)
        result = hoeffding_small_t(mv, n=25, t=0.02, c=1.0, p=1)
        assert result.bound == pytest.approx(math.exp(-2 * 25 * 0.02 ** 2),
                                             rel=1e-14)
        assert result.mode == "small_t"

    def test_never_beats_full_iid_bound(self):
        mv = moments_uniform(3, 0, 1)
        for t in (0.01, 0.05, 0.1):
            for p in (2, 3):
                relaxed = hoeffding_small_t(mv, 30, t, c=1.0, p=p).bound
                full = hoeffding_iid(mv, 30, t, p).bound
                assert relaxed >= full - 1e-14

    def test_uniform_golden_informativeness(self):
        mv = moments_uniform(2, 0, 1)
        result = hoeffding_small_t(mv, n=10, t=0.05, c=1.0, p=2)
        i2 = (E - 1) / E + (1 / E) * 1.5
        assert result.bound == pytest.approx(
            math.exp(-2 * 10 * 0.05 ** 2 * i2 ** 2), rel=1e-13)

    def test_rejects_large_t(self):
        mv = moments_uniform(2, 0, 1)
        limit = 1.0 * (mv.mu[1] / (2 * mv.mu[0])) ** 2
        with pytest.raises(PreconditionError) as err:
            hoeffding_small_t(mv, 10, limit * 1.01, c=1.0, p=2)
        assert str(limit)[:8] in str(err.value)


class TestLimit:
    def test_uniform_matches_closed_form(self):
        n = 40

        def c_inf(x):
            return ((-2 + math.exp(x) * (2 - 2 * x + x * x))
                    / (x * (1 + math.exp(x) * (x - 1)))) ** 2

        u = Uniform(0, 1)
        for t in (0.1, 0.25, 0.4):
            result = hoeffding_limit([u] * n, n * t)
            expected = math.exp(-2 * n * t * t / c_inf(9 * t))
            assert result.bound == pytest.approx(expected, rel=1e-12)
            assert result.p is None
            assert result.mode == "limit_p_infinity"

    def test_finite_order_approaches_limit(self):
        def c_inf(x):
            return ((-2 + math.exp(x) * (2 - 2 * x + x * x))
                    / (x * (1 + math.exp(x) * (x - 1)))) ** 2

        from tailbound import c_factor
        c20 = c_factor(moments_uniform(20, 0, 1), 1.0)
        assert abs(c20 - c_inf(1.0)) <= 1e-3

    def test_improves_on_classical_for_beta(self):
        d = Beta(2, 2)
        n, t = 10, 2.0
        limit = hoeffding_limit([d] * n, t).bound
        classical = math.exp(-2 * t * t / n)
        assert limit <= classical + 1e-12

    @pytest.mark.parametrize("dist", [Beta(0.01, 100.0), Uniform(0.0, 1.0),
                                      Bernoulli(0.001), PointMass(0.5)])
    def test_large_tilt_no_overflow(self, dist):
        # the tilt lam = 4t/D_n is far beyond 709 for these laws and t
        t = 5.0 if dist.tag == "beta" else 2000.0
        try:
            bound = hoeffding_limit([dist] * 10, t).bound
        except TailboundError:
            return
        assert 0.0 <= bound <= 1.0

    @pytest.mark.parametrize("dist", [Beta(2.0, 3.0), Uniform(0.0, 1.0)])
    def test_non_finite_tilt_rejected(self, dist):
        # t is finite, but 4t/D_n overflows
        for t in (math.inf, math.nan, 1e308):
            with pytest.raises(DomainError):
                hoeffding_limit([dist] * 10, t)

    def test_uniform_tilt_near_1e300(self):
        # 4t/D_n is finite but its cube is not
        result = hoeffding_limit([Uniform(0, 1)] * 10, 1e300)
        assert 0.0 <= result.bound <= 1.0

    def test_tilt_near_ten_million(self):
        dist = Beta(2.0, 3.0)
        d_n = 10 * (dist.moment(2) / dist.moment(1)) ** 2
        result = hoeffding_limit([dist] * 10, 1e7 * d_n / 4.0)
        assert 0.0 <= result.bound <= 1.0

    @pytest.mark.parametrize("a, b, t", [(1.0, 1e4, 1e-4), (1.0, 1e4, 1e-3),
                                         (0.5, 3e3, 2e-3), (2.0, 1e5, 1e-4)])
    def test_skewed_beta_tilt_past_underflow(self, a, b, t):
        # the tilt 4t/D_n runs to thousands for a law massed near 0, where
        # e^{-tilt} E X e^{tilt X} underflows; mpmath gives the reference
        import mpmath
        dist = Beta(a, b)
        n = 10
        result = hoeffding_limit([dist] * n, t)
        lam = 4.0 * t / result.d_n
        assert lam > 800.0
        with mpmath.workdps(40):
            ratio = (dist.moment(2) * mpmath.hyp1f1(a + 2, a + b + 2, lam)
                     / (dist.moment(1) * mpmath.hyp1f1(a + 1, a + b + 1, lam)))
            want = float(mpmath.exp(-2 * mpmath.mpf(t) ** 2 / (n * ratio ** 2)))
            c_want = float(ratio ** 2)
        assert result.bound == pytest.approx(want, rel=1e-12)
        for c in result.c_values:
            assert c == pytest.approx(c_want, rel=1e-12)

    def test_uniform_tilt_near_series_threshold(self):
        # the tilt 4t/D_n = 5.9e-5 puts s*hi just above 1e-4, where the
        # tilted pair of a uniform law once lost three digits
        import mpmath
        n, t = 10, 2e-4
        result = hoeffding_limit([Uniform(0.3, 1.7)] * n, t)
        with mpmath.workdps(80):
            s = 4 * mpmath.mpf(t) / result.d_n
            lo, hi = mpmath.mpf(0.3), mpmath.mpf(1.7)
            f1 = [mpmath.exp(s * x) * (x / s - 1 / s ** 2) for x in (lo, hi)]
            f2 = [mpmath.exp(s * x) * (x * x / s - 2 * x / s ** 2 + 2 / s ** 3)
                  for x in (lo, hi)]
            ratio = (f2[1] - f2[0]) / (f1[1] - f1[0])
            c_want = float(ratio ** 2 / hi ** 2)
        assert len(result.c_values) == n
        for c in result.c_values:
            assert c == pytest.approx(c_want, rel=1e-13)

    def test_rejects_negative_support(self):
        with pytest.raises(DomainError):
            hoeffding_limit([Uniform(-1, 1)], 1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            hoeffding_limit([PointMass(0.0, lo=0.0, hi=1.0)], 1.0)


class TestMissingFactor:
    # X_i ~ uniform on [-1, 1], centered; pass Z_i = X_i + 1 on [0, 2]
    def _z(self, p):
        return moments_uniform(p, 0.0, 2.0)

    def test_order_one_formula(self):
        n, t = 10, 1.0
        z = self._z(1)
        sigma2 = n / 3
        result = hoeffding_missing_factor([z] * n, t, 1, K=1.0, sigma2=sigma2)
        sigma = math.sqrt(sigma2)
        expected = math.exp(-t * t / (2 * n)) * (mills_theta(t / sigma) + 1 / sigma)
        assert result.bound == pytest.approx(min(expected, 1.0), rel=1e-13)
        assert result.mode == "missing_factor"

    def test_variance_computed_from_moments(self):
        n = 10
        z = self._z(2)
        explicit = hoeffding_missing_factor([z] * n, 1.0, 2, K=1.0,
                                            sigma2=n / 3).bound
        derived = hoeffding_missing_factor([z] * n, 1.0, 2, K=1.0).bound
        assert derived == pytest.approx(explicit, rel=1e-12)

    def test_tail_factor_has_optimal_order(self):
        n = 10
        sigma = math.sqrt(n / 3)
        K = 1.0
        for t in (0.5, 1.0, 2.0, 3.0):
            factor = mills_theta(t / sigma) + K / sigma
            assert factor <= (K + 1) * sigma / t

    def test_below_plain_bound_in_admissible_range(self):
        n = 10
        z = self._z(3)
        spec = EnsembleSpec.iid_replicate(z, n)
        for t in (0.5, 1.0, 2.0, 3.0):
            missing = hoeffding_missing_factor([z] * n, t, 3, K=1.0).bound
            plain = hoeffding_bound(spec, t, 3).bound
            assert missing < plain

    def test_dn_convention_switch(self):
        n = 10
        z = self._z(3)
        printed = hoeffding_missing_factor([z] * n, 0.5, 3).bound
        squared = hoeffding_missing_factor([z] * n, 0.5, 3, dn_squared=True).bound
        assert printed != squared

    def test_rejects_out_of_range_t(self):
        n = 10
        z = self._z(2)
        with pytest.raises(PreconditionError):
            hoeffding_missing_factor([z] * n, 100.0, 2, K=1.0)

    def test_rejects_uncentered_input(self):
        from tailbound import moments_beta
        skew = moments_beta(2, 2.0, 5.0)  # E Z = 2/7 != upper/2
        with pytest.raises(DomainError):
            hoeffding_missing_factor([skew] * 2, 0.1, 2)


class TestSampleSize:
    def test_order_one_is_classical(self):
        mv = moments_uniform(1, 0, 1)
        n = sample_size_for_ci(mv, t=0.1, alpha=0.05, p=1)
        assert n == classical_sample_size(1.0, 0.1, 0.05)
        assert n == math.ceil(math.log(2 / 0.05) / (2 * 0.01))

    def test_never_exceeds_classical(self):
        mv = moments_uniform(3, 0, 1)
        for alpha in (0.01, 0.05):
            for t in (0.05, 0.1):
                for p in (1, 2, 3):
                    n = sample_size_for_ci(mv, t, alpha, p)
                    assert n <= classical_sample_size(1.0, t, alpha)

    def test_strict_improvement_for_uniform(self):
        mv = moments_uniform(2, 0, 1)
        assert ci_c_bar(mv, 0.1, 2) < 1.0
        assert sample_size_for_ci(mv, 0.1, 0.05, 2) \
            < classical_sample_size(1.0, 0.1, 0.05)

    def test_closed_loop_two_sided_bound_meets_alpha(self):
        mv = moments_uniform(3, 0, 1)
        for alpha in (0.01, 0.05):
            for t in (0.05, 0.1):
                for p in (1, 2, 3):
                    n = sample_size_for_ci(mv, t, alpha, p)
                    bound = hoeffding_two_sided([mv] * n, n * t, p).bound
                    assert bound <= alpha + 1e-12
                    # one fewer observation must not suffice (tight ceiling)
                    if n > 1:
                        worse = hoeffding_two_sided([mv] * (n - 1), (n - 1) * t, p)
                        assert worse.bound > alpha - 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            sample_size_for_ci(moments_uniform(2, 0, 1), 0.1, 1.5, 2)


class TestSerialization:
    def test_round_trip(self):
        result = hoeffding_bound(uniform_spec(3, 4), 1.0, 3)
        again = HoeffdingBound.from_json_dict(result.to_json_dict())
        assert again == result

    def test_round_trip_through_json_text(self):
        import json
        result = hoeffding_limit([Uniform(0, 1)] * 3, 0.7)
        blob = json.dumps(result.to_json_dict())
        again = HoeffdingBound.from_json_dict(json.loads(blob))
        assert again == result

    def test_field_names(self):
        record = hoeffding_bound(uniform_spec(2, 2), 0.5, 2).to_json_dict()
        assert set(record) == {"t", "p", "bound", "c_values", "d_n", "s_star",
                               "mode"}
