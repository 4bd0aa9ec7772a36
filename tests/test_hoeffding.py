import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    MomentVector,
    TailboundError,
    Uniform,
    c_factor_from_moments,
    ci_c_bar,
    classical_sample_size,
    hoeffding_bound,
    hoeffding_limit,
    hoeffding_missing_factor,
    hoeffding_small_t,
    hoeffding_two_sided,
    i_measure,
    mc_tail,
    mills_theta,
    moments_from_samples,
    reflect_moments,
    restrict_order,
    sample_size_for_ci,
    shift_to_origin,
)

E = math.e


def uniform_spec(p, n):
    return EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(p), n)


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
        mv = Uniform(0, 1).moment_vector(3)
        with pytest.raises(DomainError):
            hoeffding_bound(EnsembleSpec.iid_replicate(mv, 10), t, p)
        with pytest.raises(DomainError):
            hoeffding_two_sided([mv] * 10, t, p)

    def test_bernoulli_reduces_to_order_one(self):
        for p in range(1, 7):
            spec = EnsembleSpec.iid_replicate(Bernoulli(0.3).moment_vector(p), 1)
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
        mv = Uniform(-1.0, 1.0).moment_vector(3)
        shifted = Uniform(0.0, 2.0).moment_vector(3)
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
            PointMass(0.0, 0, 1).moment_vector(2), 3)
        with pytest.raises(DegenerateDistributionError):
            hoeffding_bound(degenerate, 1.0, 2)

    def test_records_chernoff_parameter(self):
        result = hoeffding_bound(uniform_spec(2, 10), 2.0, 2)
        denom = sum(result.c_values)  # b_i = 1
        assert result.s_star == pytest.approx(4 * 2.0 / denom, rel=1e-14)


class TestCounts:
    """One count check for every bound that takes n, and the oracle."""

    def _calls(self):
        mv = Uniform(0, 1).moment_vector(3)
        return [lambda n: hoeffding_small_t(mv, n, 0.001, 1.0, 2),
                lambda n: EnsembleSpec.iid_replicate(mv, n),
                lambda n: mc_tail(Uniform(0, 1), n, 0.1, trials=1000)]

    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_non_integer_counts_rejected(self, n):
        # hoeffding_small_t returned bounds for 2.5 variables,
        # iid_replicate and mc_tail raised a bare TypeError
        for call in self._calls():
            with pytest.raises(DomainError, match="must be an integer"):
                call(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_counts_below_one_rejected_with_one_message(self, n):
        for call in self._calls():
            with pytest.raises(DomainError, match=r"need n >= 1 variables"):
                call(n)


class TestIid:
    def test_order_one_formula(self):
        mv = Uniform(0, 1).moment_vector(1)
        result = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 7), 7 * 0.2, 1)
        assert result.bound == pytest.approx(math.exp(-2 * 7 * 0.04), rel=1e-14)

    def test_uniform_strictly_better_than_classical(self):
        mv = Uniform(0, 1).moment_vector(2)
        result = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 40),
                                 40 * 0.25, 2)
        assert result.bound < math.exp(-2 * 40 * 0.0625)


class TestTwoSided:
    def test_symmetric_uniform_doubles_one_sided(self):
        mv = Uniform(0, 1).moment_vector(3)
        n, t = 20, 4.0
        two = hoeffding_two_sided([mv] * n, t, 3)
        one = hoeffding_bound(EnsembleSpec.iid_replicate(mv, n), t, 3)
        assert two.bound == pytest.approx(2 * one.bound, rel=1e-12)
        assert two.mode == "two_sided"

    def test_order_one_classical(self):
        mv = Uniform(-0.5, 1.5).moment_vector(1)
        result = hoeffding_two_sided([mv] * 5, 3.0, 1)
        assert result.bound == pytest.approx(
            2 * math.exp(-2 * 9.0 / (5 * 4.0)), rel=1e-14)

    def test_bernoulli_takes_max_of_both_orientations(self):
        # q = 0.9 on [0,1]: both orientations are Bernoulli, factors equal 1
        from tailbound import c_factor_from_moments, reflect_moments, shift_to_origin
        mv = Bernoulli(0.9).moment_vector(2)
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
        mv = Uniform(0, 1).moment_vector(2)
        assert hoeffding_two_sided([mv] * 3, 1e-9, 2).bound == 1.0


class TestSmallT:
    def test_order_one_formula(self):
        mv = Uniform(0, 1).moment_vector(2)
        result = hoeffding_small_t(mv, n=25, t=0.02, c=1.0, p=1)
        assert result.bound == pytest.approx(math.exp(-2 * 25 * 0.02 ** 2),
                                             rel=1e-14)
        assert result.mode == "small_t"

    def test_never_beats_full_iid_bound(self):
        mv = Uniform(0, 1).moment_vector(3)
        for t in (0.01, 0.05, 0.1):
            for p in (2, 3):
                relaxed = hoeffding_small_t(mv, 30, t, c=1.0, p=p).bound
                full = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 30),
                                       30 * t, p).bound
                assert relaxed >= full - 1e-14

    def test_uniform_golden_informativeness(self):
        mv = Uniform(0, 1).moment_vector(2)
        result = hoeffding_small_t(mv, n=10, t=0.05, c=1.0, p=2)
        i2 = (E - 1) / E + (1 / E) * 1.5
        assert result.bound == pytest.approx(
            math.exp(-2 * 10 * 0.05 ** 2 * i2 ** 2), rel=1e-13)

    def test_one_factor_per_variable(self):
        # the record held one factor for the n variables; every other mode
        # lists one per variable
        mv = Uniform(0, 1).moment_vector(3)
        result = hoeffding_small_t(mv, 10, 0.05, 1.0, 3)
        iid = hoeffding_bound(EnsembleSpec.iid_replicate(mv, 10), 0.5, 3)
        assert len(result.c_values) == len(iid.c_values) == 10
        assert len(result.to_json_dict()["c_values"]) == 10
        assert result.c_values == (result.c_values[0],) * 10

    def test_rejects_large_t(self):
        mv = Uniform(0, 1).moment_vector(2)
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
        c20 = c_factor(Uniform(0, 1).moment_vector(20), 1.0)
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

    @pytest.mark.parametrize("spec", [
        [Uniform(0, 1).moment_vector(4)] * 3,
        [Beta(2, 3), Uniform(0, 1).moment_vector(2)],
        EnsembleSpec.iid_replicate(0.5, 4),
    ])
    def test_needs_laws(self, spec):
        # a moment vector in place of a law raised an AttributeError for
        # its missing tilted_first_second
        with pytest.raises(DomainError,
                           match="the limit bound needs laws .Distribution"):
            hoeffding_limit(spec, 1.0)

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

    def test_beta_whose_b_is_below_the_last_digit_of_a(self):
        # a + b + 1 rounds to a + 1, so Kummer's function is asked for
        # M(alpha, alpha, s) = e^s at the tilt s = 3314: its large-s
        # expansion once passed gamma - alpha = 0 to math.lgamma. The law
        # is a point mass at 1 to 24 digits, so every c is 1
        dist = Beta(3.1396913441781052e+50, 1.3958170184060108e+26)
        result = hoeffding_limit(EnsembleSpec.iid_replicate(dist, 18),
                                 14915.27463432374)
        assert 4.0 * result.t / result.d_n > 1e3
        assert result.c_values == (1.0,) * 18
        assert result.bound == 0.0

    def test_rejects_negative_support(self):
        with pytest.raises(DomainError):
            hoeffding_limit([Uniform(-1, 1)], 1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            hoeffding_limit([PointMass(0.0, lo=0.0, hi=1.0)], 1.0)


class TestMissingFactor:
    # X_i ~ uniform on [-1, 1], centered; pass Z_i = X_i + 1 on [0, 2]
    def _z(self, p):
        return Uniform(0.0, 2.0).moment_vector(p)

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

    def test_rejects_out_of_range_t(self):
        n = 10
        z = self._z(2)
        with pytest.raises(PreconditionError):
            hoeffding_missing_factor([z] * n, 100.0, 2, K=1.0)

    @pytest.mark.parametrize("sigma2", [None, 1.0])
    def test_rejects_empty_input(self, sigma2):
        # with sigma2 given, max() of no ranges raised a bare ValueError
        with pytest.raises(DomainError, match="at least one variable"):
            hoeffding_missing_factor([], 0.1, 2, sigma2=sigma2)

    def test_rejects_uncentered_input(self):
        skew = Beta(2.0, 5.0).moment_vector(2)  # E Z = 2/7 != upper/2
        with pytest.raises(DomainError):
            hoeffding_missing_factor([skew] * 2, 0.1, 2)

    @pytest.mark.parametrize("K,error", [
        (math.nan, DomainError), (0.0, DomainError), (-1.0, DomainError),
        (math.inf, PreconditionError)])
    def test_rejects_bad_constant(self, K, error):
        # a NaN K used to pass the K <= 0 check and give a NaN bound
        with pytest.raises(error):
            hoeffding_missing_factor([self._z(3)] * 4, 0.1, 3, K=K)


class TestSampleSize:
    def test_order_one_is_classical(self):
        mv = Uniform(0, 1).moment_vector(1)
        n = sample_size_for_ci(mv, t=0.1, alpha=0.05, p=1)
        assert n == classical_sample_size(1.0, 0.1, 0.05)
        assert n == math.ceil(math.log(2 / 0.05) / (2 * 0.01))

    @pytest.mark.parametrize("width", [math.nan, -1.0, 0.0, math.inf])
    def test_classical_rejects_bad_width(self, width):
        # NaN reached math.ceil's bare ValueError, and -1.0 gave 185: the
        # width is only ever squared
        with pytest.raises(DomainError):
            classical_sample_size(width, 0.1, 0.05)

    @pytest.mark.parametrize("width,t", [(1e160, 1e160), (1e-170, 1e-170),
                                         (1e200, 1e190)])
    def test_squares_that_leave_the_float_range(self, width, t):
        # width^2 and t^2 both overflowed (inf/inf) or underflowed (0/0): a
        # bare ValueError from ceil(NaN), or a DomainError. Only the ratio
        # width/t enters the sample size
        want = math.ceil(math.log(2 / 0.05) * (width / t) ** 2 / 2)
        assert classical_sample_size(width, t, 0.05) == want
        assert sample_size_for_ci(Uniform(0, width).moment_vector(1), t,
                                  0.05, 1) == want

    def test_sample_size_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            classical_sample_size(1e300, 1e-100, 0.05)

    def test_never_exceeds_classical(self):
        mv = Uniform(0, 1).moment_vector(3)
        for alpha in (0.01, 0.05):
            for t in (0.05, 0.1):
                for p in (1, 2, 3):
                    n = sample_size_for_ci(mv, t, alpha, p)
                    assert n <= classical_sample_size(1.0, t, alpha)

    def test_strict_improvement_for_uniform(self):
        mv = Uniform(0, 1).moment_vector(2)
        assert ci_c_bar(mv, 0.1, 2) < 1.0
        assert sample_size_for_ci(mv, 0.1, 0.05, 2) \
            < classical_sample_size(1.0, 0.1, 0.05)

    def test_closed_loop_two_sided_bound_meets_alpha(self):
        mv = Uniform(0, 1).moment_vector(3)
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
            sample_size_for_ci(Uniform(0, 1).moment_vector(2), 0.1, 1.5, 2)


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


# the records written out: one c per group, weighted sums taken in group
# order from 0, and the arithmetic of each formula in its printed order


def _sum(values, counts):
    total = 0
    for value, count in zip(values, counts):
        total += value * count
    return total


def _record_by_formula(mode, t, p, cs, counts, d_n, denom, factor=1.0):
    c_values = tuple(c for c, count in zip(cs, counts) for _ in range(count))
    return HoeffdingBound(
        t=t, p=p, bound=min(factor * math.exp(-2.0 * t * t / denom), 1.0),
        c_values=c_values, d_n=d_n, s_star=4.0 * t / denom, mode=mode)


def _moved(groups, p, move):
    moved = [move(mv) for mv, _ in groups]
    return ([restrict_order(m, p) for m in moved],
            [(m.mu[1] / m.mu[0]) ** 2 if m.p >= 2 else None for m in moved])


def _factor(t, w, d_n, v):
    return c_factor_from_moments(4.0 * t * w / d_n, w, v.mu)


def one_sided_by_formula(groups, t, p):
    counts = [count for _, count in groups]
    vs, ds = _moved(groups, p, shift_to_origin)
    d_n = None if None in ds else _sum(ds, counts)
    ws = [v.support.upper for v in vs]
    cs = ([1.0] * len(vs) if p == 1 else
          [_factor(t, w, d_n, v) for v, w in zip(vs, ws)])
    denom = _sum([w ** 2 * c for w, c in zip(ws, cs)], counts)
    return cs, d_n, denom


def two_sided_by_formula(groups, t, p):
    counts = [count for _, count in groups]
    vs, ds = _moved(groups, p, shift_to_origin)
    rs, dls = _moved(groups, p, reflect_moments)
    ws = [v.support.upper for v in vs]
    if p == 1:
        cs, d_n = [1.0] * len(vs), None
    else:
        d_n, d_l = _sum(ds, counts), _sum(dls, counts)
        cs = [max(_factor(t, w, d_n, v), _factor(t, w, d_l, r))
              for v, r, w in zip(vs, rs, ws)]
    denom = _sum([w ** 2 * c for w, c in zip(ws, cs)], counts)
    return _record_by_formula("two_sided", t, p, cs, counts, d_n, denom,
                              factor=2.0)


def missing_factor_by_formula(groups, t, p, K, sigma2):
    counts = [count for _, count in groups]
    vs = [restrict_order(mv, p) for mv, _ in groups]
    bs = [v.mu[0] for v in vs]
    if sigma2 is None:
        sigma2 = _sum([mv.mu[1] - b * b for (mv, _), b in zip(groups, bs)],
                      counts)
    sigma = math.sqrt(sigma2)
    if p == 1:
        cs = [1.0] * len(vs)
        d_n = None
        if all(mv.p >= 2 for mv, _ in groups):
            d_n = _sum([mv.mu[1] / mv.mu[0] for mv, _ in groups], counts)
    else:
        d_n = _sum([v.mu[1] / v.mu[0] for v in vs], counts)
        cs = [c_factor_from_moments(8.0 * t * b / d_n, 2.0 * b, v.mu)
              for v, b in zip(vs, bs)]
    denom = _sum([(2.0 * b) * (2.0 * b) * c for b, c in zip(bs, cs)], counts)
    factor = mills_theta(t / sigma) + K * max(bs) / sigma
    return _record_by_formula("missing_factor", t, p, cs, counts, d_n, denom,
                              factor=factor)


def hexed(record):
    """The record's fields with every float as its exact bits."""
    def one(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(one, value))
        return value
    return [one(getattr(record, name)) for name in HoeffdingBound._fields]


@st.composite
def atom_vectors(draw, p, lo=None, width=None, symmetric=False):
    """Moment vectors of discrete laws on [lo, lo + width]; symmetric ones
    pair each atom x with width - x at the same weight, on lo = 0."""
    lo = draw(st.floats(-50.0, 50.0)) if lo is None else lo
    width = draw(st.floats(1e-2, 1e2)) if width is None else width
    atoms = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(atoms),
                            max_size=len(atoms)))
    ys = [lo + x * width for x in atoms]
    if symmetric:
        ys += [width - y for y in ys]
        weights = weights * 2
    total = math.fsum(weights)
    mu = [math.fsum(w * y ** k for w, y in zip(weights, ys)) / total
          for k in range(1, p + 1)]
    pos = math.fsum(w * max(y ** p, 0.0) for w, y in zip(weights, ys)) / total
    try:
        return MomentVector(p, mu, Support.interval(lo, lo + width), pos)
    except TailboundError:
        assume(False)


@st.composite
def groups(draw, symmetric=False):
    """(vector, count) runs of distinct vectors, their order p and a t."""
    p = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        extra = draw(st.integers(0, 2))
        if symmetric:
            mv = draw(atom_vectors(p + extra, lo=0.0, symmetric=True))
        else:
            mv = draw(atom_vectors(p + extra))
        out.append((mv, draw(st.integers(1, 5))))
    return out, p, draw(st.floats(1e-3, 1e2))


def variables_of(runs):
    return [mv for mv, count in runs for _ in range(count)]


class TestRecordsMatchTheirFormulas:
    """Each Hoeffding record, bit for bit, against its formula above. The
    formulas check nothing: inputs that a bound rejects are not drawn."""

    @settings(max_examples=300, deadline=None)
    @given(case=groups())
    def test_one_sided(self, case):
        runs, p, t = case
        try:
            got = hoeffding_bound(EnsembleSpec(variables_of(runs)), t, p)
        except TailboundError:
            assume(False)
        cs, d_n, denom = one_sided_by_formula(runs, t, p)
        want = _record_by_formula("one_sided", t, p, cs,
                                  [count for _, count in runs], d_n, denom)
        assert hexed(got) == hexed(want)

    @settings(max_examples=300, deadline=None)
    @given(case=groups())
    def test_two_sided(self, case):
        runs, p, t = case
        try:
            got = hoeffding_two_sided(variables_of(runs), t, p)
        except TailboundError:
            assume(False)
        assert hexed(got) == hexed(two_sided_by_formula(runs, t, p))

    @settings(max_examples=300, deadline=None)
    @given(case=groups(), n=st.integers(1, 10_000))
    def test_iid(self, case, n):
        (mv, _), p, t = case[0][0], case[1], case[2]
        try:
            got = hoeffding_bound(EnsembleSpec.iid_replicate(mv, n), n * t, p)
        except TailboundError:
            assume(False)
        cs, d_n, denom = one_sided_by_formula([(mv, n)], n * t, p)
        want = _record_by_formula("one_sided", n * t, p, cs, [n], d_n, denom)
        assert hexed(got) == hexed(want)

    @settings(max_examples=300, deadline=None)
    @given(case=groups(symmetric=True), share=st.floats(1e-3, 1.0),
           K=st.floats(0.1, 10.0), derive=st.booleans())
    def test_missing_factor(self, case, share, K, derive):
        runs, p, _ = case
        derive = derive and p >= 2
        bs = [mv.mu[0] for mv, _ in runs]
        sigma2 = None if derive else share * _sum([b * b for b in bs],
                                                  [n for _, n in runs])
        if derive:
            sigma2_used = _sum([mv.mu[1] - b * b for (mv, _), b in
                                zip(runs, bs)], [n for _, n in runs])
        else:
            sigma2_used = sigma2
        t = share * sigma2_used / (K * max(bs))
        try:
            got = hoeffding_missing_factor(variables_of(runs), t, p, K,
                                           sigma2=sigma2)
        except TailboundError:
            assume(False)
        want = missing_factor_by_formula(runs, t, p, K, sigma2)
        assert hexed(got) == hexed(want)
