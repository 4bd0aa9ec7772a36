import math

import numpy as np
import pytest
from helpers import envelope_derivative, exact_mgf, random_interval_mv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    DegenerateDistributionError,
    DomainError,
    PointMass,
    TruncatedExponential,
    Uniform,
    c_factor,
    c_factor_from_moments,
    i_measure,
    mgf_upper_bound,
    restrict_order,
    taylor_remainder,
)

E = math.e


def jensen_floor(mv, s):
    """e^{s mu1}, which E e^{sX} is at least; inf past the float range."""
    try:
        return math.exp(s * mv.mu[0])
    except OverflowError:
        return math.inf


class TestMgfUpperBound:
    def test_exactly_one_at_zero(self, rng):
        for _ in range(10):
            mv = random_interval_mv(rng, int(rng.integers(1, 6)))
            assert mgf_upper_bound(mv, 0.0) == 1.0

    def test_bernoulli_attains_equality_order_one(self):
        q = 0.37
        mv = restrict_order(Bernoulli(q).moment_vector(1), 1)
        for s in (0.0, 0.5, 2.0, 7.0):
            assert mgf_upper_bound(mv, s) == pytest.approx(
                q * math.exp(s) + 1 - q, rel=1e-14)

    def test_uniform_order_two_golden_value(self):
        mv = Uniform(0, 1).moment_vector(2)
        value = mgf_upper_bound(mv, 1.0)
        assert value == pytest.approx((E - 2) / 3 + 1.5, rel=1e-14)
        assert value >= E - 1  # exact MGF of uniform at s=1

    @pytest.mark.parametrize("s", [-0.1, math.nan, math.inf])
    def test_rejects_s_outside_the_domain(self, s):
        # NaN and inf used to pass the s < 0 check and return NaN
        with pytest.raises(DomainError):
            mgf_upper_bound(Uniform(0, 1).moment_vector(2), s)

    def test_huge_argument_is_infinite_not_nan(self):
        # taylor_remainder(4, 1e200) was inf - inf = NaN, and so was this
        mv = Uniform(0, 1).moment_vector(3)
        assert mgf_upper_bound(mv, 1e200) == math.inf

    @given(law=st.one_of(
        st.builds(Uniform, st.floats(-4.0, 0.5), st.floats(0.75, 4.0)),
        st.builds(PointMass, st.floats(-1.0, 1.0), st.just(-1.0),
                  st.just(1.0)),
        st.builds(Bernoulli, st.floats(0.0, 1.0))),
        p=st.integers(1, 8), log_s=st.floats(0.0, 300.0))
    @example(law=Uniform(-1.0, 1.0), p=4, log_s=200.0)
    @example(law=PointMass(-0.5, -1.0, 1.0), p=3, log_s=200.0)
    # mu2 = 7e-396 underflows to 0, and with it the envelope's tail: the
    # rest, 1 + s mu1, was -1.66
    @example(law=PointMass(-2.66e-198, -1.0, 1.0), p=2, log_s=198.0)
    @settings(max_examples=300, deadline=None)
    def test_overflowing_terms_never_give_nan(self, law, p, log_s):
        # an overflowed s^j/j! times a zero moment (mu_3 of Uniform(-1, 1))
        # was inf * 0 = NaN, and overflowed terms of opposite signs were
        # inf - inf. What is returned must also bound E e^{sX}, so it is
        # at least Jensen's floor e^{s mu1}; below it, a DomainError says so
        mv = law.moment_vector(p)
        s = 10.0 ** log_s
        try:
            value = mgf_upper_bound(mv, s)
        except DomainError as exc:
            assert "Jensen" in str(exc)
            return
        assert value >= jensen_floor(mv, s) * (1.0 - 1e-9)

    def test_support_bound_whose_power_overflows(self):
        # pos / b ** p raised a raw OverflowError from b ** p = 1e400
        mv = PointMass(1.0, 0.0, 1e200).moment_vector(2)
        assert mgf_upper_bound(mv, 1.0) == math.inf  # e^(1e200) / 1e400
        assert mgf_upper_bound(mv, 1e-198) == 1.0 + 1e-198
        # pos / b^2 = 1e-20 with b^2 = 1e320 out of range, at s b = 100
        mv = PointMass(1e150, 0.0, 1e160).moment_vector(2)
        want = 1e-20 * taylor_remainder(3, 100.0) + 1.0 + 1e-8
        assert mgf_upper_bound(mv, 1e-158) == pytest.approx(want, rel=1e-12)

    def test_support_bound_whose_power_underflows(self):
        # b ** 2 = 1e-400 underflows to 0: a raw ZeroDivisionError. The
        # tail is mu2 (s b)^2/2 / b^2 = 0.125 to first order in s b
        mv = PointMass(-0.5, -1.0, 1e-200).moment_vector(2)
        assert mgf_upper_bound(mv, 1.0) == pytest.approx(0.625, rel=1e-12)

    def test_below_jensens_floor_is_a_domain_error(self):
        # mu2 = 7e-396 is stored as 0, which drops the tail: the rest,
        # 1 + s mu1 = -1.66, bounds no E e^{sX}
        mv = PointMass(-2.66e-198, -1.0, 1.0).moment_vector(2)
        with pytest.raises(DomainError, match="Jensen"):
            mgf_upper_bound(mv, 1e198)

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_tight_at_jensens_floor(self, p):
        # a point mass at its upper end, or at 0, has an envelope equal
        # to E e^{sX} = e^{s mu1}: no room below it for the Jensen check
        for c in (1.0, 0.0):
            mv = PointMass(c, -1.0, 1.0).moment_vector(p)
            for s in (0.0, 1e-3, 0.5, 3.0, 40.0):
                assert mgf_upper_bound(mv, s) == pytest.approx(
                    math.exp(s * c), rel=1e-13)

    def test_zero_moments_stay_exact_past_overflowing_terms(self):
        # every moment of the point mass at 0 is 0, so the envelope is 1
        mv = PointMass(0.0, -1.0, 1.0).moment_vector(4)
        assert mgf_upper_bound(mv, 1e200) == 1.0

    def test_rejects_nonpositive_upper_bound(self):
        mv = Uniform(-2.0, -1.0).moment_vector(2)
        with pytest.raises(DomainError):
            mgf_upper_bound(mv, 1.0)

    @pytest.mark.parametrize("dist", [Uniform(0, 1), Bernoulli(0.3), Beta(2, 2)])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_dominates_exact_mgf(self, dist, p):
        mv = dist.moment_vector(p)
        for s in np.linspace(0.0, 10.0, 21):
            assert mgf_upper_bound(mv, float(s)) - exact_mgf(dist, float(s)) \
                >= -1e-10

    def test_dominates_exact_mgf_upper_only_support(self):
        dist = TruncatedExponential(b=1.0, rate=2.0)
        for p in (2, 3, 4):
            mv = dist.moment_vector(p)
            for s in np.linspace(0.0, 5.0, 11):
                assert mgf_upper_bound(mv, float(s)) >= exact_mgf(dist, float(s)) - 1e-10



def envelopes(mv, s, ps):
    """The order-p envelope of one variable at s, for each p in ps."""
    return [mgf_upper_bound(restrict_order(mv, p), s) for p in ps]


class TestEnvelopeAcrossOrders:
    def test_uniform_nonincreasing(self):
        mv = Uniform(0, 1).moment_vector(4)
        values = envelopes(mv, 1.0, [2, 3, 4])
        assert values[0] >= values[1] >= values[2]

    def test_bernoulli_all_orders_identical(self):
        mv = Bernoulli(0.42).moment_vector(5)
        values = envelopes(mv, 1.7, [1, 2, 3, 4, 5])
        expected = 0.42 * math.exp(1.7) + 0.58
        assert values == pytest.approx([expected] * 5, rel=1e-14)

    def test_uniform_gap_matches_direct_difference(self):
        # value(2) - value(3) = (mu2 - mu3) * T_4(s) on [0, 1]
        mv = Uniform(0, 1).moment_vector(3)
        s = 2.0
        v2, v3 = envelopes(mv, s, [2, 3])
        expected = (1 / 3 - 1 / 4) * taylor_remainder(4, s)
        assert v2 - v3 == pytest.approx(expected, rel=1e-12)

    def test_even_order_drop_on_upper_only_support(self):
        mv = TruncatedExponential(b=1.0, rate=1.5).moment_vector(3)
        v2, v3 = envelopes(mv, 1.0, [2, 3])
        assert v2 >= v3 - 1e-14


class TestVDerivatives:
    def test_values_at_zero(self, rng):
        for _ in range(10):
            mv = random_interval_mv(rng, int(rng.integers(2, 6)))
            b = mv.support.upper
            v0, v1, v2 = (envelope_derivative(mv, 0.0, k) for k in range(3))
            assert v0 == 1.0
            assert v1 == pytest.approx(mv.mu[0] / b)
            assert v2 == pytest.approx(mv.mu[1] / b ** 2)

    def test_finite_difference_consistency(self):
        mv = Uniform(0, 1).moment_vector(4)
        h = 1e-6
        for y in (0.1, 1.0, 5.0):
            v0, v1, v2 = (envelope_derivative(mv, y, k) for k in range(3))
            fd = (envelope_derivative(mv, y + h, 0) - v0) / h
            assert fd == pytest.approx(v1, rel=1e-5)
            fd2 = (envelope_derivative(mv, y + h, 1) - v1) / h
            assert fd2 == pytest.approx(v2, rel=1e-5)

    def test_second_never_exceeds_first(self, rng):
        for _ in range(30):
            mv = random_interval_mv(rng, int(rng.integers(1, 7)))
            for y in np.linspace(0.0, 10.0, 21):
                v1 = envelope_derivative(mv, float(y), 1)
                v2 = envelope_derivative(mv, float(y), 2)
                assert v2 <= v1 * (1 + 1e-12)

    def test_log_convexity_of_first_derivative(self, rng):
        h = 1e-3
        for _ in range(50):
            mv = random_interval_mv(rng, int(rng.integers(2, 7)))
            for y in np.linspace(h, 10.0, 25):
                f = lambda z: math.log(envelope_derivative(mv, z, 1))
                second = (f(y - h) - 2 * f(y) + f(y + h)) / (h * h)
                assert second >= -1e-8


class TestCFactor:
    def test_order_one_is_one(self, rng):
        mv = restrict_order(Uniform(0, 1).moment_vector(1), 1)
        for y in (0.0, 1.0, 50.0):
            assert c_factor(mv, y) == 1.0

    def test_order_two_closed_form(self):
        mv = Uniform(0, 2.0).moment_vector(2)
        mu1, mu2, b = 1.0, 4 / 3, 2.0
        for y in (0.0, 0.5, 3.0):
            expected = (mu2 * math.exp(y)
                        / (mu2 * math.exp(y) + b * mu1 - mu2)) ** 2
            assert c_factor(mv, y) == pytest.approx(expected, rel=1e-14)

    def test_order_three_uniform_at_zero(self):
        assert c_factor(Uniform(0, 1).moment_vector(3), 0.0) == pytest.approx(4 / 9)

    def test_value_at_zero_is_d_over_b_squared(self, rng):
        for _ in range(20):
            mv = random_interval_mv(rng, int(rng.integers(2, 7)))
            b = mv.support.upper
            expected = (mv.mu[1] / (mv.mu[0] * b)) ** 2
            assert c_factor(mv, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_derivative_ratio_path(self, rng):
        for _ in range(40):
            mv = random_interval_mv(rng, int(rng.integers(2, 7)))
            for y in np.linspace(0.0, 40.0, 17):
                closed = c_factor(mv, float(y))
                via = (envelope_derivative(mv, float(y), 2)
                       / envelope_derivative(mv, float(y), 1)) ** 2
                assert closed == pytest.approx(via, rel=1e-12)

    def test_range_and_monotonicity(self, rng):
        for _ in range(40):
            mv = random_interval_mv(rng, int(rng.integers(1, 7)))
            values = [c_factor(mv, float(y)) for y in np.linspace(0, 50, 26)]
            assert all(0.0 < c <= 1.0 + 1e-12 for c in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_huge_argument_no_overflow(self):
        mv = Uniform(0, 1).moment_vector(5)
        assert c_factor(mv, 5000.0) == pytest.approx(1.0, rel=1e-12)

    def test_order_two_huge_argument_no_overflow(self):
        # Beta(0.01, 100) at the factor argument 2000: e^y alone overflows
        mu = Beta(0.01, 100.0).moment_vector(2).mu
        assert c_factor_from_moments(2000.0, 1.0, mu) == 1.0
        assert c_factor_from_moments(800.0, 1.0, mu) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_inputs_rejected(self):
        mv = PointMass(0.0, 0.0, 1.0).moment_vector(2)
        with pytest.raises(DegenerateDistributionError):
            c_factor(mv, 1.0)

    def test_raw_moment_entry_point_allows_other_scale(self):
        # same moments, doubled scale: used by the recentered missing-factor form
        mv = Uniform(0, 1).moment_vector(3)
        value = c_factor_from_moments(1.0, 2.0, mv.mu)
        assert 0.0 < value < 1.0


class TestIMeasure:
    def test_order_one_is_one(self):
        assert i_measure(Uniform(0, 1).moment_vector(1), 0.7) == 1.0

    def test_order_two_closed_form(self):
        mv = Uniform(0, 1).moment_vector(2)
        expected = (E - 1) / E + (1 / E) * (0.5 / (1 / 3))
        assert i_measure(mv, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_collapses_when_top_moment_uninformative(self):
        # mu3 = mu2 makes the third moment useless: I_3 equals I_2
        mv3 = Bernoulli(0.4).moment_vector(3)
        mv2 = Bernoulli(0.4).moment_vector(2)
        assert i_measure(mv3, 1.0) == pytest.approx(i_measure(mv2, 1.0), rel=1e-13)

    def test_at_least_one(self, rng):
        for _ in range(30):
            mv = random_interval_mv(rng, int(rng.integers(1, 7)), hi=1.0)
            for c in (0.1, 1.0, 5.0):
                assert i_measure(mv, c) >= 1.0 - 1e-12

    def test_reciprocal_square_relation(self, rng):
        for _ in range(30):
            mv = random_interval_mv(rng, int(rng.integers(2, 7)), hi=1.0)
            for c in (0.3, 1.0, 4.0):
                ip = i_measure(mv, c)
                assert ip * ip * c_factor(mv, c) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("c", [709.0, 800.0, 1e4])
    def test_finite_where_e_to_the_c_overflows(self, c):
        for p in range(1, 7):
            ip = i_measure(Uniform(0, 1).moment_vector(p), c)
            assert math.isfinite(ip) and ip >= 1.0

    def test_matches_the_derivative_ratio_written_out(self, rng):
        # v'(c)/v''(c) for the envelope v at unit scale, with the bare e^c
        # that overflows past c = 709.78; below that the two must agree
        def ratio(mu, c):
            p = len(mu)
            v = []
            for k in (1, 2):
                order = p + 1 - k
                tail = math.exp(c) if order <= 1 else taylor_remainder(order, c)
                total, term = mu[-1] * tail, 1.0
                for j in range(p - k):
                    total += term * mu[j + k - 1]
                    term *= c / (j + 1)
                v.append(total)
            return v[0] / v[1]

        for _ in range(60):
            mv = random_interval_mv(rng, int(rng.integers(2, 7)), hi=1.0)
            for c in (1e-3, 0.3, 1.0, 4.0, 29.9, 30.1, 100.0, 700.0):
                want = ratio(mv.mu, c)
                assert abs(i_measure(mv, c) - want) <= 1e-15 * want

    def test_requires_unit_interval(self):
        with pytest.raises(DomainError):
            i_measure(Uniform(0, 2.0).moment_vector(2), 1.0)
