import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailbound import (
    DomainError,
    PreconditionError,
    SolverFailureError,
    lambert_w0,
    mills_theta,
    solve_poly_exp,
    taylor_remainder,
)
from tailbound.special import lambert_w0_exp, poly_exp_residual

mpmath.mp.dps = 60


def taylor_remainder_mp(p, x):
    """Extended-precision reference: exp(x) - sum_{j=0}^{p-2} x^j/j!."""
    xm = mpmath.mpf(x)
    return float(mpmath.e ** xm - sum(xm ** j / mpmath.factorial(j)
                                      for j in range(p - 1)))


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTaylorRemainder:
    def test_order_one_is_exp(self):
        for x in (-3.0, -0.5, 0.0, 1.0, 10.0):
            assert taylor_remainder(1, x) == pytest.approx(math.exp(x), rel=1e-15)

    def test_zero_at_origin(self):
        assert taylor_remainder(3, 0.0) == 0.0

    def test_series_vs_direct_small_argument(self):
        # |x| below the series threshold: the direct formula cancels badly
        # in double precision, so evaluate it in extended precision
        x = 0.001
        direct = taylor_remainder_mp(4, x)
        series = taylor_remainder(4, x)
        assert abs(direct - series) / abs(series) <= 1e-9
        # and the naive double-precision subtraction really is worse
        naive = math.exp(x) - (1 + x + x * x / 2)
        assert abs(naive - direct) > abs(series - direct)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
    def test_matches_extended_precision(self, p):
        for x in np.concatenate([np.linspace(-50, 50, 41), [-0.5 * p, 0.5 * p]]):
            ref = taylor_remainder_mp(p, float(x))
            got = taylor_remainder(p, float(x))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_derivative_relation(self):
        # (T_{p+1}(x+h) - T_{p+1}(x))/h -> T_p(x)
        h = 1e-6
        for p in (1, 2, 4):
            for x in (0.3, 1.0, 4.0):
                fd = (taylor_remainder(p + 1, x + h) - taylor_remainder(p + 1, x)) / h
                assert fd == pytest.approx(taylor_remainder(p, x), rel=1e-5)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
    def test_tail_ratio_inequality(self, p, b):
        # T_{p+1}(x)/T_{p+1}(b) <= max(x^p, 0)/b^p for all x <= b
        tb = taylor_remainder(p + 1, b)
        for x in np.linspace(-10, b, 201):
            lhs = taylor_remainder(p + 1, float(x)) / tb
            rhs = max(float(x) ** p, 0.0) / b ** p
            assert lhs <= rhs + 1e-12

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            taylor_remainder(0, 1.0)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_residual_at_ten(self):
        w = lambert_w0(10.0)
        assert abs(w * math.exp(w) - 10.0) <= 1e-12

    def test_matches_bisection_oracle(self):
        for x in (0.2, 1.0, 7.5, 123.0, 1e6):
            expected = bisect(lambda w: w * math.exp(w) - x, 0.0, 720.0)
            assert lambert_w0(x) == pytest.approx(expected, rel=1e-12)

    def test_round_trip(self):
        for y in np.linspace(-0.9, 20.0, 60):
            x = y * math.exp(y)
            assert lambert_w0(x) == pytest.approx(float(y), rel=1e-11, abs=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=20.0))
    def test_round_trip_property(self, y):
        x = y * math.exp(y)
        assert lambert_w0(x) == pytest.approx(y, rel=1e-11, abs=1e-11)

    def test_domain_error_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w0(-1.0)

    def test_exp_form_continuity_and_huge_arguments(self):
        # W(e^u) must agree with the direct evaluation where both work
        for u in (0.0, 5.0, 100.0, 689.0):
            assert lambert_w0_exp(u) == pytest.approx(
                lambert_w0(math.exp(u)), rel=1e-13)
        w = lambert_w0_exp(5000.0)  # exp(5000) overflows; log form
        assert w + math.log(w) == pytest.approx(5000.0, rel=1e-13)


class TestSolvePolyExp:
    def test_degree_zero(self):
        rs = solve_poly_exp([math.e], 0)
        assert rs.roots == (1.0,)
        assert rs.unique

    def test_degree_one_against_bisection(self):
        # exp(x) = 2 - x; unique positive root
        rs = solve_poly_exp([2.0, 1.0], 1)
        expected = bisect(lambda x: 2.0 - x - math.exp(x), 0.0, 1.0)
        (root,) = rs.roots
        assert root == pytest.approx(expected, rel=1e-12)
        assert abs(2.0 - root - math.exp(root)) <= 1e-12
        # closed form in terms of W
        assert root == pytest.approx(2.0 - lambert_w0(math.exp(2.0)), rel=1e-13)

    def test_degree_one_closed_form_matches_scan(self, rng):
        for _ in range(100):
            a0 = float(rng.uniform(1.0 + 1e-3, 100.0))
            a1 = float(rng.uniform(0.01, 10.0))
            closed = solve_poly_exp([a0, a1], 1)
            scanned = solve_poly_exp([a0, a1], 1, method="scan")
            assert len(scanned.roots) == 1
            assert closed.roots[0] == pytest.approx(scanned.roots[0], rel=1e-10)

    def test_negative_linear_coefficient_uses_scan(self):
        rs = solve_poly_exp([2.0, -3.0], 1)
        (root,) = rs.roots
        assert abs(poly_exp_residual([2.0, -3.0], root)) <= 1e-10 * (
            1 + math.exp(root))

    def test_three_roots_found(self):
        alpha = [1.5, 5.0, -4.0]
        rs = solve_poly_exp(alpha, 2)
        assert len(rs.roots) == 3
        for r in rs.roots:
            assert abs(poly_exp_residual(alpha, r)) <= 1e-10 * (1 + math.exp(r))
        assert list(rs.roots) == sorted(rs.roots)

    def test_root_residual_invariant(self, rng):
        for _ in range(50):
            alpha = [float(rng.uniform(1.5, 50.0))] + list(
                rng.normal(0.0, 1.0, int(rng.integers(1, 4))))
            rs = solve_poly_exp(alpha)
            for r in rs.roots:
                assert r > 0
                assert abs(poly_exp_residual(alpha, r)) <= 1e-10 * (
                    1 + math.exp(min(r, 700)))

    def test_no_certified_right_end_fails_cleanly(self):
        # an infinite alpha0 keeps the residual from turning negative
        with pytest.raises(SolverFailureError):
            solve_poly_exp([math.inf, 1.0, -1.0])

    def test_rejects_alpha0_at_most_one(self):
        with pytest.raises(PreconditionError):
            solve_poly_exp([1.0], 0)

    def test_assume_unique_flag(self):
        rs = solve_poly_exp([3.0, 0.5, 0.1], 2, assume_unique=True)
        assert rs.unique


class TestMillsTheta:
    def test_half_at_zero(self):
        assert mills_theta(0.0) == pytest.approx(0.5, rel=1e-15)

    def test_sandwich_inequality(self):
        c = math.sqrt(2 * math.pi)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            th = mills_theta(x)
            assert 1.0 / (c * (1 + x)) <= th <= 1.0 / (c * x)

    def test_against_quadrature(self):
        integral, _ = integrate.quad(lambda u: math.exp(-u * u / 2), 2.0, np.inf)
        expected = math.exp(2.0) * integral / math.sqrt(2 * math.pi)
        assert mills_theta(2.0) == pytest.approx(expected, rel=1e-10)

    def test_no_overflow_at_forty(self):
        assert 0.0 < mills_theta(40.0) < 1.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            mills_theta(-0.1)
