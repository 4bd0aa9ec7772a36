import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from helpers import CallCounter
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbound import (
    DomainError,
    PreconditionError,
    SolverFailureError,
    TailboundError,
    mills_theta,
    solve_poly_exp,
    taylor_remainder,
)
from tailbound import special
from tailbound.special import poly_exp_residual, poly_exp_roots

mpmath.mp.dps = 60
_SQRT2 = math.sqrt(2.0)


def taylor_remainder_mp(p, x):
    """Extended-precision reference: exp(x) - sum_{j=0}^{p-2} x^j/j!."""
    xm = mpmath.mpf(x)
    return float(mpmath.e ** xm - sum(xm ** j / mpmath.factorial(j)
                                      for j in range(p - 1)))


def taylor_tail_mp(p, x, dps=50):
    """The same remainder as its tail series sum_{j>=p-1} x^j/j!, summed at
    dps digits past the turn of its terms at j = |x|: no cancellation
    against exp(x), and no overflow."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        term = xm ** (p - 1) / mpmath.factorial(p - 1)
        total, j = term, p - 1
        while j < abs(x) or abs(term) > abs(total) * mpmath.mpf(10) ** -40:
            j += 1
            term *= xm / j
            total += term
        return float(total)


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

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 50, 1500])
    @pytest.mark.parametrize("x", [1e200, -1e200, 1e308, -1e308])
    def test_overflowing_terms_give_the_signed_limit(self, p, x):
        # at x = 1e200 the polynomial's terms overflow: exp(x) - poly was
        # inf - inf = NaN, and alternating infinite terms summed to NaN too.
        # The remainder is then +-inf, with the sign of -x^(p-2) for x < 0
        got = taylor_remainder(p, x)
        if x > 0.0:
            assert got == math.inf
        elif p <= 3:
            assert got == taylor_remainder_mp(p, x)
        else:
            assert got == (math.inf if p % 2 else -math.inf)

    @pytest.mark.parametrize("p,x", [(1500, 800.0), (1500, -800.0),
                                     (2000, 1000.0), (2000, -750.0),
                                     (5000, -1000.0)])
    def test_finite_values_past_overflowing_terms(self, p, x):
        # the terms near j = |x| overflow though the remainder, near its
        # first term x^(p-1)/(p-1)!, does not: these were NaN or inf. The
        # reference sums the tail series, with digits to spare for its
        # cancellation when x < 0
        want = taylor_tail_mp(p, x, dps=int(abs(x)) + 60)
        assert taylor_remainder(p, x) == pytest.approx(want, rel=1e-11,
                                                       abs=1e-300)

    @pytest.mark.parametrize("p", [5, 50, 1000])
    def test_matches_the_tail_series_inside_the_order(self, p):
        # for p/2 < |x| < p, exp(x) minus the polynomial cancelled to the
        # wrong sign: taylor_remainder(1000, 709.0) was -1.70e293 against
        # +5.30e283. The tolerance, 1e-12 relative, covers the p roundings
        # of the first term x^(p-1)/(p-1)! and, where that term overflows,
        # the rounding of its logarithm (about 700 at p = 1000)
        for x in [*np.linspace(-p, p, 81)[1:-1], 0.75 * p - 0.5,
                  p - 0.25, -p + 0.25, 709.0, -710.0]:
            if abs(x) < p:
                want = taylor_tail_mp(p, float(x))
                assert taylor_remainder(p, float(x)) == pytest.approx(
                    want, rel=1e-12, abs=1e-300), x


def degree_one_root_mp(a0, a1):
    """The zero of a0 - a1*y - exp(y) by bisection at 60 digits, over
    (0, min(log a0, (a0 - 1)/a1)), where it is decreasing from > 0 to <= 0."""
    with mpmath.workdps(60):
        a0, a1 = mpmath.mpf(a0), mpmath.mpf(a1)
        lo, hi = mpmath.mpf(0), min(mpmath.log(a0), (a0 - 1) / a1)
        # the root is at least hi/2 there, so 220 halvings reach 60 digits
        for _ in range(220):
            mid = (lo + hi) / 2
            if a0 - a1 * mid - mpmath.exp(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class TestSolvePolyExp:
    def test_degree_zero(self):
        rs = solve_poly_exp([math.e])
        assert rs.roots == (1.0,)
        assert rs.unique

    def test_degree_one_against_bisection(self):
        # exp(x) = 2 - x; unique positive root
        rs = solve_poly_exp([2.0, 1.0])
        expected = bisect(lambda x: 2.0 - x - math.exp(x), 0.0, 1.0)
        (root,) = rs.roots
        assert root == pytest.approx(expected, rel=1e-12)
        assert abs(2.0 - root - math.exp(root)) <= 1e-12
        # closed form in terms of W
        assert root == pytest.approx(2.0 - float(mpmath.lambertw(mpmath.e ** 2)),
                                     rel=1e-13)

    def test_degree_one_closed_form_matches_scan(self, rng):
        for _ in range(100):
            a0 = float(rng.uniform(1.0 + 1e-3, 100.0))
            a1 = float(rng.uniform(0.01, 10.0))
            closed = solve_poly_exp([a0, a1])
            scanned = poly_exp_roots([a0, a1])
            assert len(scanned.roots) == 1
            assert closed.roots[0] == pytest.approx(scanned.roots[0], rel=1e-10)

    def test_negative_linear_coefficient_has_one_certified_root(self):
        # f'' = -exp(y) < 0 whatever alpha_1 is: the concave path
        rs = solve_poly_exp([2.0, -3.0])
        (root,) = rs.roots
        assert rs.unique
        assert abs(poly_exp_residual([2.0, -3.0], root)) <= 1e-10 * (
            1 + math.exp(root))

    def test_three_roots_found(self):
        alpha = [1.5, 5.0, -4.0]
        rs = solve_poly_exp(alpha)
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

    @pytest.mark.parametrize("alpha,most", [
        ((4.8103961635413635, 0.8398879030285629, 0.20374230634459767,
          0.034157704117220605), 12),
        ((4.810396163541364, 0.8398879030285631, 0.20374230634459778,
          0.034157704117220605), 9),
    ])
    def test_refinement_stops_when_newton_rounds_onto_a_bracket_end(
            self, monkeypatch, alpha, most):
        # in the first case a Newton iterate lands within rounding of the
        # root, every later step lands on that bracket end, and bisecting
        # towards the far end took 39 residual evaluations; its last-digit
        # twin takes 9. These coefficients are all positive, so
        # solve_poly_exp takes the concave path: the Rolle refinement is
        # reached through poly_exp_roots
        calls = []

        def counting(a, x):
            calls.append(x)
            return poly_exp_residual(a, x)

        monkeypatch.setattr(special, "poly_exp_residual", counting)
        (root,) = poly_exp_roots(alpha).roots
        assert len(calls) <= most
        with mpmath.workdps(50):
            a = [mpmath.mpf(v) for v in alpha]
            want = mpmath.findroot(
                lambda x: a[0] - a[1] * x - a[2] * x ** 2 - a[3] * x ** 3
                - mpmath.exp(x), root)
        ulp = math.ulp(float(want))
        assert abs(root - want) <= 2 * ulp

    def test_no_certified_right_end_fails_cleanly(self):
        # an infinite alpha0 keeps the residual from turning negative
        with pytest.raises(SolverFailureError):
            solve_poly_exp([math.inf, 1.0, -1.0])

    def test_subnormal_linear_coefficient_gives_log_two(self):
        # alpha0/alpha1 overflows here; the root is log 2 to rounding
        (root,) = solve_poly_exp((2.0, 1e-310)).roots
        assert abs(root - math.log(2.0)) <= math.ulp(math.log(2.0))

    @pytest.mark.parametrize("alpha", [(math.inf, 1.0), (2.0, math.inf)])
    def test_non_finite_degree_one_coefficients_fail_cleanly(self, alpha):
        with pytest.raises(SolverFailureError):
            solve_poly_exp(alpha)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.0, max_value=300.0).map(lambda e: 10.0 ** e)
           .filter(lambda a0: a0 > 1.0),
           st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e))
    @example(8.349658788541326e+51, 8.661757863514029e+243)
    @example(2.0, 1e-310)
    @example(1e20, 0.3)
    @example(1e300, 1e-300)
    @example(1.0 + 2.0 ** -52, 1e-300)
    def test_degree_one_root_within_four_ulp(self, a0, a1):
        # alpha0 and alpha1 log-uniform over (1, 1e300] and [1e-300, 1e300];
        # the first example is where a1*y at the start rounds past a0
        (root,) = solve_poly_exp((a0, a1)).roots
        want = degree_one_root_mp(a0, a1)
        assert abs(root - want) <= 4 * math.ulp(float(want))

    def test_rejects_alpha0_at_most_one(self):
        with pytest.raises(PreconditionError):
            solve_poly_exp([1.0])


def inverse_factorial(j):
    return Fraction(1, math.factorial(j))


@st.composite
def concave_alphas(draw):
    """(alpha_0, ..., alpha_q) with alpha_0 > 1 and alpha_j >= -1/j! for
    j >= 2, exactly: alpha_j = c_j/j! - 1/j! for c_j = 0 or c_j
    log-uniform in [1e-6, 10], moved up by ulps where it rounded below
    -1/j!. Degree 1 to 6, alpha_0 - 1 log-uniform in [1e-3, 1e6], and
    alpha_1, which the test leaves free, in [-5, 10]."""
    q = draw(st.integers(1, 6))
    alpha = [1.0 + 10.0 ** draw(st.floats(-3.0, 6.0)),
             draw(st.floats(-5.0, 10.0))]
    for j in range(2, q + 1):
        c = draw(st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(
            lambda e: 10.0 ** e)))
        a = c / math.factorial(j) - 1 / math.factorial(j)
        while Fraction(a) < -inverse_factorial(j):
            a = math.nextafter(a, math.inf)
        alpha.append(a)
    return alpha


def rounding_scale(alpha, y):
    """eps (|alpha_0| + sum_j |alpha_j| y^j + e^y) / |f'(y)|: how far the
    rounding of one residual evaluation moves a root."""
    size = abs(alpha[0]) + math.exp(y)
    slope = math.exp(y)
    for j in range(1, len(alpha)):
        size += abs(alpha[j]) * y ** j
        slope += j * alpha[j] * y ** (j - 1)
    return 2.0 ** -52 * size / abs(slope)


def poly_exp_root_mp(alpha, near):
    """The root of the float equation near `near`, at 60 digits."""
    with mpmath.workdps(60):
        a = [mpmath.mpf(v) for v in alpha]
        return mpmath.findroot(
            lambda y: a[0] - sum(a[j] * y ** j for j in range(1, len(a)))
            - mpmath.exp(y), mpmath.mpf(near))


class TestConcaveRoot:
    """alpha_j >= -1/j! for every j >= 2 makes the residual concave on
    y >= 0, so it has one positive root, found by a monotone Newton
    iteration instead of the Rolle isolation."""

    @settings(max_examples=200, deadline=None)
    @given(concave_alphas())
    @example([1.05677360821155, -0.6354915412268632, -0.46376868081866995])
    @example([2.0, -3.0])
    @example([1.001, 5.25, -0.5, -1 / 6, -1 / 24])
    def test_one_root_that_the_rolle_isolation_finds(self, alpha):
        # over 4,000 random draws like these the Newton root was within
        # 2.3 rounding scales of the 60-digit root (4.1 for degree 1 with
        # alpha_1 > 0, _linear_root's path), and within 4.0 of the Rolle
        # root, which can be 1,200 ulp at a root near 1e-4; the median
        # distance was 0 ulp
        rs = solve_poly_exp(alpha)
        assert rs.unique
        (root,) = rs.roots
        (rolle,) = poly_exp_roots(alpha).roots
        scale = rounding_scale(alpha, rolle)
        assert abs(root - rolle) <= 6 * scale
        assert abs(root - poly_exp_root_mp(alpha, rolle)) <= 6 * scale

    def test_floors_of_the_inverse_factorials_are_exact(self):
        floors = special._INV_FACT_FLOORS
        assert floors[-1] == 0.0 and floors[-2] > 0.0
        for j, f in enumerate(floors):
            assert Fraction(f) <= inverse_factorial(j)
            assert Fraction(math.nextafter(f, math.inf)) > inverse_factorial(j)

    @pytest.mark.parametrize("j", [2, 3, 5, 9, 200])
    def test_a_coefficient_one_ulp_past_the_floor_goes_to_rolle(self, j):
        floor = (special._INV_FACT_FLOORS[j]
                 if j < len(special._INV_FACT_FLOORS) else 0.0)
        alpha = [3.0, 0.5] + [0.0] * (j - 2) + [-floor]
        assert special._is_concave(alpha)
        assert solve_poly_exp(alpha).unique
        alpha[-1] = math.nextafter(-floor, -math.inf)
        assert not special._is_concave(alpha)
        assert not solve_poly_exp(alpha).unique

    def test_newton_evaluates_the_residual_through_the_module(
            self, monkeypatch):
        residual = CallCounter(monkeypatch, special, "poly_exp_residual")
        levels = CallCounter(monkeypatch, special, "_derivative_levels")
        rs = solve_poly_exp((4.81, 0.84, 0.2, 0.034))
        assert rs.unique
        assert 2 <= residual.calls <= 12
        assert levels.calls == 0

    @pytest.mark.parametrize("alpha", [
        # the root lies past 512, where the next right end, 1024, has
        # f = -inf
        (math.exp(600.0), 1.0, 0.5),
        # alpha_0 = inf: f is never negative
        (math.inf, 1.0, 0.5),
    ])
    def test_non_finite_residuals_fall_back_to_rolle(self, monkeypatch,
                                                     alpha):
        monkeypatch.setattr(special, "_last_levels", None)
        assert special._concave_root(alpha) is None
        assert outcome(lambda: solve_poly_exp(alpha)) \
            == outcome(lambda: poly_exp_roots(alpha))


def outcome(call):
    try:
        return call()
    except TailboundError as exc:
        return type(exc), str(exc)


class TestMillsTheta:
    def test_half_at_zero(self):
        assert mills_theta(0.0) == 0.5

    def test_sandwich_inequality(self):
        c = math.sqrt(2 * math.pi)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            th = mills_theta(x)
            assert 1.0 / (c * (1 + x)) <= th <= 1.0 / (c * x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e3))
    @example(26.0 * _SQRT2)
    @example(math.nextafter(26.0 * _SQRT2, 0.0))
    def test_matches_extended_precision(self, x):
        # both sides of the switch to the continued fraction at x = 26 sqrt(2)
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            want = mpmath.exp(xm * xm / 2) * mpmath.erfc(xm / mpmath.sqrt(2)) / 2
            assert abs(mills_theta(x) - want) <= 1e-15 * want

    def test_no_overflow_at_forty(self):
        assert 0.0 < mills_theta(40.0) < 1.0

    @pytest.mark.parametrize("x", [-0.1, math.nan])
    def test_rejects_negative(self, x):
        with pytest.raises(DomainError):
            mills_theta(x)
