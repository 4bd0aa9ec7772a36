import math
import sys

import mpmath
import numpy as np
import pytest
from helpers import CallCounter
from hypothesis import assume, example, given, settings
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


def g_mp(coeffs, y):
    """a - sum_j c_j y^j - T(y) at 60 digits for coeffs = (a, c_1, ..., c_q)
    taken as exact, with T(y) = sum_{j>q} y^j/j! summed as that series
    below y = 1, so that it does not cancel against 1 for a tiny y."""
    with mpmath.workdps(60):
        a, *c = [mpmath.mpf(v) for v in coeffs]
        y = mpmath.mpf(y)
        q = len(c)
        if y >= 1:
            tail = mpmath.exp(y) - sum(y ** j / mpmath.factorial(j)
                                       for j in range(q + 1))
        else:
            term = tail = y ** (q + 1) / mpmath.factorial(q + 1)
            j = q + 1
            while term > tail * mpmath.mpf(10) ** -70:
                j += 1
                term *= y / j
                tail += term
        return a - sum(c_j * y ** j for j, c_j in enumerate(c, start=1)) - tail


def root_near_mp(coeffs, near, width=1e-9):
    """The root of g within `width` of `near`, relative, at 60 digits: g must
    change sign across that bracket, in which the secant method finds it."""
    with mpmath.workdps(60):
        # in y = near (1 + u), so that the solver's tolerance on u is relative
        def g_u(u):
            return g_mp(coeffs, mpmath.mpf(near) * (1 + u))

        width = mpmath.mpf(width)
        assert g_u(-width) * g_u(width) < 0
        u = mpmath.findroot(g_u, (0, width / 1000), verify=False)
        assert abs(u) < width
        return mpmath.mpf(near) * (1 + u)


class TestSolvePolyExp:
    def test_degree_zero(self):
        rs = solve_poly_exp([math.e - 1.0])
        assert rs.roots == (1.0,)
        assert rs.unique

    def test_degree_one_against_bisection(self):
        # exp(x) = 2 - x, which is a = 1, c_1 = 2; unique positive root
        rs = solve_poly_exp([1.0, 2.0])
        expected = bisect(lambda x: 2.0 - x - math.exp(x), 0.0, 1.0)
        (root,) = rs.roots
        assert root == pytest.approx(expected, rel=1e-12)
        assert abs(2.0 - root - math.exp(root)) <= 1e-12
        # closed form in terms of W
        assert root == pytest.approx(2.0 - float(mpmath.lambertw(mpmath.e ** 2)),
                                     rel=1e-13)

    def test_degree_one_newton_matches_scan(self, rng):
        for _ in range(100):
            a = float(rng.uniform(1e-3, 99.0))
            c_1 = float(rng.uniform(1.01, 11.0))
            newton = solve_poly_exp([a, c_1])
            scanned = poly_exp_roots([a, c_1])
            assert len(scanned.roots) == 1
            assert newton.roots[0] == pytest.approx(scanned.roots[0], rel=1e-10)

    def test_negative_linear_coefficient_has_one_certified_root(self):
        # g'' = -exp(y) < 0 whatever c_1 is: the Newton path
        rs = solve_poly_exp([1.0, -2.0])
        (root,) = rs.roots
        assert rs.unique
        assert abs(poly_exp_residual([1.0, -2.0], root)) <= 1e-10 * (
            1 + math.exp(root))

    def test_three_roots_found(self):
        # exp(x) = 1.5 - 5x + 4x^2
        coeffs = [0.5, 6.0, -3.5]
        rs = solve_poly_exp(coeffs)
        assert len(rs.roots) == 3
        for r in rs.roots:
            assert abs(poly_exp_residual(coeffs, r)) <= 1e-10 * (1 + math.exp(r))
        assert list(rs.roots) == sorted(rs.roots)

    def test_root_residual_invariant(self, rng):
        for _ in range(50):
            coeffs = [float(rng.uniform(0.5, 49.0))] + list(
                rng.normal(0.0, 1.0, int(rng.integers(1, 4))))
            rs = solve_poly_exp(coeffs)
            for r in rs.roots:
                assert r > 0
                assert abs(poly_exp_residual(coeffs, r)) <= 1e-10 * (
                    1 + math.exp(min(r, 700)))

    @pytest.mark.parametrize("coeffs,most", [
        ((3.8101604451780324, 1.8389553478694396, 0.7038038990806103,
          0.2008540691689686), 12),
        ((3.810160445178033, 1.8389553478694398, 0.7038038990806103,
          0.2008540691689686), 9),
    ])
    def test_refinement_stops_when_newton_rounds_onto_a_bracket_end(
            self, monkeypatch, coeffs, most):
        # in the first case a Newton iterate lands within rounding of the
        # root, every later step lands on that bracket end, and bisecting
        # towards the far end took 45 residual evaluations; its last-digit
        # twin takes 9. These coefficients are all positive, so
        # solve_poly_exp takes the Newton path: the Rolle refinement is
        # reached through poly_exp_roots
        calls = []

        def counting(c, x):
            calls.append(x)
            return poly_exp_residual(c, x)

        monkeypatch.setattr(special, "poly_exp_residual", counting)
        (root,) = poly_exp_roots(coeffs).roots
        assert len(calls) <= most
        with mpmath.workdps(50):
            want = mpmath.findroot(lambda x: g_mp(coeffs, x), root)
        ulp = math.ulp(float(want))
        assert abs(root - want) <= 2 * ulp

    def test_no_certified_right_end_fails_cleanly(self):
        # an infinite a keeps the residual from turning negative
        with pytest.raises(SolverFailureError):
            solve_poly_exp([math.inf, 2.0, -0.5])

    def test_linear_coefficient_that_rounds_to_one_gives_log_two(self):
        # c_1 = 1 + 1e-310 is 1.0: 1 - y = e^y - 1 - y, so the root is log 2
        (root,) = solve_poly_exp((1.0, 1.0 + 1e-310)).roots
        assert abs(root - math.log(2.0)) <= math.ulp(math.log(2.0))

    @pytest.mark.parametrize("coeffs", [(math.inf, 2.0), (1.0, math.inf)])
    def test_non_finite_degree_one_coefficients_fail_cleanly(self, coeffs):
        with pytest.raises(SolverFailureError):
            solve_poly_exp(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
           st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e))
    @example(8.349658788541326e+51, 8.661757863514029e+243)
    @example(1.0, 1e-300)
    @example(1e20, 1.3)
    @example(1e300, 1.0)
    @example(2.0 ** -52, 1.0)
    @example(3.0, 1e17)
    @example(1e-320, 1e-310)
    def test_degree_one_root_within_four_ulp(self, a, c_1):
        # a and c_1 log-uniform over [1e-300, 1e300], where a/c_1, above
        # the root, stays a normal float; in the first example c_1*y at the
        # start rounds past a, in (3.0, 1e17) the first Newton step from 1
        # rounded to 0, which returned 1.0 for a root of 2e-17, and in the
        # last the quadratic start overflowed to 0 and the first step, a/c_1
        # = 1e-10, came back for a root of 1.4e-160
        assume(a / c_1 >= 2.0 ** -1022)
        (root,) = solve_poly_exp((a, c_1)).roots
        want = root_near_mp((a, c_1), root)
        assert abs(root - want) <= 4 * math.ulp(float(want))

    def test_rejects_a_at_most_zero(self):
        with pytest.raises(PreconditionError):
            solve_poly_exp([0.0])

    @pytest.mark.parametrize("coeffs", [(1e-320, 1e10), (1e-320, 1e10, -0.5)])
    def test_a_root_below_the_float_range_is_a_precondition_failure(
            self, coeffs):
        # the root is about a/c_1 = 1e-330; the Rolle refinement returned
        # 2.2e-71 for it
        with pytest.raises(PreconditionError):
            solve_poly_exp(coeffs)


@st.composite
def single_root_coeffs(draw):
    """(a, c_1, ..., c_q) with c_j >= 0 for j >= 2: c_j = 0 or c_j = d_j/j!
    for d_j log-uniform in [1e-6, 10]. Degree 1 to 6, a log-uniform in
    [1e-3, 1e6], and c_1, which the test leaves free, in [-4, 11]."""
    q = draw(st.integers(1, 6))
    coeffs = [10.0 ** draw(st.floats(-3.0, 6.0)), draw(st.floats(-4.0, 11.0))]
    for j in range(2, q + 1):
        d = draw(st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(
            lambda e: 10.0 ** e)))
        coeffs.append(d / math.factorial(j))
    return coeffs


def rounding_scale(coeffs, y):
    """(eps (a + sum_j |c_j| y^j + T(y)) + (q + 2) 2^-1074) / |g'(y)|, with
    e^y in place of T(y) from y = 1 on, where T is exp(y) minus a
    polynomial: how far the rounding of one residual evaluation moves a
    root. The second term is the absolute rounding of the terms that fall
    below the normal floats, as for a = 1e-320."""
    q = len(coeffs) - 1
    tail = float(g_mp((0.0,) + (0.0,) * q, y))
    size = coeffs[0] + (math.exp(y) if y >= 1.0 else -tail)
    slope = -tail + y ** q / math.factorial(q)
    for j in range(1, q + 1):
        size += abs(coeffs[j]) * y ** j
        slope += j * coeffs[j] * y ** (j - 1)
    return (2.0 ** -52 * size + 2.0 ** -1074 * (q + 2)) / abs(slope)


class TestSingleRoot:
    """c_j >= 0 for every j >= 2 gives g one positive root, found by a
    monotone Newton iteration instead of the Rolle isolation."""

    @settings(max_examples=200, deadline=None)
    @given(single_root_coeffs())
    @example([0.05677360821155, 0.3645084587731368, 0.03623131918133005])
    @example([1.0, -2.0])
    @example([0.001, 6.25, 0.0, 0.0, 0.0])
    @example([0.001, 0.5, 0.25, 0.0, 1e-6])
    # the first Newton step from 1 rounded to 0, and 1.0 came back as the
    # root (2e-17)
    @example([2.0, 1e17, 0.6])
    def test_one_root_that_the_rolle_isolation_finds(self, coeffs):
        # both roots are within 2 rounding scales of the 60-digit root of
        # the float equation, near 0 too: the residual's exponential tail
        # is summed as its series there, where the alpha form lost up to
        # 1,200 ulp of a root near 1e-4
        rs = solve_poly_exp(coeffs)
        assert rs.unique
        (root,) = rs.roots
        (rolle,) = poly_exp_roots(coeffs).roots
        scale = rounding_scale(coeffs, rolle)
        want = root_near_mp(coeffs, rolle)
        assert abs(root - want) <= 6 * scale
        assert abs(rolle - want) <= 6 * scale

    @pytest.mark.parametrize("coeffs", [
        (1e-320, 1e-310),
        (1e-5, 2e-5, 8e307),
        # 2a and c_1 + hypot(...) overflow: the start is a/c_1
        (8e307, 1.7e308),
    ])
    def test_quadratic_start_at_the_ends_of_the_float_range(self, coeffs):
        # the first two roots are about 1.4e-160 and 3.5e-157: the quadratic
        # start, once 2 r / (1 + sqrt(1 + 4 r d/c_1)), overflowed to 0 there,
        # and the first Newton step from 0, a/c_1, came back as the root
        rs = solve_poly_exp(coeffs)
        assert rs.unique
        (root,) = rs.roots
        want = root_near_mp(coeffs, root)
        assert abs(root - want) <= 4 * math.ulp(float(want))

    @pytest.mark.parametrize("j", [2, 3, 5, 9, 200])
    def test_a_coefficient_below_zero_goes_to_rolle(self, j):
        coeffs = [2.0, 1.5] + [0.0] * (j - 1)
        assert solve_poly_exp(coeffs).unique
        coeffs[-1] = -5e-324
        assert not solve_poly_exp(coeffs).unique

    def test_newton_evaluates_the_residual_through_the_module(
            self, monkeypatch):
        residual = CallCounter(monkeypatch, special, "poly_exp_residual")
        levels = CallCounter(monkeypatch, special, "_derivative_levels")
        rs = solve_poly_exp((3.81, 1.84, 0.7, 0.2))
        assert rs.unique
        assert 2 <= residual.calls <= 12
        assert levels.calls == 0

    @pytest.mark.parametrize("coeffs", [
        # the root lies past 512, where the next right end, 1024, has
        # g = -inf
        (math.exp(600.0), 2.0, 1.0),
        # a = inf: g is never negative
        (math.inf, 2.0, 1.0),
    ])
    def test_non_finite_residuals_fall_back_to_rolle(self, monkeypatch,
                                                     coeffs):
        monkeypatch.setattr(special, "_last_levels", None)
        assert special._newton_root(coeffs) is None
        assert outcome(lambda: solve_poly_exp(coeffs)) \
            == outcome(lambda: poly_exp_roots(coeffs))


def assert_within_rounding(coeffs, root):
    # 6 rounding scales, a bracket for the reference twice that wide; a
    # subnormal a leaves the root a few 1e-4 of itself
    tol = 6 * rounding_scale(coeffs, root)
    want = root_near_mp(coeffs, root, max(1e-9, 2 * tol / root))
    assert abs(root - want) <= tol


@st.composite
def rolle_coeffs(draw):
    """(a, c_1, ..., c_q) with some c_j < 0 (j >= 2), which solve_poly_exp
    sends to the Rolle isolation: degree 2 to 5, a log-uniform in
    [1e-3, 1e3], c_1 in [-4, 11] and c_j = d_j/j! for d_j in [-10, 10]."""
    q = draw(st.integers(2, 5))
    coeffs = [10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.floats(-4.0, 11.0))]
    for j in range(2, q + 1):
        coeffs.append(draw(st.floats(-10.0, 10.0)) / math.factorial(j))
    assume(min(coeffs[2:]) < 0.0)
    return coeffs


class TestRolleRoots:
    """The roots of the Rolle isolation, which poly_exp_roots always takes
    and solve_poly_exp where some c_j < 0 (j >= 2)."""

    @settings(max_examples=200, deadline=None)
    @given(rolle_coeffs())
    @example([0.5, 6.0, -3.5])
    @example([0.05, 4.0, -6.0, 1.5])
    @example([1e-320, 1e-310, 0.0, -1e-300])
    @example([1e-320, 1e-310])
    def test_every_root_within_rounding_of_the_60_digit_root(self, coeffs):
        rs = poly_exp_roots(coeffs)
        if min(coeffs[2:], default=0.0) < 0.0:
            assert solve_poly_exp(coeffs) == rs
        # a pair of roots closer than the reference's bracket is out of its
        # reach
        assume(all(b - a > 1e-6 * b for a, b in zip(rs.roots, rs.roots[1:])))
        for root in rs.roots:
            assert_within_rounding(coeffs, root)

    @pytest.mark.parametrize("coeffs", [
        (1e-320, 1e-310, 0.0, -1e-300),
        (1e-320, 1e-310),
    ])
    def test_a_root_far_below_two_to_the_minus_200(self, coeffs):
        # the roots are about 2.2e-80 (a = y^4/24) and 1.4e-160 (a = y^2/2);
        # Newton steps from 0.5 shrank by half or less each, and the
        # refinement stopped after 200 of them at 1.39e-54 and 3.1e-61
        (root,) = (solve_poly_exp(coeffs) if len(coeffs) > 2
                   else poly_exp_roots(coeffs)).roots
        assert_within_rounding(coeffs, root)

    @pytest.mark.parametrize("coeffs", [(0.5, 6.0, -3.5), (2.0, 1.5, 0.5)])
    def test_the_levels_reach_the_residual_through_a_private_name(
            self, monkeypatch, coeffs):
        # as perfbench/tracing.py does, rebind the first name under which
        # each tailbound module holds poly_exp_residual: the derivative
        # levels and the Newton slope must not go through it, so that it
        # sees g's own coefficients alone
        residual = special.poly_exp_residual
        seen = []

        def traced(c, y):
            seen.append(tuple(c))
            return residual(c, y)

        for name, module in list(sys.modules.items()):
            if name.startswith("tailbound") and module is not None:
                held = [k for k, v in vars(module).items() if v is residual]
                if held:
                    monkeypatch.setattr(module, held[0], traced)
        monkeypatch.setattr(special, "_last_levels", None)
        rs = solve_poly_exp(coeffs)
        assert len(rs.roots) == (3 if coeffs[2] < 0.0 else 1)
        assert seen and set(seen) == {coeffs}


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
