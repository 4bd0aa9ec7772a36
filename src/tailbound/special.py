"""Scalar special functions used by the bound formulas.

Series tails of the exponential, the scaled Gaussian tail, and the solver
for the positive roots of Bennett's equation a - sum_j c_j x^j = T(x), T
the exponential series from degree q + 1 on, with its RootSet result type.
"""

from __future__ import annotations

import math
from functools import partial

from ._record import Record, setfield
from .errors import DomainError, PreconditionError, SolverFailureError

__all__ = [
    "RootSet", "mills_theta", "solve_poly_exp", "taylor_remainder",
]

_EPS = 2.220446049250313e-16
_EXP_MAX = 709.782712893384
_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
# the derivative levels of the last solve_poly_exp that reached the Rolle
# isolation, keyed by their c_1..c_q (see _derivative_levels)
_last_levels = None


class RootSet(Record):
    """Positive solutions of solve_poly_exp's equation.

    roots are ascending; `unique` is True only when uniqueness is known
    analytically: degree 0, or c_j >= 0 for every j >= 2, where the
    coefficients of the equation's power series change sign once.
    """

    __slots__ = _fields = ("roots", "unique")

    def __init__(self, roots: tuple[float, ...], unique: bool):
        if not roots:
            raise SolverFailureError("empty root set")
        if not all(0.0 < r < math.inf for r in roots):
            raise SolverFailureError(f"a root that is not finite and positive "
                                     f"in {roots}")
        setfield(self, "roots", roots)
        setfield(self, "unique", unique)


def _exp(x):
    # math.exp raises OverflowError instead of returning inf; saturate.
    if x > _EXP_MAX:
        return math.inf
    return math.exp(x)


def taylor_remainder(p: int, x: float) -> float:
    """Tail of the exponential series: exp(x) - sum_{j=0}^{p-2} x^j/j!.

    taylor_remainder(1, x) is exp(x) itself (empty polynomial). For
    |x| < p the tail series sum_{j>=p-1} x^j/j! is summed directly,
    which avoids the cancellation of exp(x) against the polynomial; its
    terms shrink by the ratio r = |x|/j < 1 from the first on, so the
    alternating case is stable too. Where a term of either sum overflows,
    the value is taken again from _overflowed_remainder: it is inf or -inf
    only where the remainder itself leaves the float range.
    """
    if not isinstance(p, int) or p < 1:
        raise DomainError(f"order must be a positive integer; got {p!r}")
    x = float(x)
    if abs(x) < p:
        # first tail term x^(p-1)/(p-1)!, built incrementally to dodge
        # overflow of x**(p-1) and factorial separately
        term = 1.0
        for j in range(1, p):
            term *= x / j
        total = term
        j = p - 1
        # the terms left after term sum to at most |term| r/(1 - r) for
        # r = |x|/(j + 1) < 1, and the loop stops once that (or |term|
        # itself, for r <= 1/2) is below eps |total|. That takes O(sqrt(p))
        # steps at any |x| < p (245 at most, near p = 711): the cap, which
        # grows with p, is a guard
        while True:
            j += 1
            term *= x / j
            total += term
            r = abs(x) / (j + 1)
            if (abs(term) * max(r / (1.0 - r), 1.0) <= _EPS * abs(total)
                    or j > 2 * p + 400):
                break
    else:
        poly = 0.0
        term = 1.0
        for j in range(p - 1):
            poly += term
            term *= x / (j + 1)
        total = _exp(x) - poly
    if math.isfinite(total) or not math.isfinite(x):
        return total
    return _overflowed_remainder(p, x)


def _overflowed_remainder(p: int, x: float) -> float:
    """taylor_remainder(p, x) for a finite x at which a term of its sums
    overflowed (|x| > 700).

    Below x = -(p - 2) the polynomial's terms grow up to its top one, which
    dominates: Horner's rule sums it with no term larger than the result.
    Elsewhere the tail series sum_{j>=p-1} x^j/j! is summed as its first
    term, kept as the logarithm L of its size, times the sum S of the
    terms divided by it, and stops at +-inf once L + log S overflows. Its
    terms shrink from j = |x| on; for x < 0 that is from the start, and
    S >= 1 - |x|/p >= 2/p.
    """
    if -x > p - 2:
        poly = 1.0
        for j in range(p - 2, 0, -1):
            poly = 1.0 + poly * (x / j)
        return _exp(x) - poly
    log_first = (p - 1) * math.log(abs(x)) - math.lgamma(p)
    # the sign of the first term x^(p-1)
    sign = -1.0 if x < 0.0 and p % 2 == 0 else 1.0
    if x < 0.0 and log_first + math.log(2.0 / p) > _EXP_MAX:
        return sign * math.inf
    limit = _exp(_EXP_MAX - log_first)
    total = term = 1.0
    j = p - 1
    while j < abs(x) or abs(term) > _EPS * total:
        j += 1
        term *= x / j
        total += term
        if total > limit:
            return sign * math.inf
    return sign * _exp(log_first + math.log(total))


def mills_theta(x: float) -> float:
    """Scaled Gaussian upper-tail mass exp(x^2/2) * P(Z >= x) for Z ~ N(0,1).

    Evaluated through the scaled complementary error function, so there is
    no overflow for large x. Satisfies
    1/(sqrt(2*pi)*(1+x)) <= theta(x) <= 1/(sqrt(2*pi)*x) for x > 0.
    """
    x = float(x)
    if not x >= 0.0:
        raise DomainError(f"mills_theta requires x >= 0; got {x}")
    return 0.5 * _erfcx(x / _SQRT2)


def _erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 0, within about 5e-16 relative."""
    if x < 26.0:
        # x = hi + lo with hi on 26 bits (Dekker, Numer. Math. 18 (1971)
        # 224-242), so hi*hi is exact and squaring x costs no digits
        c = 134217729.0 * x  # (2^27 + 1) x
        hi = c - (c - x)
        lo = x - hi
        return math.erfc(x) * math.exp(hi * hi) * math.exp((hi + hi + lo) * lo)
    # erfc(x) turns subnormal near x = 26.5. Laplace's continued fraction
    # 1/sqrt(pi) / (x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...)))) instead:
    # eight terms are within 3e-23 at x = 26
    f = x
    for k in range(8, 0, -1):
        f = x + 0.5 * k / f
    return 1.0 / (_SQRT_PI * f)


def solve_poly_exp(coeffs) -> RootSet:
    """Positive roots of g(y) = a - sum_{j=1..q} c_j y^j - T(y) for coeffs =
    (a, c_1, ..., c_q), where T(y) = sum_{j>q} y^j/j! is the exponential
    series from degree q + 1 on. g = 0 is alpha_0 - sum_j alpha_j y^j = e^y
    with alpha_0 = 1 + a and alpha_j = c_j - 1/j! (see alpha_form), written
    so that a small a or c_j is not rounded away against 1/j!.

    a > 0 guarantees a positive root. g's power series has the coefficients
    (a, -c_1, ..., -c_q, -1/(q+1)!, -1/(q+2)!, ...), so where c_j >= 0 for
    every j >= 2 they change sign once, and g has a single positive root:
    Descartes' rule of signs holds for power series (Jameson, Math. Gazette
    90 (2006) 223-234). Degree 0 gives log1p(a), and the others of this
    kind the Newton iteration of _newton_root; these RootSets are `unique`.
    Every other equation goes to the Rolle isolation of poly_exp_roots. Its
    derivative levels do not involve a, so the last isolation's are kept,
    and a solve with the same c (one Bennett ensemble at another threshold)
    reuses them; a single-root solve neither builds nor replaces them.
    """
    coeffs = tuple(map(float, coeffs))
    if not coeffs:
        raise DomainError("need at least the coefficient a; got none")
    a = coeffs[0]
    if not a > 0.0:
        raise PreconditionError(
            f"a must be positive for a positive root to exist; got {a}")
    if len(coeffs) == 1:
        return RootSet((math.log1p(a),), True)
    if 0.0 < coeffs[1] < math.inf and a / coeffs[1] == 0.0:
        # g <= a - c_1 y + O(y^2): a root lies below the least positive float
        raise PreconditionError(
            f"a/c_1 must not round to 0 for the first root to be a positive "
            f"float; got a = {a}, c_1 = {coeffs[1]}")
    if len(coeffs) == 2 or all(c >= 0.0 for c in coeffs[2:]):
        root = _newton_root(coeffs)
        if root is not None:
            return RootSet((root,), True)
    global _last_levels
    levels = _last_levels
    if levels is None or levels[0] != coeffs[1:]:
        levels = _derivative_levels(coeffs)
    roots = _last_level(coeffs, levels)
    _last_levels = levels
    return roots


def alpha_form(c) -> tuple[float, ...]:
    """alpha_j = c_j - 1/j! for j = 1..len(c), the coefficients of
    solve_poly_exp's equation written as alpha_0 - sum_j alpha_j y^j = e^y."""
    alpha = []
    fact = 1.0
    for j, c_j in enumerate(c, start=1):
        fact *= j
        alpha.append(c_j - 1.0 / fact)
    return tuple(alpha)


def _newton_root(coeffs):
    """The one positive root of g where c_j >= 0 for every j >= 2, or None
    where the iteration below cannot run on finite values and a negative
    slope.

    g is then concave on y >= 0, as -g'' is a power series with
    nonnegative coefficients. Where c_1 > a, the right end comes from g's
    first terms m(y) = a - c_1 y - d y^2 - e y^3 (d and e the coefficients
    of y^2 and y^3 among the c_j and T's 1/j!): the others are <= 0 on
    y >= 0, so g <= m. It is the positive root of m's quadratic part, at
    most a/c_1, where g's tangent at 0 crosses zero, moved by one Newton
    step on the concave m, which stays above m's root and so above g's.
    The quadratic root is written with hypot and the square roots of a and
    d apart, so that it neither over- nor underflows to 0 where c_1^2 or
    a d would; where it still does (a or c_1 near the float maximum), the
    start is a/c_1 itself. Otherwise the right end doubles from 1 until
    g(y) < 0. Past the root g
    is negative and decreasing, and its tangent lies above it, so each
    Newton step falls onto the root from the right without passing it. The
    iteration ends once g(y) rounds to >= 0, a step no longer lowers y or
    the step bounds the next one below eps y / 2, which floats being
    finite makes certain, and returns that last step, taken in either
    direction: a step from within rounding of the root leaves no error but
    that of g(y) itself. g is evaluated through this module's global
    poly_exp_residual, as in the Rolle path.
    """
    a, c_1 = coeffs[0], coeffs[1]
    y = 1.0
    if a < c_1:
        d = coeffs[2] if len(coeffs) > 2 else 0.5
        e = coeffs[3] if len(coeffs) > 3 else 1.0 / 6.0
        y = 2.0 * a / (c_1 + math.hypot(c_1, 2.0 * math.sqrt(a) * math.sqrt(d)))
        if not y > 0.0:
            y = a / c_1
        y -= e * y ** 3 / (c_1 + y * (2.0 * d + 3.0 * e * y))
    f = poly_exp_residual(coeffs, y)
    while not f < 0.0 and y >= 1.0:
        y *= 2.0
        if y > 1024.0:
            return None
        f = poly_exp_residual(coeffs, y)
    # with c_1 >= 0, |g''| <= (q + 1) |g'| / min(y, 1) for y > 0, term by
    # term, so a step s leaves the next iterate within (q + 1) s^2 /
    # (2 min(y, 1)) of the root
    inf = math.inf
    stiff = len(coeffs) if c_1 >= 0.0 else inf
    while True:
        slope = _slope(coeffs, y)
        if not (-inf < f < inf and -inf < slope < 0.0):
            return None
        y_next = y - f / slope
        step = y - y_next
        if (not (f < 0.0 and 0.0 < y_next < y)
                or stiff * step * step <= _EPS * y_next * min(y_next, 1.0)):
            return y_next if y_next > 0.0 else None
        y = y_next
        f = poly_exp_residual(coeffs, y)


def poly_exp_residual(coeffs, y: float) -> float:
    """g(y) = a - sum_{j=1..q} c_j y^j - T(y) for coeffs = (a, c_1, ..., c_q),
    with T(y) = sum_{j>q} y^j/j!. With P the polynomial's computed value,
    T is summed as its series where |a| + |P| < y < 1 (see _tail_series),
    and else taken as expm1(y) minus sum_{j=1..q} y^j/j!, whose rounding,
    a few eps y e^y, is then within a few eps (|a| + |P|), the rounding of
    a - P itself, below y = 1, and small beside e^y from there on.

    The solvers evaluate g through this module's global name, so wrapping
    that name sees every evaluation.
    """
    a = coeffs[0]
    poly = taylor = 0.0
    for j in range(len(coeffs) - 1, 0, -1):
        poly = (poly + coeffs[j]) * y
        taylor = (taylor + 1.0) * y / j
    scale = abs(a) + abs(poly)
    if scale < y < 1.0:
        return a - poly - _tail_series(len(coeffs) - 1, y, scale)
    return a - poly - ((math.expm1(y) if y < _EXP_MAX else math.inf) - taylor)


def _slope(coeffs, y):
    # g'(y) = -sum_{j=1..q} j c_j y^(j-1) - sum_{j>=q} y^j/j!, its tail
    # taken as in poly_exp_residual
    poly = taylor = 0.0
    for j in range(len(coeffs) - 1, 1, -1):
        poly = (poly + j * coeffs[j]) * y
        taylor = (taylor + 1.0) * y / (j - 1)
    poly += coeffs[1]
    if abs(poly) < y < 1.0:
        return -poly - _tail_series(len(coeffs) - 2, y, abs(poly))
    return -poly - ((math.expm1(y) if y < _EXP_MAX else math.inf) - taylor)


def _tail_series(k, y, scale):
    """sum_{j>k} y^j/j! for 0 < y < 1, to within eps (scale + the sum). Its
    terms shrink by y/j < 1/(k + 2) from the first on, so nothing cancels
    against 1, and the terms left after one at most eps (scale + the sum)
    add up to less than it."""
    term = 1.0
    for j in range(1, k + 2):
        term *= y / j
    total = term
    j = k + 1
    while term > _EPS * (scale + total):
        j += 1
        term *= y / j
        total += term
    return total


def _poly_minus_exp(coeffs, x):
    # sum_i coeffs[i]*x^i - exp(x): a derivative of the poly-exp residual
    poly = 0.0
    for c in reversed(coeffs):
        poly = poly * x + c
    return poly - _exp(x)


def _refine(fn, dfn, lo, hi, flo):
    # safeguarded Newton within a sign-change bracket; flo = fn(lo)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = fn(x)
        if f == 0.0:
            return x
        if (f > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        df = dfn(x)
        xn = x - f / df if df != 0.0 and math.isfinite(df) else 0.5 * (lo + hi)
        if not lo < xn < hi:
            # x is now a bracket end, and a step that rounds onto it or just
            # past it means x has converged: bisecting on would cost ~30 evals
            if abs(xn - x) <= 4.0 * _EPS * abs(x):
                return x
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 4.0 * _EPS * abs(x):
            return xn
        x = xn
    return x


def _sign_change_roots(fn, dfn, points):
    """Sign changes of fn between consecutive points, refined, plus the
    points other than the first where fn is exactly zero. fn must be
    monotone between consecutive points, so each gap holds at most one."""
    roots = []
    f_lo = fn(points[0])
    for lo, hi in zip(points, points[1:]):
        f_hi = fn(hi)
        if f_hi == 0.0:
            roots.append(hi)
        elif f_lo != 0.0 and (f_lo > 0.0) != (f_hi > 0.0):
            roots.append(_refine(fn, dfn, lo, hi, f_lo))
        f_lo = f_hi
    return roots


def poly_exp_roots(coeffs) -> RootSet:
    """Every positive root of poly_exp_residual(coeffs, x), ascending: the
    generic solver, and the reference the single-root path is tested
    against.

    Rolle isolation: with q = len(coeffs) - 1, the (q+1)-th derivative of
    the residual g is -exp(x) < 0, so g^(q) is decreasing and each root of
    g^(k+1) is a turning point of g^(k). The right end X doubles from 1
    until g, g', ..., g^(q) are all negative there, which keeps all of
    them negative past X. Going down from k = q to 0, the roots of
    g^(k+1) in (0, X) split [0, X] into pieces on which g^(k) is
    monotone, and each piece holds at most one sign change of g^(k).
    Raises SolverFailureError if no right end is certified below x = 1024.
    """
    return _last_level(coeffs, _derivative_levels(coeffs))


def _derivative_levels(coeffs):
    """The part of poly_exp_roots that a does not enter, as (c, derivs,
    turning, alpha) with c = coeffs[1:] and alpha = alpha_form(c).
    derivs[k - 1] evaluates g^(k) for k = 1..q+1 as the derivative of
    alpha_0 - sum_j alpha_j x^j - exp(x): a polynomial (constant term
    first) minus exp(x), an empty one for g^(q+1) = -exp(x). turning maps
    each right end X tried to the roots of g' in (0, X), levels q..1 of the
    isolation, or to False where g', ..., g^(q) are not all negative at X;
    it fills as solves need it.
    """
    alpha = alpha_form(coeffs[1:])
    derivs = []
    poly = [-j * alpha_j for j, alpha_j in enumerate(alpha, start=1)]
    for _ in coeffs:
        derivs.append(partial(_poly_minus_exp, poly))
        poly = [i * poly[i] for i in range(1, len(poly))]
    return coeffs[1:], derivs, {}, alpha


def _last_level(coeffs, levels):
    # the roots of g itself, below the right end poly_exp_roots describes;
    # the derivative half of its test comes from the levels, so once they
    # have seen a right end only g is evaluated there
    _, derivs, known, alpha = levels
    f = partial(poly_exp_residual, coeffs)
    x_end = 1.0
    while True:
        if f(x_end) < 0.0:
            turning = known.get(x_end)
            if turning is None:
                turning = known[x_end] = _turning_points(derivs, x_end)
            if turning is not False:
                break
        x_end *= 2.0
        if x_end > 1024.0:
            raise SolverFailureError(
                f"no right end certifies the roots of "
                f"alpha={(1.0 + coeffs[0], *alpha)} below x=1024")
    return RootSet(tuple(_sign_change_roots(f, derivs[0], [0.0, *turning, x_end])),
                   False)


def _turning_points(derivs, x_end):
    if not all(fn(x_end) < 0.0 for fn in derivs[:-1]):
        return False
    turning = []
    for k in range(len(derivs) - 2, -1, -1):
        turning = _sign_change_roots(derivs[k], derivs[k + 1], [0.0, *turning, x_end])
    return turning


# perfbench/tracing.py finds poly_exp_residual at this module path in
# sys.modules, so the alias must be loaded whenever this module is
from ._kernels import _pyfallback
