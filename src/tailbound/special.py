"""Scalar special functions used by the bound formulas.

Series tails of the exponential, the scaled Gaussian tail, and the solver
for the positive roots of alpha_0 - sum_j alpha_j x^j = exp(x) with its
RootSet result type.
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
# isolation, keyed by their alpha[1:] (see _derivative_levels)
_last_levels = None


class RootSet(Record):
    """Positive solutions of alpha0 - sum_j alpha_j x^j = exp(x).

    roots are ascending; `unique` is True only when uniqueness is known
    analytically: degree 0, degree 1 with a positive linear coefficient,
    coefficients that pass solve_poly_exp's concavity test, or a caller
    that asserted the sign condition that forces a single crossing.
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


def solve_poly_exp(alpha) -> RootSet:
    """Positive roots of alpha[0] - sum_{j>=1} alpha[j]*x^j = exp(x), an
    equation of degree len(alpha) - 1.

    alpha[0] > 1 guarantees at least one positive root. Degree 0 and degree
    1 with a positive linear coefficient have a single root, log(alpha[0])
    and the Newton iteration of _linear_root. Where alpha[j] >= -1/j! for
    every j >= 2 (tested exactly, see _is_concave), the residual is concave
    on x >= 0 and positive at 0, so it has a single root too, which
    _concave_root finds by a monotone Newton iteration; these RootSets are
    `unique`. Everything else goes to the Rolle isolation of poly_exp_roots.
    Its derivative levels do not involve alpha[0], so the last isolation's
    are kept, and a solve with the same alpha[1:] (one Bennett ensemble at
    another threshold) reuses them; a concave solve neither builds nor
    replaces them.
    """
    alpha = tuple(float(a) for a in alpha)
    if not alpha:
        raise DomainError("need at least the coefficient alpha[0]; got none")
    if not alpha[0] > 1.0:
        raise PreconditionError(
            f"alpha[0] must exceed 1 for a positive root to exist; "
            f"got {alpha[0]}")

    # trailing zero coefficients do not change the equation
    while len(alpha) > 1 and alpha[-1] == 0.0:
        alpha = alpha[:-1]

    if len(alpha) == 1:
        return RootSet((math.log(alpha[0]),), True)
    if len(alpha) == 2 and alpha[1] > 0.0:
        return RootSet((_linear_root(*alpha),), True)
    if _is_concave(alpha):
        root = _concave_root(alpha)
        if root is not None:
            return RootSet((root,), True)
    global _last_levels
    levels = _last_levels
    if levels is None or levels[0] != alpha[1:]:
        levels = _derivative_levels(alpha)
    roots = _last_level(alpha, levels)
    _last_levels = levels
    return roots


def _linear_root(a0, a1):
    """The root of a0 - a1*y = exp(y) for a0 > 1 and a1 > 0.

    It is z - W(exp(z)/a1) with z = a0/a1 and Lambert's W, and lies below
    both log(a0) and (a0 - 1)/a1. On (0, a0/a1), h(y) = y - log(a0 - a1*y)
    is increasing and convex, so Newton's method on h from the smaller of
    the two falls monotonically onto the root; it ends when a step no
    longer lowers y, which floats being finite makes certain. Taking the
    log as log1p(a0 - 1 - a1*y) keeps small roots to a few ulp. Where
    a0 - a1*y rounds to <= 0 (a1*y can round past a huge a0), the step is
    Newton's on the concave, decreasing a0 - a1*y - exp(y) instead, which
    falls monotonically too. A coefficient that is not finite gives a root
    of 0 or inf, which RootSet rejects.
    """
    y = min(math.log(a0), (a0 - 1.0) / a1)
    while True:
        u = a0 - 1.0 - a1 * y
        if u > -1.0:
            y_next = y - (y - math.log1p(u)) * (1.0 + u) / (1.0 + u + a1)
        else:
            e = _exp(y)
            y_next = y - (e - 1.0 - u) / (e + a1)
        if not y_next < y:
            return y
        y = y_next


def _inverse_factorial_floors() -> tuple[float, ...]:
    """The largest float at most 1/j!, for j = 0, 1, ... up to the first
    that is 0. A true division of ints rounds correctly, and each rounding
    is checked exactly against 1/j! in integers."""
    floors = []
    fact = 1
    while not floors or floors[-1] > 0.0:
        f = 1 / fact
        while True:
            num, den = f.as_integer_ratio()
            if num * fact <= den:
                break
            f = math.nextafter(f, 0.0)
        floors.append(f)
        fact *= len(floors)
    return tuple(floors)


_INV_FACT_FLOORS = _inverse_factorial_floors()


def _is_concave(alpha) -> bool:
    """Whether alpha[j] >= -1/j! for every j >= 2, tested exactly: -alpha[j]
    against a float at most 1/j! (0 once 1/j! underflows).

    Then c_j = alpha[j] + 1/j! >= 0, and the residual's second derivative
    -sum_{j>=2} j (j-1) c_j x^(j-2) - sum_{j>q} x^(j-2)/(j-2)! (q the
    degree) is negative on x >= 0: the residual is concave there. With
    f(0) = alpha[0] - 1 > 0 and f -> -inf, it has exactly one positive root
    (Descartes' rule of signs for the power series of -f).
    """
    floors = _INV_FACT_FLOORS
    for j in range(2, len(alpha)):
        if not -alpha[j] <= (floors[j] if j < len(floors) else 0.0):
            return False
    return True


def _concave_root(alpha):
    """The one positive root of a residual that _is_concave certifies, or
    None where the iteration below cannot run on finite values and a
    negative slope.

    The right end y doubles from 1 until f(y) < 0. Past the root a concave
    f is negative and decreasing, and its tangent lies above it, so each
    Newton step falls onto the root from the right without passing it. The
    iteration ends once f(y) rounds to >= 0 or a step no longer lowers y,
    which floats being finite makes certain, and returns that last step,
    taken in either direction: a step from within rounding of the root
    leaves no error but that of f(y) itself. f is evaluated through this
    module's global poly_exp_residual, as in the Rolle path.
    """
    y = 1.0
    while True:
        f = poly_exp_residual(alpha, y)
        if f < 0.0:
            break
        y *= 2.0
        if y > 1024.0:
            return None
    # f'(y), as the Rolle path's first derivative level evaluates it
    df = partial(_poly_minus_exp, [-j * alpha[j] for j in range(1, len(alpha))])
    while True:
        slope = df(y)
        if not (-math.inf < f < math.inf and -math.inf < slope < 0.0):
            return None
        y_next = y - f / slope
        if not (f < 0.0 and 0.0 < y_next < y):
            return y_next if y_next > 0.0 else y
        y = y_next
        f = poly_exp_residual(alpha, y)


def poly_exp_residual(alpha, x: float) -> float:
    """alpha[0] - sum_j alpha[j]*x^j - exp(x) for j = 1..len(alpha)-1.

    The generic solver evaluates it through this module's global name, so
    wrapping that name sees every evaluation.
    """
    q = len(alpha) - 1
    poly = 0.0
    for j in range(q, 0, -1):
        poly = (poly + alpha[j]) * x
    return alpha[0] - poly - _exp(x)


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


def poly_exp_roots(alpha) -> RootSet:
    """Every positive root of poly_exp_residual(alpha, x), ascending: the
    generic solver, and the reference the closed forms are tested against.

    Rolle isolation: with q = len(alpha) - 1, the (q+1)-th derivative of
    the residual f is -exp(x) < 0, so f^(q) is decreasing and each root of
    f^(k+1) is a turning point of f^(k). The right end X doubles from 1
    until f, f', ..., f^(q) are all negative there, which keeps all of
    them negative past X. Going down from k = q to 0, the roots of
    f^(k+1) in (0, X) split [0, X] into pieces on which f^(k) is
    monotone, and each piece holds at most one sign change of f^(k).
    Raises SolverFailureError if no right end is certified below x = 1024.
    """
    return _last_level(alpha, _derivative_levels(alpha))


def _derivative_levels(alpha):
    """The part of poly_exp_roots that alpha[0] does not enter, as
    (alpha[1:], derivs, turning). derivs[k - 1] evaluates f^(k) for
    k = 1..q+1: a polynomial (constant term first) minus exp(x), an empty
    one for f^(q+1) = -exp(x). turning maps each right end X tried to the
    roots of f' in (0, X), levels q..1 of the isolation, or to False where
    f', ..., f^(q) are not all negative at X; it fills as solves need it.
    """
    derivs = []
    coeffs = [-i * alpha[i] for i in range(1, len(alpha))]
    for _ in alpha:
        derivs.append(partial(_poly_minus_exp, coeffs))
        coeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
    return alpha[1:], derivs, {}


def _last_level(alpha, levels):
    # the roots of f itself, below the right end poly_exp_roots describes;
    # the derivative half of its test comes from the levels, so once they
    # have seen a right end only f is evaluated there
    _, derivs, known = levels
    f = partial(poly_exp_residual, alpha)
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
                f"no right end certifies the roots of alpha={alpha} below x=1024")
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
