"""Scalar special functions used by the bound formulas.

Series tails of the exponential, Lambert W, the scaled Gaussian tail, and
the solver for the positive roots of alpha_0 - sum_j alpha_j x^j = exp(x)
with its RootSet result type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import DomainError, PreconditionError, SolverFailureError

_EPS = 2.220446049250313e-16
_EXP_MAX = 709.782712893384
_INV_E = 0.36787944117144233
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RootSet:
    """Positive solutions of alpha0 - sum_j alpha_j x^j = exp(x).

    roots are ascending; `unique` is True only when uniqueness is known
    analytically (degree <= 1, or the caller asserted the sign condition
    that forces a single crossing).
    """

    roots: tuple[float, ...]
    unique: bool

    def __post_init__(self):
        if not self.roots:
            raise SolverFailureError("empty root set")
        if any(r <= 0.0 for r in self.roots):
            raise SolverFailureError(f"non-positive root in {self.roots}")


def _exp(x):
    # math.exp raises OverflowError instead of returning inf; saturate.
    if x > _EXP_MAX:
        return math.inf
    return math.exp(x)


def taylor_remainder(p: int, x: float) -> float:
    """Tail of the exponential series: exp(x) - sum_{j=0}^{p-2} x^j/j!.

    taylor_remainder(1, x) is exp(x) itself (empty polynomial). For
    |x| <= p/2 the tail series sum_{j>=p-1} x^j/j! is summed directly,
    which avoids the cancellation of exp(x) against the polynomial; the
    terms then shrink by at least a factor 2 per step so the alternating
    case is stable too.
    """
    if not isinstance(p, int) or p < 1:
        raise DomainError(f"order must be a positive integer; got {p!r}")
    x = float(x)
    if abs(x) <= 0.5 * p:
        # first tail term x^(p-1)/(p-1)!, built incrementally to dodge
        # overflow of x**(p-1) and factorial separately
        term = 1.0
        for j in range(1, p):
            term *= x / j
        total = term
        j = p - 1
        while True:
            j += 1
            term *= x / j
            total += term
            if abs(term) <= _EPS * abs(total) or j > p + 400:
                return total
    poly = 0.0
    term = 1.0
    for j in range(p - 1):
        poly += term
        term *= x / (j + 1)
    return _exp(x) - poly


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W: the w >= -1 with w*exp(w) = x.

    Series guess near the branch point, log-based guesses elsewhere, then
    Halley iterations until the defining residual w*exp(w)-x converges.
    """
    x = float(x)
    if x < -_INV_E:
        if x < -_INV_E - 1e-12:
            raise DomainError(
                f"lambert_w0 requires x >= -1/e; got {x}")
        x = -_INV_E
    if x == 0.0:
        return 0.0
    if x > 1e300:
        # w*exp(w) would overflow during iteration; solve in log form
        return _w_log_newton(math.log(x))
    if x < -0.3178794411714423:
        # branch-point expansion: w ~ -1 + sqrt(2(e*x+1))
        w = math.sqrt(5.43656365691809 * x + 2.0) - 1.0
    elif x < 3.0:
        w = math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    tol = 1e-14 * max(abs(x), 1e-290)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= _EPS * (1.0 + abs(w)):
            break
    return w


def _w_log_newton(u):
    # unique w > 0 with w + log(w) = u; only called for large u
    w = u - math.log(u)
    for _ in range(50):
        f = w + math.log(w) - u
        dw = f * w / (w + 1.0)
        w -= dw
        if abs(dw) <= _EPS * w:
            break
    return w


def lambert_w0_exp(u: float) -> float:
    """W(exp(u)), stable for arguments where exp(u) would overflow."""
    u = float(u)
    if u <= 690.0:
        return lambert_w0(_exp(u))
    return _w_log_newton(u)


def mills_theta(x: float) -> float:
    """Scaled Gaussian upper-tail mass exp(x^2/2) * P(Z >= x) for Z ~ N(0,1).

    Evaluated through the scaled complementary error function, so there is
    no overflow for large x. Satisfies
    1/(sqrt(2*pi)*(1+x)) <= theta(x) <= 1/(sqrt(2*pi)*x) for x > 0.
    """
    # imported here: scipy.special costs about 25 MiB and 0.3 s to import
    from scipy.special import erfcx

    x = float(x)
    if x < 0.0:
        raise DomainError(f"mills_theta requires x >= 0; got {x}")
    return 0.5 * float(erfcx(x / _SQRT2))


def solve_poly_exp(alpha, q: int | None = None, *, assume_unique: bool = False,
                   method: str = "auto") -> RootSet:
    """Positive roots of alpha[0] - sum_{j=1}^{q} alpha[j]*x^j = exp(x).

    alpha[0] > 1 guarantees at least one positive root. Degree 0 and degree
    1 with a positive linear coefficient have closed forms (log and Lambert
    W). Everything else goes to the generic solver, which isolates every
    root by Rolle's theorem and refines each by safeguarded Newton steps;
    the root set holds the sign changes of the residual and any point where
    it is exactly zero. Pass method="scan" to force the generic solver even
    where a closed form exists (used for cross-validation).

    assume_unique marks the result as provably single-rooted; use it only
    when the coefficient sign condition for a monotone residual holds.
    """
    alpha = tuple(float(a) for a in alpha)
    if q is None:
        q = len(alpha) - 1
    if q < 0 or len(alpha) != q + 1:
        raise DomainError(
            f"need {q + 1} coefficients for degree {q}; got {len(alpha)}")
    if not alpha[0] > 1.0:
        raise PreconditionError(
            f"alpha[0] must exceed 1 for a positive root to exist; "
            f"got {alpha[0]}")
    if method not in ("auto", "scan"):
        raise DomainError(f"unknown method {method!r}")

    # trailing zero coefficients do not change the equation
    while q >= 1 and alpha[q] == 0.0:
        alpha = alpha[:q]
        q -= 1

    if method == "auto":
        if q == 0:
            root = math.log(alpha[0])
            return RootSet((root,), True)
        if q == 1 and alpha[1] > 0.0:
            z = alpha[0] / alpha[1]
            root = z - lambert_w0_exp(z - math.log(alpha[1]))
            return RootSet((root,), True)

    roots = _poly_exp_roots(alpha)
    if roots is None:
        raise SolverFailureError(
            f"no right end certifies the roots of alpha={alpha} below x=1024")
    unique = assume_unique or q == 0 or (q == 1 and alpha[1] > 0.0)
    return RootSet(tuple(roots), unique)


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


def _poly_exp_roots(alpha):
    """All positive roots of poly_exp_residual(alpha, x), ascending, or
    None if no right end is certified below x = 1024.

    Rolle isolation: with q = len(alpha) - 1, the (q+1)-th derivative of
    the residual f is -exp(x) < 0, so f^(q) is decreasing and each root of
    f^(k+1) is a turning point of f^(k). The right end X doubles from 1
    until f, f', ..., f^(q) are all negative there, which keeps all of
    them negative past X. Going down from k = q to 0, the roots of
    f^(k+1) in (0, X) split [0, X] into pieces on which f^(k) is
    monotone, and each piece holds at most one sign change of f^(k).
    """
    # fns[k] evaluates f^(k); past f itself, each is a polynomial (constant
    # term first) minus exp(x), and f^(q+1) = -exp(x) has an empty one
    fns = [partial(poly_exp_residual, alpha)]
    coeffs = [-i * alpha[i] for i in range(1, len(alpha))]
    for _ in alpha:
        fns.append(partial(_poly_minus_exp, coeffs))
        coeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
    x_end = 1.0
    while not all(fn(x_end) < 0.0 for fn in fns[:-1]):
        x_end *= 2.0
        if x_end > 1024.0:
            return None
    turning = []
    for k in range(len(alpha) - 1, -1, -1):
        turning = _sign_change_roots(fns[k], fns[k + 1], [0.0, *turning, x_end])
    return turning


# perfbench/tracing.py finds poly_exp_residual at this module path in
# sys.modules, so the alias must be loaded whenever this module is
from ._kernels import _pyfallback
