"""Scalar special functions used by the bound formulas.

The numerical work lives in the kernel module; this module adds argument
validation, the closed-form branches of the exponential-polynomial root
solver, and the RootSet result type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import _pyfallback as _kernels
from .errors import DomainError, PreconditionError, SolverFailureError

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


def taylor_remainder(p: int, x: float) -> float:
    """Tail of the exponential series: exp(x) - sum_{j=0}^{p-2} x^j/j!.

    taylor_remainder(1, x) is exp(x) itself (empty polynomial).
    """
    _check_order(p)
    return _kernels.taylor_remainder(p, float(x))


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W: the w >= -1 with w*exp(w) = x."""
    x = float(x)
    if x < -_INV_E:
        if x < -_INV_E - 1e-12:
            raise DomainError(
                f"lambert_w0 requires x >= -1/e; got {x}")
        x = -_INV_E
    return _kernels.lambert_w0(x)


def lambert_w0_exp(u: float) -> float:
    """W(exp(u)), stable for arguments where exp(u) would overflow."""
    return _kernels.lambert_w0_exp(float(u))


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
            root = z - _kernels.lambert_w0_exp(z - math.log(alpha[1]))
            return RootSet((root,), True)

    roots = _kernels.poly_exp_roots(alpha)
    if roots is None:
        raise SolverFailureError(
            f"no right end certifies the roots of alpha={alpha} below x=1024")
    unique = assume_unique or q == 0 or (q == 1 and alpha[1] > 0.0)
    return RootSet(tuple(roots), unique)


def poly_exp_residual(alpha, x: float) -> float:
    """Defining residual of the poly-exp equation at x (for diagnostics)."""
    return _kernels.poly_exp_residual(tuple(float(a) for a in alpha), float(x))


def _check_order(p):
    if not isinstance(p, int) or p < 1:
        raise DomainError(f"order must be a positive integer; got {p!r}")
