"""Deviation bounds of Bennett type for variables bounded above.

With aggregated moment upper bounds mu^k = sum_i mu_i^k (and mu^p bounding
the summed positive parts E max(X_i^p, 0)), the bound on
P(S_n - E S_n >= t) is

    exp( max_{y in roots} [ t/b - (t/b + mu2/b^2) y
         + sum_{j=2}^{p-1} (mu^j/(b^j j!) - mu^{j+1}/(b^{j+1} j!)) y^j ] )

where the roots are the positive solutions of the degree-(p-2)
exponential-polynomial equation with coefficients alpha_0 = 1 + t b^{p-1}/mu^p
and alpha_j = b^{p-j-1} mu^{j+1}/(mu^p j!) - 1/j!. p = 2 collapses to the
classical second-moment bound (single root log(alpha_0)); p = 3 has a
closed form through the Lambert W function and is never worse than p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    FLOAT_RANGE_ERRORS,
    DegenerateDistributionError,
    DomainError,
    InternalConsistencyError,
    OrderError,
    PreconditionError,
)
from .moments import (
    EnsembleSpec,
    checked_threshold,
    restrict_order,
    weighted_sum,
)
from .special import (
    RootSet,
    lambert_w0_exp,
    poly_exp_residual,
    solve_poly_exp,
)


@dataclass(frozen=True)
class BennettBound:
    """One bound evaluation with the transcendental-equation bookkeeping.

    alpha lists the equation coefficients alpha_0..alpha_{p-2}; y_star is
    the root that maximizes the inner expression; aggregated_moments holds
    the summed mu^2..mu^p actually used; b is the common upper bound.
    """

    t: float
    p: int
    bound: float
    alpha: tuple[float, ...]
    roots: RootSet
    y_star: float
    aggregated_moments: tuple[float, ...]
    b: float

    @property
    def residual(self) -> float:
        """Equation residual at y_star, scaled by 1 + exp(y_star)."""
        raw = poly_exp_residual(self.alpha, self.y_star)
        return abs(raw) / (1.0 + math.exp(min(self.y_star, 700.0)))

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "p": self.p,
            "bound": self.bound,
            "alpha": list(self.alpha),
            "roots": list(self.roots.roots),
            "y_star": self.y_star,
            "b": self.b,
            "aggregated_moments": list(self.aggregated_moments),
            "roots_unique": self.roots.unique,
            "residual": self.residual,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BennettBound":
        roots = RootSet(tuple(float(r) for r in d["roots"]),
                        bool(d["roots_unique"]))
        return cls(
            t=float(d["t"]), p=int(d["p"]), bound=float(d["bound"]),
            alpha=tuple(float(a) for a in d["alpha"]), roots=roots,
            y_star=float(d["y_star"]),
            aggregated_moments=tuple(float(m) for m in d["aggregated_moments"]),
            b=float(d["b"]),
        )


@dataclass(frozen=True)
class TightnessComparison:
    """Third-moment bound next to the classical second-moment bound."""

    t: float
    bound_p2: float
    bound_p3: float

    @property
    def improvement(self) -> float:
        return self.bound_p2 - self.bound_p3


def aggregate_moments(spec: EnsembleSpec, p: int) -> tuple[float, tuple[float, ...]]:
    """Common upper bound b and summed (mu^2, ..., mu^p) across variables.

    The final entry sums the positive-part p-th moments, which is what the
    bound needs for variables unbounded below. Each group contributes its
    moments times its multiplicity.
    """
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"order p must be an integer >= 2; got {p!r}")
    variables = [restrict_order(v, p) for v in spec.vectors]
    b = variables[0].support.upper
    for v in variables[1:]:
        if abs(v.support.upper - b) > 1e-12 * max(abs(b), 1.0):
            raise DomainError(
                f"all variables must share one upper bound; got {b} and "
                f"{v.support.upper}")
    if b <= 0.0:
        raise DomainError(f"the common upper bound must be positive; got {b}")
    # columns of mu^2..mu^{p-1} across the groups, then the positive parts
    agg = [weighted_sum(column, spec.counts)
           for column in zip(*[v.mu[1:-1] for v in variables])]
    agg.append(weighted_sum([v.positive_part_pth for v in variables], spec.counts))
    if agg[-1] <= 0.0:
        raise DegenerateDistributionError(
            f"summed positive-part moment of order {p} must be positive; "
            f"got {agg[-1]}")
    return b, tuple(agg)


def _alpha_coefficients(t: float, b: float, p: int,
                        agg: Sequence[float]) -> tuple[float, ...]:
    # agg[k-2] = mu^k for k = 2..p
    mu_p = agg[-1]
    try:
        alpha = [1.0 + t * b ** (p - 1) / mu_p]
        fact = 1.0
        for j in range(1, p - 1):
            fact *= j
            alpha.append(
                b ** (p - j - 1) * agg[j - 1] / (mu_p * fact) - 1.0 / fact)
        finite = all(map(math.isfinite, alpha))
    except FLOAT_RANGE_ERRORS:
        finite = False
    if not finite:
        raise DomainError(
            f"root-equation coefficients leave the float range for t = {t}, "
            f"b = {b} and summed moments {tuple(agg)}")
    return tuple(alpha)


def _inner_expression(y: float, t: float, b: float, p: int,
                      agg: Sequence[float]) -> float:
    total = t / b - (t / b + agg[0] / b ** 2) * y
    fact = 1.0
    for j in range(2, p):
        fact *= j
        coeff = agg[j - 2] / (b ** j * fact) - agg[j - 1] / (b ** (j + 1) * fact)
        total += coeff * y ** j
    return total


def _build(t, b, p, agg, alpha, roots) -> BennettBound:
    try:
        values = [_inner_expression(y, t, b, p, agg) for y in roots.roots]
        finite = all(map(math.isfinite, values))
    except FLOAT_RANGE_ERRORS:
        finite = False
    if not finite:
        raise DomainError(f"the rate at the roots {roots.roots} leaves the "
                          f"float range for t = {t} and b = {b}")
    best = max(range(len(values)), key=values.__getitem__)
    return BennettBound(
        # exp(min(v, 0)) is min(e^v, 1), without overflow for a huge v
        t=t, p=p, bound=math.exp(min(values[best], 0.0)), alpha=alpha,
        roots=roots, y_star=roots.roots[best], aggregated_moments=tuple(agg),
        b=b)


def bennett_bound(spec: EnsembleSpec, t: float, p: int, *,
                  root_method: str = "auto") -> BennettBound:
    """Deviation bound from the first p moments, p >= 2.

    root_method="scan" forces the generic root solver even where the root
    has a closed form; used to cross-validate the closed forms.
    """
    t = checked_threshold(t)
    b, agg = aggregate_moments(spec, p)
    alpha = _alpha_coefficients(t, b, p, agg)
    roots = solve_poly_exp(alpha, p - 2, method=root_method)
    return _build(t, b, p, agg, alpha, roots)


def bennett_p3_lambert(spec: EnsembleSpec, t: float) -> BennettBound:
    """Closed-form three-moment bound through the Lambert W function.

    Requires the positive-part third moments to be exact (not mere upper
    bounds), which forces alpha_1 = b*mu2/mu3 - 1 >= 0. alpha_1 = 0 makes
    the quadratic term vanish and the bound reduces to the second-moment
    form; otherwise the unique root is alpha0/alpha1 - W(e^{alpha0/alpha1}
    / alpha1), evaluated in log form when the exponential would overflow.
    """
    t = checked_threshold(t)
    b, agg = aggregate_moments(spec, 3)
    mu2, mu3 = agg
    alpha = _alpha_coefficients(t, b, 3, agg)
    a0, a1 = alpha
    if a1 < 0.0:
        raise PreconditionError(
            f"b*mu2 >= mu3 must hold for exact positive-part third moments; "
            f"got b*mu2 = {b * mu2}, mu3 = {mu3}")
    if a1 == 0.0:
        y = math.log(a0)
    else:
        z = a0 / a1
        y = z - lambert_w0_exp(z - math.log(a1))
    # backward-error scale: the subtraction alpha0 - alpha1*y is itself only
    # accurate to eps times the magnitude of its operands
    scale = 1.0 + a0 + a1 * abs(y) + math.exp(min(y, 700.0))
    if abs(poly_exp_residual(alpha, y)) > 1e-10 * scale:
        raise InternalConsistencyError(
            f"closed-form root failed its residual check at y={y}")
    roots = RootSet((y,), True)
    return _build(t, b, 3, agg, alpha, roots)


def bennett_unique_root(spec: EnsembleSpec, t: float, p: int) -> BennettBound:
    """Bound under the sign condition that forces a single root.

    Odd aggregated moments of order 3..p-1 are floored at zero (a floored
    value is still a valid upper bound), after which the root solver must
    find exactly one solution; anything else indicates a numerical fault.
    """
    t = checked_threshold(t)
    b, agg = aggregate_moments(spec, p)
    agg = tuple(
        max(m, 0.0) if (k % 2 == 1 and 3 <= k <= p - 1) else m
        for k, m in zip(range(2, p + 1), agg)
    )
    alpha = _alpha_coefficients(t, b, p, agg)
    roots = solve_poly_exp(alpha, p - 2, assume_unique=True)
    if len(roots.roots) != 1:
        raise InternalConsistencyError(
            f"expected a single root under the odd-moment sign condition; "
            f"solver found {list(roots.roots)}")
    return _build(t, b, p, agg, alpha, roots)


def bennett_tightness_check(spec: EnsembleSpec, t: float) -> TightnessComparison:
    """Both the second- and third-moment bounds, with the ordering checked.

    Assumes the supplied second and positive-part third moments are exact;
    then the three-moment bound can never exceed the classical one.
    """
    t = checked_threshold(t)
    for v in spec.vectors:
        if v.p < 3:
            raise OrderError("the comparison needs third moments")
    p2 = bennett_bound(spec, t, 2)
    p3 = bennett_p3_lambert(spec, t)
    if p3.bound > p2.bound + 1e-12:
        raise InternalConsistencyError(
            f"three-moment bound {p3.bound} exceeds two-moment bound "
            f"{p2.bound}")
    return TightnessComparison(t=t, bound_p2=p2.bound, bound_p3=p3.bound)
