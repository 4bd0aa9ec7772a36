"""Deviation bounds of Bennett type for variables bounded above.

With aggregated moment upper bounds mu^k = sum_i mu_i^k (and mu^p bounding
the summed positive parts E max(X_i^p, 0)), the bound on
P(S_n - E S_n >= t) is

    exp( max_{y in roots} [ t/b - (t/b + mu2/b^2) y
         + sum_{j=2}^{p-1} (mu^j/(b^j j!) - mu^{j+1}/(b^{j+1} j!)) y^j ] )

where the roots are the positive solutions of the degree-(p-2) equation
a - sum_{j=1}^{p-2} c_j y^j = sum_{j>p-2} y^j/j!, with a = t b^{p-1}/mu^p
and c_j = b^{p-j-1} mu^{j+1}/(mu^p j!). The record shows it in the paper's
form alpha_0 - sum_j alpha_j y^j = e^y, alpha_0 = 1 + a and
alpha_j = c_j - 1/j!. p = 2 collapses to the classical second-moment bound
(single root log1p(a)). At p = 3 the paper's closed form is
y = z - W(e^z / alpha_1) with z = alpha_0/alpha_1 and W Lambert's
function; the solver finds that root by a monotone Newton iteration on the
degree-1 equation, which loses no digits where a or c_1 is small, and the
bound is never worse than at p = 2.
"""

from __future__ import annotations

import math
from operator import is_
from typing import Sequence

from ._record import Record, setfield
from .errors import FLOAT_RANGE_ERRORS, DegenerateDistributionError, DomainError
from .moments import (
    EnsembleSpec,
    checked_threshold,
    restrict_order,
    weighted_sum,
)
from .special import RootSet, alpha_form, solve_poly_exp

__all__ = ["BennettBound", "bennett_bound"]


class BennettBound(Record):
    """One bound evaluation with the transcendental-equation bookkeeping.

    alpha lists the equation coefficients alpha_0..alpha_{p-2}; y_star is
    the root that maximizes the inner expression; aggregated_moments holds
    the summed mu^2..mu^p actually used; b is the common upper bound.
    """

    __slots__ = _fields = ("t", "p", "bound", "alpha", "roots", "y_star",
                           "aggregated_moments", "b")

    def __init__(self, t: float, p: int, bound: float,
                 alpha: tuple[float, ...], roots: RootSet, y_star: float,
                 aggregated_moments: tuple[float, ...], b: float):
        setfield(self, "t", t)
        setfield(self, "p", p)
        setfield(self, "bound", bound)
        setfield(self, "alpha", alpha)
        setfield(self, "roots", roots)
        setfield(self, "y_star", y_star)
        setfield(self, "aggregated_moments", aggregated_moments)
        setfield(self, "b", b)

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


def aggregate_moments(spec: EnsembleSpec, p: int) -> tuple[float, tuple[float, ...]]:
    """Common upper bound b and summed (mu^2, ..., mu^p) across variables.

    The final entry sums the positive-part p-th moments, which is what the
    bound needs for variables unbounded below. Each group contributes its
    moments times its multiplicity.
    """
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"order p must be an integer >= 2; got {p!r}")
    variables = [restrict_order(v, p) for v in spec.vectors]
    uppers = [v.support.upper for v in variables]
    b = uppers[0]
    # equal uppers (the common case) need no tolerance
    if uppers.count(b) != len(uppers):
        for upper in uppers[1:]:
            if abs(upper - b) > 1e-12 * max(abs(b), 1.0):
                raise DomainError(
                    f"all variables must share one upper bound; got {b} and "
                    f"{upper}")
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


def _threshold_free(t: float, b: float, p: int, agg: Sequence[float]):
    """The part of a bound that t does not enter: the root equation's
    c_1..c_{p-2}, their alpha form for the record, and the rate's
    coefficients mu^2/b^2 and mu^j/(b^j j!) - mu^{j+1}/(b^{j+1} j!) for
    j = 2..p-1. A rate coefficient out of the float range is NaN, which
    _build reports once the roots are known."""
    # agg[k-2] = mu^k for k = 2..p
    mu_p = agg[-1]
    try:
        c = []
        fact = 1.0
        for j in range(1, p - 1):
            fact *= j
            c.append(b ** (p - j - 1) * agg[j - 1] / (mu_p * fact))
        finite = all(map(math.isfinite, c))
    except FLOAT_RANGE_ERRORS:
        finite = False
    if not finite:
        raise _out_of_range(t, b, agg)
    try:
        rate = [agg[0] / b ** 2]
        fact = 1.0
        for j in range(2, p):
            fact *= j
            rate.append(agg[j - 2] / (b ** j * fact)
                        - agg[j - 1] / (b ** (j + 1) * fact))
    except FLOAT_RANGE_ERRORS:
        rate = [math.nan] * (p - 1)
    return tuple(c), alpha_form(c), rate


def _leading(t: float, b: float, p: int, agg: Sequence[float]) -> float:
    """a = t b^{p-1}/mu^p, the one coefficient of the equation that t
    enters."""
    try:
        a = t * b ** (p - 1) / agg[-1]
    except FLOAT_RANGE_ERRORS:
        a = math.inf
    if not math.isfinite(a):
        raise _out_of_range(t, b, agg)
    return a


def _out_of_range(t, b, agg) -> DomainError:
    return DomainError(
        f"root-equation coefficients leave the float range for t = {t}, "
        f"b = {b} and summed moments {tuple(agg)}")


# The last bennett_bound call that returned, as (vectors, counts, p, b,
# agg, c, alpha, rate) with alpha = alpha_1..alpha_{p-2} and the rest as
# _threshold_free gives them: a call on the same vector objects, counts and
# order reuses all but the first three, which do not depend on t. It keeps
# those vectors alive, with any sample arrays they hold, until another call
# replaces it. A call that raises keeps nothing.
_last = None


def _kept(spec: EnsembleSpec, p: int):
    """The kept call if it was on spec's vectors and order p, else None.
    Vectors are matched by identity, as EnsembleSpec groups them; the first
    one alone turns most other ensembles away. p must be an int, so that
    p = 3.0 still fails its check."""
    last = _last
    if (type(p) is int and last is not None and last[2] == p
            and last[0][0] is spec.vectors[0]
            and all(map(is_, last[0], spec.vectors)) and last[1] == spec.counts):
        return last
    return None


def _inner_expression(y: float, t: float, b: float, p: int,
                      agg: Sequence[float], rate: Sequence[float]) -> float:
    if p == 2:
        # at y = log1p(u), u = t b / mu2, the value is -(mu2/b^2) h(u); for
        # a small u the terms t/b and (t/b + mu2/b^2) y below cancel
        u = t * b / agg[0]
        if u < 0.1:
            return -rate[0] * _small_h(u)
    total = t / b - (t / b + rate[0]) * y
    for j in range(2, p):
        total += rate[j - 1] * y ** j
    return total


def _small_h(u: float) -> float:
    """h(u) = (1 + u) log(1 + u) - u for 0 < u < 0.1, where the difference
    cancels. With z = u / (2 + u), log(1 + u) = 2 atanh(z) and
    h = 2 z (z + (1 + z) sum_{k>=1} z^(2k) / (2k + 1)) / (1 - z), a sum of
    positive terms. z < 0.048, so the terms after k = 6 are below 1e-18 of
    the whole."""
    z = u / (2.0 + u)
    w = z * z
    s = w * (1 / 3 + w * (1 / 5 + w * (1 / 7
             + w * (1 / 9 + w * (1 / 11 + w / 13)))))
    return 2.0 * z * (z + (1.0 + z) * s) / (1.0 - z)


def _build(t, b, p, agg, alpha, rate, roots) -> BennettBound:
    try:
        values = [_inner_expression(y, t, b, p, agg, rate)
                  for y in roots.roots]
        finite = all(map(math.isfinite, values))
    except FLOAT_RANGE_ERRORS:
        finite = False
    if not finite:
        raise DomainError(f"the rate at the roots {roots.roots} leaves the "
                          f"float range for t = {t} and b = {b}")
    best = values.index(max(values))
    # exp(min(v, 0)) is min(e^v, 1), without overflow for a huge v; the
    # fields in order t, p, bound, alpha, roots, y_star, moments, b
    return BennettBound(t, p, math.exp(min(values[best], 0.0)), alpha, roots,
                        roots.roots[best], tuple(agg), b)


def bennett_bound(spec: EnsembleSpec, t: float, p: int) -> BennettBound:
    """Deviation bound from the first p moments, p >= 2.

    Only a depends on t. A call on the same vector objects, counts and
    order as the last call that returned reuses its b, aggregated moments,
    c_1..c_{p-2} and rate coefficients, and the root solver its derivative
    levels; every record is the one a fresh call gives.
    """
    global _last
    t = checked_threshold(t)
    last = _kept(spec, p)
    if last is None:
        b, agg = aggregate_moments(spec, p)
        kept = (b, agg, *_threshold_free(t, b, p, agg))
    else:
        kept = last[3:]
    b, agg, c, alpha, rate = kept
    a = _leading(t, b, p, agg)
    result = _build(t, b, p, agg, (1.0 + a, *alpha), rate,
                    solve_poly_exp((a, *c)))
    _last = (spec.vectors, spec.counts, p, *kept)
    return result
