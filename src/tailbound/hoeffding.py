"""Deviation bounds of Hoeffding type, sharpened with higher moments.

For independent X_i on [0, b_i] the one-sided bound is

    P(S_n - E S_n >= t) <= exp(-2 t^2 / sum_i b_i^2 c_i)

where c_i is the closed-form improvement factor of variable i evaluated at
4*t*b_i/D_n, and D_n = sum_j (mu2_j/mu1_j)^2. Every c_i is in (0, 1], so the
result can only tighten the classical exp(-2 t^2 / sum b_i^2). Variants:
two-sided via shifted and reflected moments, identically-distributed form,
a small-deviation simplification, the all-moments limit driven by tilted
expectations, a missing-factor refinement of optimal order, and a sample
size calculator for confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .distributions import Distribution
from .errors import (
    FLOAT_RANGE_ERRORS,
    DegenerateDistributionError,
    DomainError,
    OrderError,
    PreconditionError,
)
from .mgf import c_factor_from_moments, i_measure
from .moments import (
    EnsembleSpec,
    MomentVector,
    checked_threshold,
    expand_runs,
    identity_runs,
    reflect_moments,
    restrict_order,
    shift_to_origin,
    weighted_sum,
)
from .special import mills_theta

MODES = ("one_sided", "two_sided", "iid", "small_t", "limit_p_infinity",
         "missing_factor")


@dataclass(frozen=True)
class HoeffdingBound:
    """One bound evaluation with its intermediate quantities.

    t is always the absolute deviation of the sum. p is None for the
    infinite-order (limit) mode. c_values holds the per-variable
    improvement factors actually used; s_star the optimizing exponent
    parameter; d_n the aggregate scale the factor arguments were based on
    (None when the inputs do not determine it).
    """

    t: float
    p: Optional[int]
    bound: float
    c_values: tuple[float, ...]
    d_n: Optional[float]
    s_star: float
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "p": self.p,
            "bound": self.bound,
            "c_values": list(self.c_values),
            "d_n": self.d_n,
            "s_star": self.s_star,
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HoeffdingBound":
        return cls(
            t=float(d["t"]),
            p=None if d["p"] is None else int(d["p"]),
            bound=float(d["bound"]),
            c_values=tuple(float(c) for c in d["c_values"]),
            d_n=None if d["d_n"] is None else float(d["d_n"]),
            s_star=float(d["s_star"]),
            mode=str(d["mode"]),
        )


def _checked_order(p) -> int:
    if not isinstance(p, int) or p < 1:
        raise DomainError(f"order p must be a positive integer; got {p!r}")
    return p


def _origin_groups(vectors, p: int):
    """Shift each group's vector to [0, width] once.

    Returns the shifted vectors trimmed to order p and their d values (None
    for a vector with fewer than two moments), one of each per group.
    """
    vs = []
    ds = []
    for mv in vectors:
        if mv.support.lower is None:
            raise DomainError(
                "these bounds need variables bounded on both sides")
        shifted = shift_to_origin(mv)
        v = restrict_order(shifted, p)
        v.require_positive_mean()
        vs.append(v)
        ds.append(_d_value(shifted) if shifted.p >= 2 else None)
    return vs, ds


def _d_value(mv: MomentVector) -> float:
    return (mv.mu[1] / mv.mu[0]) ** 2


def _cap(log_bound: float, factor: float = 1.0) -> float:
    # probabilities cannot exceed 1; keep everything in log space until here
    return min(factor * math.exp(log_bound), 1.0)


def _record(mode, t, p, cs, counts, n, d_n, denom,
            factor=1.0) -> HoeffdingBound:
    """The bound factor*exp(-2 t^2/denom) with its record, for
    denom = sum_i w_i^2 c_i over variables on [0, w_i].

    cs holds one factor per group and counts the group sizes; n is the
    number of c_values entries to report.
    """
    if denom == 0.0:
        raise DegenerateDistributionError(
            "sum_i b_i^2 c_i underflows to 0: the ranges are too narrow")
    return HoeffdingBound(
        t=t, p=p, bound=_cap(-2.0 * t * t / denom, factor),
        c_values=expand_runs(cs, counts, n), d_n=d_n, s_star=4.0 * t / denom,
        mode=mode)


def _range_error(exc: ArithmeticError) -> DomainError:
    # a range or moment so large or small that a power of it overflows, or
    # that a second moment it divides by underflows to 0
    return DomainError(f"the bound's factors leave the float range ({exc})")


def _one_sided(vectors, counts, t: float, p: int):
    """Per-group factors, d_n and sum_i b_i^2 c_i of the one-sided bound."""
    try:
        vs, ds = _origin_groups(vectors, p)
        d_n = None if None in ds else weighted_sum(ds, counts)
        if p == 1:
            cs = [1.0] * len(vs)
        else:
            cs = [c_factor_from_moments(4.0 * t * v.support.upper / d_n,
                                        v.support.upper, v.mu)
                  for v in vs]
        denom = weighted_sum(
            [v.support.upper ** 2 * c for v, c in zip(vs, cs)], counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    return cs, d_n, denom


def hoeffding_bound(spec: EnsembleSpec, t: float, p: int) -> HoeffdingBound:
    """One-sided bound on P(S_n - E(S_n) >= t) from the first p moments."""
    t = checked_threshold(t)
    p = _checked_order(p)
    cs, d_n, denom = _one_sided(spec.vectors, spec.counts, t, p)
    return _record("one_sided", t, p, cs, spec.counts, spec.n, d_n, denom)


def hoeffding_iid(mv: MomentVector, n: int, t: float, p: int) -> HoeffdingBound:
    """Bound on P(S_n - E(S_n) >= n*t) for n copies of one variable.

    The one-sided bound on a single group of n copies at threshold n*t;
    the record keeps the one factor c that every copy shares.
    """
    if n < 1:
        raise DomainError(f"need n >= 1; got {n}")
    t = checked_threshold(t)
    p = _checked_order(p)
    t_abs = n * t
    cs, d_n, denom = _one_sided((mv,), (n,), t_abs, p)
    return _record("iid", t_abs, p, cs, (1,), 1, d_n, denom)


def _two_sided(vectors, counts, t: float, p: int):
    """Per-group factors, d_n and sum_i w_i^2 c_i of the two-sided bound."""
    try:
        shifted, ds = _origin_groups(vectors, p)
        reflected = []
        for mv in vectors:
            r = restrict_order(reflect_moments(mv), p)
            r.require_positive_mean()
            reflected.append(r)
        if p == 1:
            cs = [1.0] * len(shifted)
            d_n = None
        else:
            d_n = weighted_sum(ds, counts)
            d_n_lam = weighted_sum([_d_value(r) for r in reflected], counts)
            cs = []
            for s, r in zip(shifted, reflected):
                w = s.support.upper
                cs.append(max(
                    c_factor_from_moments(4.0 * t * w / d_n, w, s.mu),
                    c_factor_from_moments(4.0 * t * w / d_n_lam, w, r.mu),
                ))
        denom = weighted_sum(
            [s.support.upper ** 2 * c for s, c in zip(shifted, cs)], counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    return cs, d_n, denom


def hoeffding_two_sided(variables: Sequence[MomentVector], t: float,
                        p: int) -> HoeffdingBound:
    """Bound on P(|sum Y_i - E sum Y_i| >= t) for Y_i on [a_i, b_i].

    Union bound over the two one-sided deviations; each variable
    contributes the larger of the factors computed from its shifted
    (Y - a) and reflected (b - Y) moments.
    """
    t = checked_threshold(t)
    p = _checked_order(p)
    spec = EnsembleSpec(variables)
    cs, d_n, denom = _two_sided(spec.vectors, spec.counts, t, p)
    return _record("two_sided", t, p, cs, spec.counts, spec.n, d_n, denom,
                   factor=2.0)


def hoeffding_small_t(mv: MomentVector, n: int, t: float, c: float,
                      p: int) -> HoeffdingBound:
    """Simplified i.i.d. bound exp(-2 n t^2 I_p^2) for small per-variable t.

    Valid when t <= c*(mu2/(2*mu1))^2; the informativeness measure I_p is
    evaluated at the fixed scale c instead of the t-dependent argument,
    which loosens the bound slightly but decouples it from t.
    """
    if n < 1:
        raise DomainError(f"need n >= 1; got {n}")
    t = checked_threshold(t)
    p = _checked_order(p)
    if mv.p < 2:
        raise OrderError(
            "the small-deviation precondition needs the second moment")
    v = restrict_order(mv, p)
    v.require_positive_mean()
    limit = c * (mv.mu[1] / (2.0 * mv.mu[0])) ** 2
    if t > limit * (1.0 + 1e-12):
        raise PreconditionError(
            f"small-deviation form needs t <= c*(mu2/(2*mu1))^2 = {limit}; "
            f"got t = {t}")
    ip = i_measure(v, c)
    t_abs = n * t
    c_eff = 1.0 / (ip * ip)
    return HoeffdingBound(
        t=t_abs, p=p, bound=_cap(-2.0 * n * t * t * ip * ip),
        c_values=(c_eff,), d_n=n * _d_value(restrict_order(mv, 2)),
        s_star=4.0 * t * ip * ip, mode="small_t")


def hoeffding_limit(dists: Sequence[Distribution], t: float) -> HoeffdingBound:
    """All-moments limit of the bound, driven by tilted expectations.

    Uses E X e^{lam X} and E X^2 e^{lam X} at lam = 4t/D_n; the per-variable
    range drops out entirely. Variables must be nonnegative. Consecutive
    references to one distribution object share one evaluation.
    """
    t = checked_threshold(t)
    if not dists:
        raise DomainError("need at least one distribution")
    laws, counts = identity_runs(tuple(dists))
    for d in laws:
        if not d.support.is_nonnegative:
            raise DomainError(
                f"{d.tag}: the limit bound needs nonnegative variables")
        if d.moment(1) <= 0.0:
            raise DegenerateDistributionError(
                f"{d.tag}: first moment must be positive")
    try:
        d_n = weighted_sum([(d.moment(2) / d.moment(1)) ** 2 for d in laws],
                           counts)
        lam = 4.0 * t / d_n
        if not math.isfinite(lam):
            raise DomainError(f"the tilt 4t/D_n = {lam} is not finite")
        ratios_sq = []
        for d in laws:
            first, second = d.tilted_first_second(lam)
            if first <= 0.0:
                raise DegenerateDistributionError(
                    f"{d.tag}: tilted first moment must be positive; "
                    f"got {first}")
            ratios_sq.append((second / first) ** 2)
        denom = weighted_sum(ratios_sq, counts)
        cs = [r / d.support.upper ** 2 for r, d in zip(ratios_sq, laws)]
    except FLOAT_RANGE_ERRORS as exc:
        raise DomainError(f"the limit bound leaves the float range at t = {t} "
                          f"({exc})") from None
    return _record("limit_p_infinity", t, None, cs, counts, len(dists), d_n,
                   denom)


def hoeffding_missing_factor(shifted: Sequence[MomentVector], t: float, p: int,
                             K: float = 1.0, *, sigma2: Optional[float] = None,
                             dn_squared: bool = False) -> HoeffdingBound:
    """Optimal-order bound for centered X_i with |X_i| <= b_i.

    Inputs are the moment vectors of Z_i = X_i + b_i on [0, 2 b_i] (so
    b_i = E Z_i). The exponential factor uses the improvement factors at
    8*t*b_i/D_n with scale 2*b_i; multiplying by the Gaussian-tail term
    theta(t/sigma) + K*b/sigma recovers the 1/x factor plain exponential
    bounds are missing. K is a free universal constant; validity of the
    admissible range t <= sigma^2/(K*b) depends on its true value.

    D_n here is sum_i mu2_i/mu1_i as printed in the source material;
    dn_squared=True switches to the squared convention used by the
    one-sided bound in case that reading is intended.
    """
    t = checked_threshold(t)
    p = _checked_order(p)
    if K <= 0.0:
        raise DomainError(f"K must be positive; got {K}")
    vectors, counts = identity_runs(tuple(shifted))
    vs = []
    bs = []
    for mv in vectors:
        v = restrict_order(mv, p)
        v.require_positive_mean()
        if not v.support.is_nonnegative:
            raise DomainError("pass the recentered variables X_i + b_i on [0, 2 b_i]")
        b_i = v.mu[0]
        if abs(v.support.upper - 2.0 * b_i) > 1e-9 * v.support.upper:
            raise DomainError(
                f"variables must be centered: expected E(X + b) = b = "
                f"upper/2 = {v.support.upper / 2.0}, got {b_i}")
        vs.append(v)
        bs.append(b_i)
    if sigma2 is None:
        if any(mv.p < 2 for mv in vectors):
            raise OrderError("deriving the variance needs second moments; "
                             "pass sigma2 explicitly")
        sigma2 = weighted_sum(
            [mv.mu[1] - b * b for mv, b in zip(vectors, bs)], counts)
    if sigma2 <= 0.0:
        raise DegenerateDistributionError(f"variance must be positive; got {sigma2}")
    sigma = math.sqrt(sigma2)
    b_max = max(bs)
    if t > sigma2 / (K * b_max) * (1.0 + 1e-12):
        raise PreconditionError(
            f"missing-factor form needs t <= sigma^2/(K*b) = "
            f"{sigma2 / (K * b_max)}; got t = {t}")
    try:
        if p == 1:
            cs = [1.0] * len(vs)
            d_n = None
            if all(mv.p >= 2 for mv in vectors):
                d_n = weighted_sum([mv.mu[1] / mv.mu[0] for mv in vectors],
                                   counts)
        else:
            if dn_squared:
                d_n = weighted_sum([(v.mu[1] / v.mu[0]) ** 2 for v in vs],
                                   counts)
            else:
                d_n = weighted_sum([v.mu[1] / v.mu[0] for v in vs], counts)
            cs = [c_factor_from_moments(8.0 * t * b / d_n, 2.0 * b, v.mu)
                  for v, b in zip(vs, bs)]
        # the variables live on [0, 2 b_i]
        denom = weighted_sum(
            [(2.0 * b) * (2.0 * b) * c for b, c in zip(bs, cs)], counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    tail_factor = mills_theta(t / sigma) + K * b_max / sigma
    return _record("missing_factor", t, p, cs, counts, len(shifted), d_n,
                   denom, factor=tail_factor)


def ci_c_bar(mv: MomentVector, t: float, p: int) -> float:
    """Two-sided improvement factor for the i.i.d. confidence interval.

    t is the half-width of the interval around the mean, so the factor
    argument 4*t*width/d(X) does not depend on the sample size: it is the
    factor of the two-sided bound on one copy of the variable.
    """
    t = checked_threshold(t)
    p = _checked_order(p)
    if p == 1:
        return 1.0
    return hoeffding_two_sided([mv], t, p).c_values[0]


def _sample_size(width: float, c: float, t: float, alpha: float) -> int:
    # smallest n >= 1 with 2*exp(-2*n*t^2/(width^2*c)) <= alpha
    try:
        return max(1, math.ceil(
            math.log(2.0 / alpha) * width * width * c / (2.0 * t * t)))
    except FLOAT_RANGE_ERRORS as exc:
        raise DomainError(f"the sample size for half-width {t} leaves the "
                          f"float range ({exc})") from None


def classical_sample_size(width: float, t: float, alpha: float) -> int:
    """Smallest n with 2*exp(-2*n*t^2/width^2) <= alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1); got {alpha}")
    t = checked_threshold(t)
    return _sample_size(width, 1.0, t, alpha)


def sample_size_for_ci(mv: MomentVector, t: float, alpha: float, p: int) -> int:
    """Observations needed for a (1 - alpha) two-sided CI of half-width t.

    Uses the moment-improved two-sided bound; the result never exceeds the
    classical requirement ceil(ln(2/alpha) * width^2 / (2 t^2)) because the
    improvement factor is at most 1.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1); got {alpha}")
    t = checked_threshold(t)
    p = _checked_order(p)
    return _sample_size(mv.support.width, ci_c_bar(mv, t, p), t, alpha)
