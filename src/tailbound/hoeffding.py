"""Deviation bounds of Hoeffding type, sharpened with higher moments.

For independent X_i on [0, b_i] the one-sided bound is

    P(S_n - E S_n >= t) <= exp(-2 t^2 / sum_i b_i^2 c_i)

where c_i is the closed-form improvement factor of variable i evaluated at
4*t*b_i/D_n, and D_n = sum_j (mu2_j/mu1_j)^2. Every c_i is in (0, 1], so the
result can only tighten the classical exp(-2 t^2 / sum b_i^2). Variants:
two-sided via shifted and reflected moments, a small-deviation
simplification, the all-moments limit driven by tilted expectations, a
missing-factor refinement of optimal order, and a sample size calculator
for confidence intervals.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ._record import Record, setfield
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
    checked_count,
    checked_order,
    checked_threshold,
    expand_runs,
    identity_runs,
    reflect_moments,
    restrict_order,
    shift_to_origin,
    weighted_sum,
)
from .special import mills_theta

__all__ = [
    "HoeffdingBound", "ci_c_bar", "classical_sample_size", "hoeffding_bound",
    "hoeffding_limit", "hoeffding_missing_factor", "hoeffding_small_t",
    "hoeffding_two_sided", "sample_size_for_ci",
]

MODES = ("one_sided", "two_sided", "small_t", "limit_p_infinity",
         "missing_factor")


class HoeffdingBound(Record):
    """One bound evaluation with its intermediate quantities.

    t is always the absolute deviation of the sum. p is None for the
    infinite-order (limit) mode. c_values holds the per-variable
    improvement factors actually used; s_star the optimizing exponent
    parameter; d_n the aggregate scale the factor arguments were based on
    (None when the inputs do not determine it).

    The factors are stored per group, aligned with the ensemble's groups:
    c_groups[g] is the factor of the c_counts[g] variables of group g.
    c_values is a view that expands them, one entry per variable, each time
    it is read, so a record on n iid copies costs O(1) until then.
    Equality, hash, repr, pickling and JSON see c_values, as if it were
    stored.
    """

    _fields = ("t", "p", "bound", "c_values", "d_n", "s_star", "mode")
    __slots__ = ("t", "p", "bound", "c_groups", "c_counts", "d_n", "s_star",
                 "mode")

    def __init__(self, t: float, p: Optional[int], bound: float,
                 c_values: tuple[float, ...], d_n: Optional[float],
                 s_star: float, mode: str):
        self._set(t, p, bound, *identity_runs(tuple(c_values)), d_n, s_star,
                  mode)

    @classmethod
    def _grouped(cls, t: float, p: Optional[int], bound: float,
                 c_groups: tuple[float, ...], c_counts: tuple[int, ...],
                 d_n: Optional[float], s_star: float,
                 mode: str) -> "HoeffdingBound":
        """The record whose c_values repeats c_groups[g] c_counts[g] times."""
        record = cls.__new__(cls)
        record._set(t, p, bound, tuple(c_groups), tuple(c_counts), d_n,
                    s_star, mode)
        return record

    def _set(self, t, p, bound, c_groups, c_counts, d_n, s_star, mode):
        if mode not in MODES:
            raise DomainError(f"unknown mode {mode!r}")
        setfield(self, "t", t)
        setfield(self, "p", p)
        setfield(self, "bound", bound)
        setfield(self, "c_groups", c_groups)
        setfield(self, "c_counts", c_counts)
        setfield(self, "d_n", d_n)
        setfield(self, "s_star", s_star)
        setfield(self, "mode", mode)

    @property
    def c_values(self) -> tuple[float, ...]:
        return expand_runs(self.c_groups, self.c_counts, sum(self.c_counts))

    # pickle and copy carry the fields, c_values expanded, as a record that
    # stored c_values did
    def __getstate__(self):
        return list(self._values())

    def __setstate__(self, state):
        self.__init__(*state)

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


def _origin_groups(vectors, p: int, move):
    """Move each group's vector onto [0, width] once, with shift_to_origin
    (Y - a) or reflect_moments (b - Y).

    Returns the moved vectors trimmed to order p and their d values (None
    for a vector with fewer than two moments), one of each per group.
    """
    vs = []
    ds = []
    for mv in vectors:
        if mv.support.lower is None:
            raise DomainError(
                "these bounds need variables bounded on both sides")
        moved = move(mv)
        v = restrict_order(moved, p)
        v.require_positive_mean()
        vs.append(v)
        ds.append(_d_value(moved) if moved.p >= 2 else None)
    return vs, ds


def _d_value(mv: MomentVector) -> float:
    return (mv.mu[1] / mv.mu[0]) ** 2


def _cap(log_bound: float, factor: float = 1.0) -> float:
    # probabilities cannot exceed 1; keep everything in log space until here
    return min(factor * math.exp(log_bound), 1.0)


def _record(mode, t, p, cs, counts, d_n, denom,
            factor=1.0) -> HoeffdingBound:
    """The bound factor*exp(-2 t^2/denom) with its record, for
    denom = sum_i w_i^2 c_i over variables on [0, w_i].

    cs holds one factor per group and counts the group sizes.
    """
    if denom == 0.0:
        raise DegenerateDistributionError(
            "sum_i b_i^2 c_i underflows to 0: the ranges are too narrow")
    return HoeffdingBound._grouped(
        t=t, p=p, bound=_cap(-2.0 * t * t / denom, factor), c_groups=cs,
        c_counts=counts, d_n=d_n, s_star=4.0 * t / denom, mode=mode)


def _range_error(exc: ArithmeticError) -> DomainError:
    # a range or moment so large or small that a power of it overflows, or
    # that a second moment it divides by underflows to 0
    return DomainError(f"the bound's factors leave the float range ({exc})")


def _factor(t: float, w: float, d_n: float, v: MomentVector) -> float:
    """The factor c(4 t w / D_n) of a variable on [0, w] with moments v.mu."""
    return c_factor_from_moments(4.0 * t * w / d_n, w, v.mu)


def _one_sided(vectors, counts, t: float, p: int):
    """Per-group factors, d_n and sum_i b_i^2 c_i of the one-sided bound."""
    try:
        vs, ds = _origin_groups(vectors, p, shift_to_origin)
        d_n = None if None in ds else weighted_sum(ds, counts)
        if p == 1:
            cs = [1.0] * len(vs)
        else:
            cs = [_factor(t, v.support.upper, d_n, v) for v in vs]
        denom = weighted_sum(
            [v.support.upper ** 2 * c for v, c in zip(vs, cs)], counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    return cs, d_n, denom


def hoeffding_bound(spec: EnsembleSpec, t: float, p: int) -> HoeffdingBound:
    """One-sided bound on P(S_n - E(S_n) >= t) from the first p moments."""
    t = checked_threshold(t)
    p = checked_order(p)
    cs, d_n, denom = _one_sided(spec.vectors, spec.counts, t, p)
    return _record("one_sided", t, p, cs, spec.counts, d_n, denom)


def hoeffding_two_sided(variables: EnsembleSpec | Sequence[MomentVector],
                        t: float, p: int) -> HoeffdingBound:
    """Bound on P(|sum Y_i - E sum Y_i| >= t) for Y_i on [a_i, b_i].

    Union bound over the two one-sided deviations; each variable
    contributes the larger of the factors computed from its shifted
    (Y - a) and reflected (b - Y) moments. variables is an ensemble, or a
    sequence of vectors that is grouped into one.
    """
    t = checked_threshold(t)
    p = checked_order(p)
    spec = EnsembleSpec.of(variables)
    try:
        shifted, ds = _origin_groups(spec.vectors, p, shift_to_origin)
        reflected, ds_lam = _origin_groups(spec.vectors, p, reflect_moments)
        if p == 1:
            cs = [1.0] * len(shifted)
            d_n = None
        else:
            d_n = weighted_sum(ds, spec.counts)
            d_n_lam = weighted_sum(ds_lam, spec.counts)
            cs = [max(_factor(t, s.support.upper, d_n, s),
                      _factor(t, s.support.upper, d_n_lam, r))
                  for s, r in zip(shifted, reflected)]
        denom = weighted_sum([s.support.upper ** 2 * c
                              for s, c in zip(shifted, cs)], spec.counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    return _record("two_sided", t, p, cs, spec.counts, d_n, denom,
                   factor=2.0)


def hoeffding_small_t(mv: MomentVector, n: int, t: float, c: float,
                      p: int) -> HoeffdingBound:
    """Simplified i.i.d. bound exp(-2 n t^2 I_p^2) for small per-variable t.

    Valid when t <= c*(mu2/(2*mu1))^2; the informativeness measure I_p is
    evaluated at the fixed scale c instead of the t-dependent argument,
    which loosens the bound slightly but decouples it from t.
    """
    n = checked_count(n)
    t = checked_threshold(t)
    p = checked_order(p)
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
    # one factor for each of the n variables, as in every other mode
    return HoeffdingBound._grouped(
        n * t, p, _cap(-2.0 * n * t * t * ip * ip), (1.0 / (ip * ip),), (n,),
        n * _d_value(restrict_order(mv, 2)), 4.0 * t * ip * ip, "small_t")


def hoeffding_limit(dists: EnsembleSpec | Sequence[Distribution],
                    t: float) -> HoeffdingBound:
    """All-moments limit of the bound, driven by tilted expectations.

    Uses E X e^{lam X} and E X^2 e^{lam X} at lam = 4t/D_n; the per-variable
    range drops out entirely. Variables must be nonnegative. dists is an
    ensemble of laws (EnsembleSpec.iid_replicate(law, n) for n copies), or
    a sequence of laws, in which consecutive references to one law object
    share one evaluation.
    """
    t = checked_threshold(t)
    if not dists:
        raise DomainError("need at least one distribution")
    spec = EnsembleSpec.of(dists)
    laws, counts = spec.vectors, spec.counts
    for d in laws:
        if not isinstance(d, Distribution):
            raise DomainError(
                f"the limit bound needs laws (Distribution objects); got "
                f"{type(d).__name__}")
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
    return _record("limit_p_infinity", t, None, cs, counts, d_n, denom)


def hoeffding_missing_factor(shifted: EnsembleSpec | Sequence[MomentVector],
                             t: float, p: int, K: float = 1.0, *,
                             sigma2: Optional[float] = None) -> HoeffdingBound:
    """Optimal-order bound for centered X_i with |X_i| <= b_i.

    Inputs are the moment vectors of Z_i = X_i + b_i on [0, 2 b_i] (so
    b_i = E Z_i), as an ensemble or as a sequence. The exponential factor
    uses the improvement factors at 4*t*(2 b_i)/D_n with scale 2*b_i;
    multiplying by the Gaussian-tail term theta(t/sigma) + K*b/sigma
    recovers the 1/x factor plain exponential bounds are missing. K is a
    free universal constant; validity of the admissible range
    t <= sigma^2/(K*b) depends on its true value.

    D_n here is sum_i mu2_i/mu1_i as printed in the source material.
    """
    t = checked_threshold(t)
    p = checked_order(p)
    if not K > 0.0:
        raise DomainError(f"K must be positive; got {K}")
    spec = EnsembleSpec.of(shifted)
    vectors, counts = spec.vectors, spec.counts
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
    has_second = all(mv.p >= 2 for mv in vectors)
    if sigma2 is None:
        if not has_second:
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
        d_n = None
        if has_second:
            d_n = weighted_sum([mv.mu[1] / mv.mu[0] for mv in vectors], counts)
        # the variables live on [0, 2 b_i]
        ws = [2.0 * b for b in bs]
        if p == 1:
            cs = [1.0] * len(vs)
        else:
            cs = [_factor(t, w, d_n, v) for v, w in zip(vs, ws)]
        denom = weighted_sum([w * w * c for w, c in zip(ws, cs)], counts)
    except FLOAT_RANGE_ERRORS as exc:
        raise _range_error(exc) from None
    tail_factor = mills_theta(t / sigma) + K * b_max / sigma
    return _record("missing_factor", t, p, cs, counts, d_n, denom,
                   factor=tail_factor)


def ci_c_bar(mv: MomentVector, t: float, p: int) -> float:
    """Two-sided improvement factor for the i.i.d. confidence interval.

    t is the half-width of the interval around the mean, so the factor
    argument 4*t*width/d(X) does not depend on the sample size: it is the
    factor of the two-sided bound on one copy of the variable.
    """
    t = checked_threshold(t)
    p = checked_order(p)
    if p == 1:
        return 1.0
    return hoeffding_two_sided([mv], t, p).c_groups[0]


def _sample_size(width: float, c: float, t: float, alpha: float) -> int:
    # smallest n >= 1 with 2*exp(-2*n*t^2/(width^2*c)) <= alpha
    log_term = math.log(2.0 / alpha)
    try:
        n = log_term * width * width * c / (2.0 * t * t)
    except ZeroDivisionError:
        n = math.nan
    if not n < math.inf:
        # width^2 or t^2 left the float range (inf/inf is NaN, and t^2 can
        # underflow to 0); only their ratio matters
        ratio = width / t
        n = log_term * ratio * ratio * c / 2.0
    try:
        return max(1, math.ceil(n))
    except FLOAT_RANGE_ERRORS as exc:
        raise DomainError(f"the sample size for half-width {t} leaves the "
                          f"float range ({exc})") from None


def classical_sample_size(width: float, t: float, alpha: float) -> int:
    """Smallest n with 2*exp(-2*n*t^2/width^2) <= alpha."""
    if not 0.0 < width < math.inf:
        raise DomainError(f"width must be positive and finite; got {width}")
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
    p = checked_order(p)
    return _sample_size(mv.support.width, ci_c_bar(mv, t, p), t, alpha)
