"""Raw-moment records for bounded random variables.

Raw moments E(X^k) are the canonical representation because every bound
formula consumes them directly. Construction validates the feasibility
inequalities that any genuine moment sequence satisfies; vectors that fail
validation are rejected rather than clamped, since bounds computed from
infeasible moments are meaningless.
"""

from __future__ import annotations

import math
from itertools import chain, compress, repeat
from operator import index, is_not, mul, sub
from typing import TYPE_CHECKING, Optional, Sequence

from ._record import Record, setfield
from .errors import (
    DegenerateDistributionError,
    DomainError,
    InfeasibleMomentsError,
    FLOAT_RANGE_ERRORS,
    OrderError,
)

if TYPE_CHECKING:
    import numpy as np

_REL_TOL = 1e-9
_EPS = 2.220446049250313e-16
_TINY = 1e-300


class Support(Record):
    """Almost-sure range of a variable: an interval [lower, upper], or only
    an upper bound (lower is None) for variables unbounded below."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: Optional[float], upper: float):
        if not math.isfinite(upper):
            raise DomainError(f"upper support bound must be finite; got {upper}")
        if lower is not None:
            if not math.isfinite(lower):
                raise DomainError("lower support bound must be finite or None")
            if not lower < upper:
                raise DomainError(
                    f"support needs lower < upper; got [{lower}, {upper}]")
        setfield(self, "lower", lower)
        setfield(self, "upper", upper)

    @classmethod
    def interval(cls, lower: float, upper: float) -> "Support":
        return cls(float(lower), float(upper))

    @classmethod
    def upper_only(cls, upper: float) -> "Support":
        return cls(None, float(upper))

    @property
    def width(self) -> float:
        if self.lower is None:
            raise DomainError("support has no lower bound")
        return self.upper - self.lower

    @property
    def is_nonnegative(self) -> bool:
        return self.lower is not None and self.lower >= 0.0

    def contains(self, x: float, tol: float = 1e-12) -> bool:
        if x > self.upper + tol:
            return False
        return self.lower is None or x >= self.lower - tol


class MomentVector(Record):
    """First p raw moments of one variable on a stated support.

    mu[k-1] = E(X^k) for k = 1..p. positive_part_pth stores E(max(X^p, 0)),
    which the above-bounded ("Bennett-style") formulas need; on nonnegative
    supports it defaults to mu[p] since max(X^p, 0) = X^p there. samples,
    when present, are the raw data the vector was computed from and let
    shift/reflect recompute moments directly instead of re-expanding; they
    take no part in ==, hash or repr.
    """

    _fields = ("p", "mu", "support", "positive_part_pth")
    __slots__ = (*_fields, "samples")

    def __init__(self, p: int, mu: Sequence[float], support: Support,
                 positive_part_pth: Optional[float] = None,
                 samples: Optional[np.ndarray] = None):
        setfield(self, "p", checked_order(p))
        mu = tuple(map(float, mu))
        setfield(self, "mu", mu)
        setfield(self, "support", support)
        setfield(self, "positive_part_pth", positive_part_pth)
        setfield(self, "samples", samples)
        if len(mu) != p:
            raise OrderError(f"expected {p} moments; got {len(mu)}")
        if not all(map(math.isfinite, mu)):
            raise DomainError(f"moments must be finite; got {mu}")
        self._validate_chains()
        self._resolve_positive_part()

    def _validate_chains(self):
        if not self.support.is_nonnegative:
            # feasibility inequalities below presume X >= 0; variables that
            # extend below zero are only used through the above-bounded
            # formulas, which take the supplied values as upper bounds
            return
        b = self.support.upper
        mu = self.mu
        prev = 1.0  # mu[0]
        # tolerances are positive: only a strict failure needs its scale
        for k, m in enumerate(mu, start=1):
            if not 0.0 <= m <= b * prev:
                scale = max(abs(b * prev), abs(m), _TINY)
                if m < -_REL_TOL * scale:
                    raise InfeasibleMomentsError(
                        f"mu[{k}] = {m} is negative for a variable on "
                        f"[{self.support.lower}, {b}]")
                if m - b * prev > _REL_TOL * scale:
                    raise InfeasibleMomentsError(
                        f"support chain violated: mu[{k}] = {m} exceeds "
                        f"upper*mu[{k - 1}] = {b * prev}")
            prev = m
        # mu[d-1] mu[d+1] >= mu[d]^2, from the variance (d = 1) up
        m = (1.0, *mu)
        for d in range(1, self.p):
            lhs = m[d - 1] * m[d + 1]
            try:
                rhs = m[d] ** 2
            except OverflowError:
                raise DomainError(
                    f"mu[{d}]^2 leaves the float range") from None
            if lhs < rhs:
                if lhs - rhs < -_REL_TOL * max(abs(lhs), rhs, _TINY):
                    raise InfeasibleMomentsError(
                        f"Cauchy-Schwarz chain violated: mu[{d - 1}]*"
                        f"mu[{d + 1}] = {lhs} < mu[{d}]^2 = {rhs}")

    def _resolve_positive_part(self):
        pos = self.positive_part_pth
        if pos is None:
            if not self.support.is_nonnegative:
                raise DomainError(
                    "positive_part_pth (a bound on E max(X^p, 0)) is required "
                    "for supports extending below zero")
            setfield(self, "positive_part_pth", self.mu[-1])
            return
        pos = float(pos)
        setfield(self, "positive_part_pth", pos)
        if pos < 0.0:
            raise InfeasibleMomentsError(
                f"E max(X^p, 0) cannot be negative; got {pos}")
        if self.support.is_nonnegative and pos < self.mu[-1]:
            scale = max(abs(self.mu[-1]), _TINY)
            if pos - self.mu[-1] < -_REL_TOL * scale:
                raise InfeasibleMomentsError(
                    f"on a nonnegative support E max(X^p, 0) = E X^p = "
                    f"{self.mu[-1]}, but positive_part_pth = {pos}")

    def moment(self, k: int) -> float:
        """E(X^k) for k = 0..p (k = 0 is 1 by convention)."""
        if k == 0:
            return 1.0
        if not 1 <= k <= self.p:
            raise OrderError(f"moment of order {k} not available (p = {self.p})")
        return self.mu[k - 1]

    @property
    def mean(self) -> float:
        return self.mu[0]

    def require_positive_mean(self):
        if self.mu[0] <= 0.0:
            raise DegenerateDistributionError(
                f"first moment must be positive; got {self.mu[0]}")


def restrict_order(mv: MomentVector, q: int) -> MomentVector:
    """The same variable described by only its first q moments."""
    if q > mv.p:
        raise OrderError(f"cannot raise order from {mv.p} to {q}")
    if q == mv.p:
        return mv
    if mv.samples is not None:
        import numpy as np

        pos = float(np.mean(np.maximum(mv.samples ** q, 0.0)))
    elif q % 2 == 0 or mv.support.is_nonnegative:
        # max(x^q, 0) = x^q for even q, and for any q once x >= 0
        pos = mv.mu[q - 1]
    else:
        raise OrderError(
            f"E max(X^{q}, 0) is not determined by the stored moments when the "
            "support extends below 0; construct the vector at that order")
    return MomentVector(q, mv.mu[:q], mv.support, pos, samples=mv.samples)


def moments_from_samples(data, p: int, support: Support) -> MomentVector:
    """Empirical raw moments of data constrained to the given support."""
    import numpy as np

    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("cannot compute moments of an empty sample")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DomainError(f"datum at index {bad} is not finite")
    tol = 1e-12
    outside = arr > support.upper + tol
    if support.lower is not None:
        outside |= arr < support.lower - tol
    if np.any(outside):
        bad = int(np.flatnonzero(outside)[0])
        raise DomainError(
            f"datum at index {bad} ({arr[bad]}) lies outside the support "
            f"[{support.lower}, {support.upper}]")
    mu = tuple(float(np.mean(arr ** k)) for k in range(1, p + 1))
    pos = float(np.mean(np.maximum(arr ** p, 0.0)))
    return MomentVector(p, mu, support, pos, samples=arr)


def shift_to_origin(mv: MomentVector) -> MomentVector:
    """Moments of (Y - a) on [0, b - a] for Y described by mv on [a, b].

    Sample-backed vectors recompute from the shifted data; analytic ones
    use the binomial re-expansion E(Y - a)^k = sum_j C(k, j) E(Y^j) (-a)^(k-j),
    which needs all moments up to k (always present here).
    """
    a = mv.support.lower
    if a is None:
        raise DomainError("shifting requires a bounded-below support")
    if a == 0.0:
        return mv
    width = mv.support.width
    if mv.samples is not None:
        return moments_from_samples(mv.samples - a, mv.p,
                                    Support.interval(0.0, width))
    try:
        m = (1.0,) + mv.mu
        shift_pow = [(-a) ** e for e in range(mv.p + 1)]
        mu = []
        for k in range(1, mv.p + 1):
            total = 0.0
            for j in range(k + 1):
                total += math.comb(k, j) * m[j] * shift_pow[k - j]
            mu.append(0.0 if -1e-15 < total < 0.0 else total)
    except FLOAT_RANGE_ERRORS as exc:
        raise DomainError(f"moments shifted by {-a} leave the float range "
                          f"({exc})") from None
    try:
        return MomentVector(mv.p, mu, Support.interval(0.0, width), mu[-1])
    except InfeasibleMomentsError as exc:
        raise _precision_lost(exc, mv, mu, a) from None


def reflect_moments(mv: MomentVector) -> MomentVector:
    """Moments of (b - Y) on [0, b - a] for Y described by mv on [a, b]."""
    a = mv.support.lower
    if a is None:
        raise DomainError("reflection requires a bounded-below support")
    b = mv.support.upper
    width = mv.support.width
    if mv.samples is not None:
        return moments_from_samples(b - mv.samples, mv.p,
                                    Support.interval(0.0, width))
    try:
        # (-1)^j E(Y^j): a sign moves through a product exactly
        m = [(-1.0) ** j * mj for j, mj in enumerate((1.0,) + mv.mu)]
        b_pow = [b ** e for e in range(mv.p + 1)]
        mu = tuple(
            sum(
                math.comb(k, j) * b_pow[k - j] * m[j]
                for j in range(k + 1)
            )
            for k in range(1, mv.p + 1)
        )
    except FLOAT_RANGE_ERRORS as exc:
        raise DomainError(f"moments reflected about {b} leave the float "
                          f"range ({exc})") from None
    # reflected values live in [0, width]; clip the float dust at zero
    mu = tuple(0.0 if -1e-15 < m < 0.0 else m for m in mu)
    try:
        return MomentVector(mv.p, mu, Support.interval(0.0, width), mu[-1])
    except InfeasibleMomentsError as exc:
        raise _precision_lost(exc, mv, mu, b) from None


def _precision_lost(exc, mv: MomentVector, mu, c: float):
    """exc, or a DomainError if rounding explains it: mu[k-1] re-expands mv's
    moments m_j as sum_j C(k, j) m_j c^(k-j), signs aside, so it is off by at
    most e_k = (k+1) eps sum_j C(k, j) |m_j c^(k-j)|."""
    m, x, b = (1.0, *mv.mu), (1.0, *mu), mv.support.width
    e = [(k + 1) * _EPS * sum(math.comb(k, j) * abs(m[j] * c ** (k - j))
                              for j in range(k + 1)) for k in range(mv.p + 1)]
    if all(-e[k] <= x[k] <= b * (x[k - 1] + e[k - 1]) + e[k] and (
            k == mv.p or x[k] * x[k] - x[k - 1] * x[k + 1] <= 2 * abs(x[k])
            * e[k] + abs(x[k - 1]) * e[k + 1] + abs(x[k + 1]) * e[k - 1])
           for k in range(1, mv.p + 1)):
        return DomainError(f"moments re-expanded about {c} lose precision: "
                           f"mu[{mv.p}] may err by {e[-1]:.3g} ({exc})")
    return exc


def checked_order(p: int) -> int:
    """p, if it is a positive integer moment order. A bool is not one, though
    True == 1: a law would file a vector of order True under the key 1."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise DomainError(f"order p must be a positive integer; got {p!r}")
    return p


def checked_threshold(t: float) -> float:
    """t as a float, if it is a positive, finite deviation threshold."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(
            f"deviation threshold must be positive and finite; got {t}")
    return t


def identity_runs(items: Sequence) -> tuple[tuple, tuple[int, ...]]:
    """Runs of consecutive references to one object: (objects, lengths).

    Grouping is by identity, not equality: equal moment vectors may still
    differ in the samples their transforms recompute from. Both passes over
    the items run at C speed, and the first stops at the first repeat: an
    input whose neighbours all differ (every variable distinct) costs that
    one pass and gives one run per item.
    """
    if all(map(is_not, items[1:], items)):
        return tuple(items), (1,) * len(items)
    n = len(items)
    starts = list(compress(range(1, n), map(is_not, items[1:], items)))
    ends = starts + [n]
    starts.insert(0, 0)
    return tuple(map(items.__getitem__, starts)), tuple(map(sub, ends, starts))


def weighted_sum(values: Sequence[float], counts: Sequence[int]) -> float:
    """sum_g values[g] * counts[g]: a per-item sum taken over runs."""
    return sum(map(mul, values, counts))


def expand_runs(values: Sequence, counts: Sequence[int], n: int) -> tuple:
    """values[g] repeated counts[g] times, in order: per-group values as one
    entry per item. n is sum(counts)."""
    # one group (iid copies) fills by tuple repetition: at n = 10^4 that is
    # about 5x faster than the chain below, which is most of an iid bound
    if len(values) == 1:
        return (values[0],) * n
    return tuple(chain.from_iterable(map(repeat, values, counts)))


class EnsembleSpec(Record):
    """The moment vectors defining a sum of independent terms, in groups.

    Group g is vectors[g] repeated counts[g] times: one group per run of
    consecutive references to the same vector object, so the bounds prepare
    each group once and weight its terms by the multiplicity. The fields
    are vectors (one per group), counts (the group sizes) and n, their sum.
    """

    __slots__ = _fields = ("vectors", "counts", "n")

    def __init__(self, variables: Sequence[MomentVector]):
        variables = tuple(variables)
        if len(variables) < 1:
            raise DomainError("an ensemble needs at least one variable")
        self._set(*identity_runs(variables), len(variables))

    def _set(self, vectors, counts, n):
        setfield(self, "vectors", vectors)
        setfield(self, "counts", counts)
        setfield(self, "n", n)

    @classmethod
    def iid_replicate(cls, mv: MomentVector, n: int) -> "EnsembleSpec":
        n = index(n)
        if n < 1:
            raise DomainError(f"need n >= 1 variables; got {n}")
        spec = cls.__new__(cls)
        spec._set((mv,), (n,), n)
        return spec

    @property
    def variables(self) -> tuple[MomentVector, ...]:
        """Every variable in order, one entry per copy."""
        return expand_runs(self.vectors, self.counts, self.n)


def read_sample_file(path) -> np.ndarray:
    """Load sample values: one number per line, or two-column CSV (id,value).

    A single non-numeric header line is tolerated. Values are decimal
    floating point; locale-dependent formats are not.
    """
    import numpy as np

    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," in line:
                parts = [part.strip() for part in line.split(",")]
                if len(parts) != 2:
                    raise DomainError(
                        f"{path}:{lineno}: expected two CSV columns (id,value)")
                token = parts[1]
            else:
                token = line
            try:
                values.append(float(token))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise DomainError(
                    f"{path}:{lineno}: cannot parse {token!r} as a number")
    if not values:
        raise DomainError(f"{path}: no sample values found")
    return np.asarray(values, dtype=float)
