"""Raw-moment records for bounded random variables.

Raw moments E(X^k) are the canonical representation because every bound
formula consumes them directly. Outside input (user code, the CLI's --mu)
goes through the MomentVector constructor, which converts it and validates
the feasibility inequalities that any genuine moment sequence satisfies;
vectors that fail validation are rejected rather than clamped, since bounds
computed from infeasible moments are meaningless. Vectors that tailbound
derives itself (a law's moments, moved, restricted or sample moments) skip
the conversion but pass the same strict predicate; any that fail it take
the constructor's path, tolerances and messages.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, repeat
from operator import index, is_not, mul, sub
from typing import Optional, Sequence

from ._record import Record, setfield
from .errors import (
    DegenerateDistributionError,
    DomainError,
    InfeasibleMomentsError,
    FLOAT_RANGE_ERRORS,
    OrderError,
)

__all__ = [
    "EnsembleSpec", "MomentVector", "Support", "moments_from_samples",
    "read_sample_file", "reflect_moments", "restrict_order", "shift_to_origin",
]

_REL_TOL = 1e-9
_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX = 1.7976931348623157e308  # the largest finite float


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

    def contains(self, x: float) -> bool:
        """Whether x lies in the support, within 1e-12."""
        if x > self.upper + 1e-12:
            return False
        return self.lower is None or x >= self.lower - 1e-12


def _strictly_feasible(mu: tuple, b: float) -> bool:
    """Whether the moments mu of a variable on [0, b] pass every feasibility
    check with no tolerance, in one pass: each entry finite with
    0 <= mu[k] <= b mu[k-1], and mu[d-1] mu[d+1] >= mu[d]^2 for d >= 1.

    mu[d]^2 must also stay below 1e308: the tolerant check squares with
    ** and reports an overflow there, which mu[d] * mu[d] (inf, and then
    no failure) would hide.
    """
    lo, mid = 1.0, mu[0]
    if not 0.0 <= mid <= b:
        return False
    for hi in mu[1:]:
        sq = mid * mid
        if not (0.0 <= hi <= b * mid < math.inf and lo * hi >= sq
                and sq < 1e308):
            return False
        lo, mid = mid, hi
    return True


def _check_chains(mu: tuple, support: Support):
    """The feasibility checks of moments mu on a nonnegative support, with
    their tolerances: raise for the first entry that fails past them."""
    b = support.upper
    prev = 1.0  # mu[0]
    for k, m in enumerate(mu, start=1):
        scale = max(abs(b * prev), abs(m), _TINY)
        if m < -_REL_TOL * scale:
            raise InfeasibleMomentsError(
                f"mu[{k}] = {m} is negative for a variable on "
                f"[{support.lower}, {b}]")
        if m - b * prev > _REL_TOL * scale:
            raise InfeasibleMomentsError(
                f"support chain violated: mu[{k}] = {m} exceeds "
                f"upper*mu[{k - 1}] = {b * prev}")
        prev = m
    # mu[d-1] mu[d+1] >= mu[d]^2, from the variance (d = 1) up
    m = (1.0, *mu)
    for d in range(1, len(mu)):
        lhs = m[d - 1] * m[d + 1]
        try:
            rhs = m[d] ** 2
        except OverflowError:
            raise DomainError(
                f"mu[{d}]^2 leaves the float range") from None
        if lhs - rhs < -_REL_TOL * max(abs(lhs), rhs, _TINY):
            raise InfeasibleMomentsError(
                f"Cauchy-Schwarz chain violated: mu[{d - 1}]*"
                f"mu[{d + 1}] = {lhs} < mu[{d}]^2 = {rhs}")


class MomentVector(Record):
    """First p raw moments of one variable on a stated support.

    mu[k-1] = E(X^k) for k = 1..p. positive_part_pth stores E(max(X^p, 0)),
    which the above-bounded ("Bennett-style") formulas need; on nonnegative
    supports it defaults to mu[p] since max(X^p, 0) = X^p there. samples,
    when present, are the raw data the vector was computed from (an
    array('d') from moments_from_samples) and let shift/reflect recompute
    moments directly instead of re-expanding; they take no part in ==, hash
    or repr.

    The constructor takes outside input: it checks the order, converts the
    entries to floats and validates them. Vectors that tailbound computes
    itself come from _derived, which stores its floats as they are when they
    pass the constructor's strict predicate and calls the constructor when
    they do not, so both give the same vector or the same error.
    """

    _fields = ("p", "mu", "support", "positive_part_pth")
    __slots__ = (*_fields, "samples")

    def __init__(self, p: int, mu: Sequence[float], support: Support,
                 positive_part_pth: Optional[float] = None,
                 samples: Optional[array] = None):
        p = checked_order(p)
        mu = tuple(map(float, mu))
        setfield(self, "p", p)
        setfield(self, "mu", mu)
        setfield(self, "support", support)
        setfield(self, "samples", samples)
        if len(mu) != p:
            raise OrderError(f"expected {p} moments; got {len(mu)}")
        lower = support.lower
        nonnegative = lower is not None and lower >= 0.0
        # the feasibility inequalities presume X >= 0; variables that extend
        # below zero are only used through the above-bounded formulas, which
        # take the supplied values as upper bounds. A vector that passes the
        # strict checks passes the tolerant ones; only one that fails them
        # pays for the tolerances and the wording
        if not (nonnegative and _strictly_feasible(mu, support.upper)):
            if not all(map(math.isfinite, mu)):
                raise DomainError(f"moments must be finite; got {mu}")
            if nonnegative:
                _check_chains(mu, support)
        pos = positive_part_pth
        if pos is None:
            if not nonnegative:
                raise DomainError(
                    "positive_part_pth (a bound on E max(X^p, 0)) is required "
                    "for supports extending below zero")
            pos = mu[-1]
        else:
            pos = float(pos)
            if not 0.0 <= pos < math.inf:
                raise InfeasibleMomentsError(
                    f"positive_part_pth (a bound on E max(X^p, 0)) must be "
                    f"finite and nonnegative; got {pos}")
            if nonnegative and pos < mu[-1]:
                scale = max(abs(mu[-1]), _TINY)
                if pos - mu[-1] < -_REL_TOL * scale:
                    raise InfeasibleMomentsError(
                        f"on a nonnegative support E max(X^p, 0) = E X^p = "
                        f"{mu[-1]}, but positive_part_pth = {pos}")
        setfield(self, "positive_part_pth", pos)

    @classmethod
    def _derived(cls, p: int, mu: tuple, support: Support, pos: float,
                 samples: Optional[array] = None) -> "MomentVector":
        """The vector of moments that tailbound computed itself: mu a tuple
        of p floats, p an order checked already. Where they pass the
        predicate that lets the constructor skip its tolerant checks, the
        fields are stored as they are; elsewhere the constructor decides."""
        pos = float(pos)
        lower = support.lower
        if lower is not None and lower >= 0.0:
            strict = _strictly_feasible(mu, support.upper) and pos == mu[-1]
        else:
            strict = all(map(math.isfinite, mu)) and 0.0 <= pos < math.inf
        if not strict:
            return cls(p, mu, support, pos, samples)
        mv = cls.__new__(cls)
        _set_p(mv, p)
        _set_mu(mv, mu)
        _set_support(mv, support)
        _set_samples(mv, samples)
        _set_pos(mv, pos)
        return mv

    def moment(self, k: int) -> float:
        """E(X^k) for k = 0..p (k = 0 is 1 by convention)."""
        if k == 0:
            return 1.0
        if not 1 <= k <= self.p:
            raise OrderError(f"moment of order {k} not available (p = {self.p})")
        return self.mu[k - 1]

    def require_positive_mean(self):
        if self.mu[0] <= 0.0:
            raise DegenerateDistributionError(
                f"first moment must be positive; got {self.mu[0]}")


# the slots' own setters, which the frozen __setattr__ does not reach: each
# store is quicker than setfield's
_set_p, _set_mu, _set_support, _set_pos, _set_samples = (
    getattr(MomentVector, name).__set__ for name in MomentVector.__slots__)


def restrict_order(mv: MomentVector, q: int) -> MomentVector:
    """The same variable described by only its first q moments."""
    q = checked_order(q)
    if q > mv.p:
        raise OrderError(f"cannot raise order from {mv.p} to {q}")
    if q == mv.p:
        return mv
    if q % 2 == 0 or mv.support.is_nonnegative:
        # max(x^q, 0) = x^q for even q, and for any q once x >= 0
        pos = mv.mu[q - 1]
    elif mv.samples is not None:
        for power in _powers(mv.samples, q):
            pass
        pos = _positive_mean(power)
    else:
        raise OrderError(
            f"E max(X^{q}, 0) is not determined by the stored moments when the "
            "support extends below 0; construct the vector at that order")
    return MomentVector._derived(q, mv.mu[:q], mv.support, pos, mv.samples)


def moments_from_samples(data, p: int, support: Support) -> MomentVector:
    """Empirical raw moments of data constrained to the given support.

    data is a flat iterable of real numbers, or an object with a ravel()
    method (an ndarray of any shape), whose own ravel() flattens it. The
    vector keeps the samples as an array('d'). mu[k-1] is the exactly
    rounded sum (math.fsum) of the x^k over n, each x^k a running product.
    """
    p = checked_order(p)
    if hasattr(data, "ravel"):
        data = data.ravel()
    values = array("d")
    try:
        # an iterator, as extend refuses an array of another typecode;
        # extend keeps the data before the first that fails
        values.extend(iter(data))
    except (TypeError, ValueError, OverflowError):
        raise DomainError(
            f"datum at index {len(values)} is not a real number") from None
    if not values:
        raise DomainError("cannot compute moments of an empty sample")
    return _sample_vector(values, p, support)


def _sample_vector(values: array, p: int, support: Support) -> MomentVector:
    """The vector of the nonempty samples values, for a checked order p. It
    keeps values itself, so a caller hands over an array it owns."""
    # one pass serves the common case, as nan and the infinities fail it too;
    # the indexed loops below run only to name the datum that failed
    lo = -_MAX if support.lower is None else support.lower - 1e-12
    hi = support.upper + 1e-12
    if not all(lo <= x <= hi for x in values):
        for i, x in enumerate(values):
            if not math.isfinite(x):
                raise DomainError(f"datum at index {i} is not finite")
        for i, x in enumerate(values):
            if not support.contains(x):
                raise DomainError(
                    f"datum at index {i} ({x}) lies outside the support "
                    f"[{support.lower}, {support.upper}]")
    mu = []
    for power in _powers(values, p):
        mu.append(_mean(power, len(values)))
    pos = mu[-1] if p % 2 == 0 else _positive_mean(power)
    return MomentVector._derived(p, tuple(mu), support, pos, values)


def _powers(values: array, p: int):
    """The arrays of x^1, ..., x^p over the samples x, each the running
    product of the one before: an order's powers are the same bits whichever
    order of vector asks for them."""
    power = values
    yield power
    for _ in range(p - 1):
        power = array("d", map(mul, power, values))
        yield power


def _mean(xs, n: int) -> float:
    """sum(xs) / n, from the exactly rounded sum."""
    try:
        return math.fsum(xs) / n
    except (OverflowError, ValueError):
        # a partial sum past the float range, or inf + -inf
        raise DomainError("sample moments leave the float range") from None


def _positive_mean(xs: array) -> float:
    """The mean of max(x, 0) over xs."""
    return _mean(compress(xs, map((0.0).__lt__, xs)), len(xs))


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
        return _moved_samples("shift", mv, mv.samples, repeat(a))
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
        return MomentVector._derived(mv.p, tuple(mu),
                                     Support.interval(0.0, width), mu[-1])
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
        return _moved_samples("reflect", mv, repeat(b), mv.samples)
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
        return MomentVector._derived(mv.p, mu, Support.interval(0.0, width),
                                     mu[-1])
    except InfeasibleMomentsError as exc:
        raise _precision_lost(exc, mv, mu, b) from None


# The last sample-backed vector each transform ("shift", "reflect") moved,
# with its result. The bounds move an ensemble's vectors at every threshold,
# and a move of a sample-backed vector is O(n) passes over its samples, so
# another call on the same vector object returns the kept result. Vectors
# are matched by identity, as EnsembleSpec groups them: equal moments may
# come from other samples. Each entry is one (vector, result) tuple, stored
# and read whole, so threads never pair a vector with another's result. An
# entry keeps that vector and its samples, and the moved ones, alive until
# the transform moves another sample-backed vector. Analytic vectors never
# reach it.
_moved = {}


def _moved_samples(transform: str, mv: MomentVector, left, right):
    """The vector of the samples left - right on [0, width], for the
    sample-backed mv; kept per transform, for the next call on mv."""
    last = _moved.get(transform)
    if last is not None and last[0] is mv:
        return last[1]
    moved = _sample_vector(array("d", map(sub, left, right)), mv.p,
                           Support.interval(0.0, mv.support.width))
    _moved[transform] = (mv, moved)
    return moved


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


def checked_count(n: int) -> int:
    """n, if it is a positive integer count of variables."""
    try:
        n = index(n)
    except TypeError:
        raise DomainError(
            f"the number of variables must be an integer; got {n!r}") from None
    if n < 1:
        raise DomainError(f"need n >= 1 variables; got {n}")
    return n


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
    Grouping is by identity alone, so an ensemble may hold other objects:
    hoeffding_limit takes one of laws.
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
        n = checked_count(n)
        spec = cls.__new__(cls)
        spec._set((mv,), (n,), n)
        return spec

    @classmethod
    def of(cls, items) -> "EnsembleSpec":
        """items if it is an ensemble already, else the ensemble of the
        sequence items."""
        return items if isinstance(items, cls) else cls(items)

    @property
    def variables(self) -> tuple[MomentVector, ...]:
        """Every variable in order, one entry per copy."""
        return expand_runs(self.vectors, self.counts, self.n)


def read_sample_file(path) -> array:
    """Load sample values, as an array('d'): one number per line, or
    two-column CSV (id,value).

    A single non-numeric header line is tolerated. Values are decimal
    floating point; locale-dependent formats are not.
    """
    values = array("d")
    append = values.append
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            # the value is the whole line, or what follows its one comma;
            # float() ignores the whitespace around it
            head, _, token = line.rpartition(",")
            if "," in head:
                raise DomainError(
                    f"{path}:{lineno}: expected two CSV columns (id,value)")
            try:
                append(float(token))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise DomainError(f"{path}:{lineno}: cannot parse "
                                  f"{token.strip()!r} as a number") from None
    if not values:
        raise DomainError(f"{path}: no sample values found")
    return values
