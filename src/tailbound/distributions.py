"""Analytic distribution handles.

These back the sampling oracle, the tilted-moment expectations of the
infinite-order bound, and the CLI's named-distribution inputs. Each handle
knows its raw moments, its moment vectors and how to sample itself.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from ._record import Record, setfield
from .errors import FLOAT_RANGE_ERRORS, ConfigError, DomainError, OracleError
from .moments import MomentVector, Support, checked_order
from .special import _exp

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Bernoulli", "Beta", "Distribution", "PointMass", "TruncatedExponential",
    "Uniform", "make_distribution",
]


class Distribution(Record):
    """Interface shared by the concrete laws below. Each law's fields are its
    parameters; tag names the law, and support is derived from the fields.
    _vectors holds the moment vectors built so far, keyed by order; it is
    not a field, so ==, hash and repr ignore it."""

    __slots__ = ()
    tag: str
    support: Support

    def moments(self, p: int) -> tuple[float, ...]:
        """(E X, ..., E X^p), a tuple of p floats whatever the types of the
        law's parameters: moment_vector stores it as it is."""
        raise NotImplementedError

    def moment(self, k: int) -> float:
        return self.moments(k)[-1] if k else 1.0

    def positive_part_moment(self, p: int) -> float:
        """E max(X^p, 0); defaults to E(X^p) when that is the same thing."""
        if p % 2 == 0 or self.support.is_nonnegative:
            return self.moment(p)
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1)

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill the contiguous float64 array out with independent draws
        from rng, in place, and return it."""
        raise NotImplementedError

    def tilted_first_second(self, s: float) -> tuple[float, float]:
        """(E X e^{sX}, E X^2 e^{sX}), both scaled by one positive factor.

        Callers use only the ratio of the two and their signs, which the
        common factor leaves unchanged. The factor is e^{-s*upper}, which
        keeps e^{sX} from overflowing at large tilts, unless the law picks
        another to keep both entries normal floats (see Beta).
        """
        raise NotImplementedError

    def moment_vector(self, p: int) -> MomentVector:
        """The law's first p moments, built once per order: later calls
        return the same vector. The order is checked before the lookup, as
        2.0 and numpy's 2 hash and compare equal to 2."""
        if not (type(p) is int and p >= 1):
            checked_order(p)
        mv = self._vectors.get(p)
        if mv is not None:
            return mv
        try:
            mu = self.moments(p)
            # max(X^p, 0) = X^p for even p, and for any p once X >= 0; a
            # point mass just below a lower end of 0 (within the support's
            # tolerance) has a negative odd moment and falls through
            if (p % 2 == 0 or self.support.is_nonnegative) and mu[-1] >= 0.0:
                pos = mu[-1]
            else:
                pos = self.positive_part_moment(p)
        except FLOAT_RANGE_ERRORS as exc:
            raise DomainError(f"{self}: a moment of order <= {p} leaves the "
                              f"float range ({exc})") from None
        # a racing thread may have stored one first: all callers get that one
        mv = MomentVector._derived(p, mu, self.support, pos)
        return self._vectors.setdefault(p, mv)


class Uniform(Distribution):
    _fields = ("lo", "hi")
    __slots__ = (*_fields, "support", "_vectors")
    tag = "uniform"

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        if not lo < hi:
            raise DomainError(f"uniform needs lo < hi; got [{lo}, {hi}]")
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)
        setfield(self, "support", Support.interval(lo, hi))
        setfield(self, "_vectors", {})

    def moments(self, p):
        # (hi^(k+1) - lo^(k+1)) / ((k+1)(hi - lo)) with the division done
        # exactly, as sum_j hi^j lo^(k-j) by Horner's rule in hi; step k of
        # the rule holds that sum for order k. For lo >= 0 every term is
        # positive, so a narrow support far from 0 cancels none, and no
        # partial sum overflows before the moment does
        lo, hi = float(self.lo), float(self.hi)
        total = lo_j = 1.0
        out = []
        for k in range(1, p + 1):
            lo_j *= lo
            total = total * hi + lo_j
            out.append(total / (k + 1))
        return tuple(out)

    def positive_part_moment(self, p):
        if p % 2 == 0 or self.lo >= 0:
            return self.moment(p)
        if self.hi <= 0:
            return 0.0
        try:
            return self.hi ** (p + 1) / ((p + 1) * (self.hi - self.lo))
        except OverflowError:
            # hi^(p+1) can overflow where the moment does not
            return self.hi ** p * (self.hi / (self.hi - self.lo)) / (p + 1)

    def sample(self, rng, out):
        # rng.uniform's own arithmetic, lo + (hi - lo) U, in place
        width = self.hi - self.lo
        if width == math.inf:
            raise DomainError(f"cannot sample uniform on [{self.lo}, "
                              f"{self.hi}]: its width overflows")
        rng.random(out=out)
        out *= width
        out += self.lo
        return out

    def tilted_first_second(self, s):
        # X = lo + w U with U ~ Uniform(0, 1) = Beta(1, 1), and the scaled
        # e^{s(X - hi)} is e^{a(U - 1)} for a = s w. Kummer's function gives
        # m_j = E U^j e^{a(U - 1)} = e^{-a} M(1+j, 2+j, a)/(1+j), and the pair
        # expands in them; for lo >= 0 none of its terms cancel
        lo, w = self.lo, self.hi - self.lo
        m0, m1, m2 = (_from_log(*_kummer_scaled(1.0 + j, 2.0 + j, s * w))
                      / (1 + j) for j in range(3))
        return lo * m0 + w * m1, lo * lo * m0 + 2.0 * lo * w * m1 + w * w * m2


class Bernoulli(Distribution):
    _fields = ("q",)
    __slots__ = (*_fields, "support", "_vectors")
    tag = "bernoulli"

    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"success probability must be in [0, 1]; got {q}")
        setfield(self, "q", q)
        setfield(self, "support", Support.interval(0.0, 1.0))
        setfield(self, "_vectors", {})

    def moments(self, p):
        return (float(self.q),) * p

    def sample(self, rng, out):
        import numpy as np

        rng.random(out=out)
        return np.less(out, self.q, out=out)

    def tilted_first_second(self, s):
        # X e^{sX} and X^2 e^{sX} are e^s on X = 1 and 0 on X = 0
        return self.q, self.q


class PointMass(Distribution):
    """The point mass at c, on the support [lo, hi]: [c, c + 1] by default."""

    _fields = ("c", "lo", "hi")
    __slots__ = (*_fields, "support", "_vectors")
    tag = "point"

    def __init__(self, c: float, lo: float | None = None,
                 hi: float | None = None):
        lo = c if lo is None else lo
        hi = c + 1.0 if hi is None else hi
        support = Support.interval(lo, hi)
        if not support.contains(c):
            raise DomainError(f"point mass at {c} outside [{lo}, {hi}]")
        setfield(self, "c", c)
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)
        setfield(self, "support", support)
        setfield(self, "_vectors", {})

    def moments(self, p):
        c = float(self.c)
        return tuple([c ** k for k in range(1, p + 1)])

    def positive_part_moment(self, p):
        return max(self.c ** p, 0.0)

    def sample(self, rng, out):
        out.fill(self.c)
        return out

    def tilted_first_second(self, s):
        e = math.exp(s * (self.c - self.hi))
        return self.c * e, self.c * self.c * e


class Beta(Distribution):
    _fields = ("a", "b")
    __slots__ = (*_fields, "support", "_vectors")
    tag = "beta"

    def __init__(self, a: float, b: float):
        for name, value in (("a", a), ("b", b)):
            if not 0 < value < math.inf:
                raise DomainError(f"beta shape parameter {name} must be "
                                  f"positive and finite; got {value}")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "support", Support.interval(0.0, 1.0))
        setfield(self, "_vectors", {})

    def moments(self, p):
        # E X^k = prod_{j<k} (a+j)/(a+b+j), so each moment extends the last
        a = float(self.a)
        ab = a + float(self.b)
        m = 1.0
        out = []
        for j in range(p):
            m *= (a + j) / (ab + j)
            out.append(m)
        return tuple(out)

    def sample(self, rng, out):
        # numpy's beta sampler has no out argument
        out[...] = rng.beta(self.a, self.b, out.shape)
        return out

    def tilted_first_second(self, s):
        # E X^k e^{sX} = E(X^k) M(a+k, a+b+k, s): the moment series of the
        # tilted law, summed in closed form by Kummer's function
        a, ab = self.a, self.a + self.b
        m1, l1 = _kummer_scaled(a + 1.0, ab + 1.0, s)
        m2, l2 = _kummer_scaled(a + 2.0, ab + 2.0, s)
        mean, mean_sq = self.moments(2)
        first = mean * _from_log(m1, l1)
        second = mean_sq * _from_log(m2, l2)
        if not (second >= _NORMAL_MIN and first < math.inf):
            # the e^{-s} scale leaves the float range: for a law massed near
            # 0, E X e^{sX} stays moderate while e^{-s} underflows past a
            # tilt of about 700. The factor e^{-s-l1} instead brings the
            # first entry to E(X) m1, and the second keeps its ratio to it
            first = mean * m1
            second = mean_sq * _from_log(m2, l2 - l1)
        return first, second


class TruncatedExponential(Distribution):
    """b minus an Exponential(rate): unbounded below, capped above at b."""

    _fields = ("b", "rate")
    __slots__ = (*_fields, "support", "_vectors")
    tag = "truncexp"

    def __init__(self, b: float = 1.0, rate: float = 1.0):
        if not math.isfinite(b):
            raise DomainError(f"upper end b must be finite; got {b}")
        if not 0 < rate < math.inf:
            raise DomainError(f"rate must be positive and finite; got {rate}")
        setfield(self, "b", b)
        setfield(self, "rate", rate)
        setfield(self, "support", Support.upper_only(b))
        setfield(self, "_vectors", {})

    def moments(self, p):
        # (rate + s) M(s) = rate e^{sb} for the MGF of X = b - E; at s = 0 its
        # k-th derivative is mu_k = b^k - (k/rate) mu_{k-1}, off by a few eps
        # times sum_j C(k, j) |b|^{k-j} j!/rate^j, as the binomial sum is
        b, rate = float(self.b), float(self.rate)
        m = 1.0
        out = []
        for k in range(1, p + 1):
            m = b ** k - k / rate * m
            out.append(m)
        return tuple(out)

    def positive_part_moment(self, p):
        """E max(X^p, 0) = int_0^b rate (b - x)^p e^{-rate x} dx.

        At odd p and b > 0 it is b^p a m_p for a = rate b and
        m_p = E U^p e^{a(U - 1)}, U ~ Uniform(0, 1) (put E = b(1 - U)):
        see _scaled_power_integral for how a m_p is taken, by a recurrence,
        a series of positive terms, or Kummer's function.
        """
        if p % 2 == 0:
            return self.moment(p)
        if self.b <= 0:
            return 0.0
        # a m_p <= 1 - e^{-a}, so only b^p can overflow. Past a = 1e300,
        # a m_p rounds to 1 and a itself may overflow, so a stops there
        a = min(self.rate * self.b, 1e300)
        return self.b ** p * _scaled_power_integral(p, a)

    def sample(self, rng, out):
        # b - (1/rate) E, with the same roundings, in place
        rng.standard_exponential(out=out)
        out *= -1.0 / self.rate
        out += self.b
        return out

    def tilted_first_second(self, s):
        if s <= -self.rate:
            raise DomainError(f"tilted moments diverge for s <= -rate")
        r = self.rate
        g1 = r / (r + s)          # E e^{-sE}
        g2 = r / (r + s) ** 2     # E E e^{-sE}
        g3 = 2.0 * r / (r + s) ** 3
        # the common factor e^{s b} is the e^{s*upper} scale, divided out
        first = self.b * g1 - g2
        second = self.b * self.b * g1 - 2.0 * self.b * g2 + g3
        return first, second


_SERIES_TOL = 1e-17
_NORMAL_MIN = sys.float_info.min
_RESCALE = 2.0 ** 800
_ASYMPTOTIC_S = 1e3
_MAX_TERMS = 10 ** 6


def _kummer_scaled(alpha: float, gamma: float,
                   s: float) -> tuple[float, float]:
    """e^{-s} M(alpha, gamma, s) for 0 < alpha < gamma, where M is Kummer's
    confluent hypergeometric function sum_n (alpha)_n/(gamma)_n s^n/n!, as
    a pair (m, l) with value m e^l: the value itself can underflow.

    Above s = 1e3 the large-s expansion is used where it converges. Else the
    power series is summed over positive terms only (Kummer's transformation
    handles s < 0), rescaled as they grow, so large s neither overflows nor
    cancels; its terms shrink only past n = s, so it is capped at 10^6 terms.
    Where gamma rounds to alpha (a Beta law whose b is below the last digit
    of a), M(alpha, alpha, s) = e^s gives 1 at once.
    """
    if not math.isfinite(s):
        raise DomainError(f"tilted moments need a finite tilt; got {s}")
    if gamma == alpha:
        return 1.0, 0.0
    if s < 0.0:
        m, l = _kummer_scaled(gamma - alpha, gamma, -s)
        return m, l - s
    if s > _ASYMPTOTIC_S:
        value = _kummer_asymptotic(alpha, gamma, s)
        if value is not None:
            return value
    term = total = 1.0
    rescales = n = 0
    while True:
        # every later term ratio is below q = s/(n+1), which bounds the tail
        q = s / (n + 1)
        if q < 1.0 and term * q <= _SERIES_TOL * total * (1.0 - q):
            break
        if n == _MAX_TERMS:
            raise OracleError(
                f"Kummer series M({alpha}, {gamma}, {s}) needs more than "
                f"{_MAX_TERMS} terms")
        term *= (alpha + n) / (gamma + n) * q
        total += term
        n += 1
        if total > _RESCALE:
            term /= _RESCALE
            total /= _RESCALE
            rescales += 1
    if rescales and s <= 1400.0:
        # e^{-s} M = total 2^(800 rescales) e^{-s/2} e^{-s/2}: the power of
        # two goes into the mantissa exactly (a rounded log(2^800) costs
        # 1e-14), with one half of e^{-s}, a normal float up to s = 1400
        half = -0.5 * s
        return math.ldexp(total * math.exp(half), 800 * rescales), half
    return total, rescales * math.log(_RESCALE) - s


def _scaled_power_integral(p: int, a: float) -> float:
    """a m_p for m_k = int_0^1 u^k e^{a(u - 1)} du, k >= 0 and a >= 0.

    Integration by parts gives a m_k = 1 - k m_{k-1} from
    a m_0 = -expm1(-a). Going forward, that multiplies an error in m_{k-1}
    by k/a, so it is taken where the product of the factors above 1,
    prod_{a < j <= p} j/a, is at most 2. Elsewhere, below a = 700,
    m_p = e^{-a} sum_n a^n/(n! (p+1+n)) sums positive terms; past it those
    terms leave the float range, and Kummer's scaled function
    e^{-a} M(p+1, p+2, a)/(p+1), which keeps its value as a logarithm,
    takes over. At odd p <= 15 and 1,500 log-spaced a in [1e-3, 1e3], the
    first two were within 5.3 eps of the exact value, where Kummer's series
    alone reached 35 eps.
    """
    if not a > 0.0:
        return 0.0
    growth = 1.0
    j = p
    while j > a and growth <= 2.0:
        growth *= j / a
        j -= 1
    if growth <= 2.0:
        am = -math.expm1(-a)
        for k in range(1, p + 1):
            am = 1.0 - k / a * am
        return am
    if a < 700.0:
        # every later term ratio is below a/(n+1), so once n > a the
        # terms left after piece sum to at most piece a/(n+1-a)
        term = 1.0
        total = 1.0 / (p + 1)
        n = 0
        while True:
            n += 1
            term *= a / n
            piece = term / (p + 1 + n)
            total += piece
            if n > a and piece * a <= _SERIES_TOL * total * (n + 1 - a):
                return a * total * math.exp(-a)
    return a * (_from_log(*_kummer_scaled(p + 1.0, p + 2.0, a)) / (p + 1))


def _from_log(m: float, l: float) -> float:
    """m e^l for m > 0; saturates to inf where it overflows."""
    if l > -700.0:
        return m * _exp(l)
    return _exp(math.log(m) + l)


def _kummer_asymptotic(alpha: float, gamma: float,
                       s: float) -> tuple[float, float] | None:
    """e^{-s} M(alpha, gamma, s) from its large-s expansion, as a pair
    (m, l) with value m e^l,

        Gamma(gamma)/Gamma(alpha) s^{alpha-gamma}
            * sum_k (gamma-alpha)_k (1-alpha)_k / (k! s^k),

    or None where it does not apply: when the terms stop shrinking before
    they fall below the tolerance, or when the part of M the expansion
    leaves out, Gamma(gamma)/Gamma(gamma-alpha) s^{-alpha} e^{-s} after
    scaling, is not negligible beside it.
    """
    log_s = math.log(s)
    if (math.lgamma(alpha) - math.lgamma(gamma - alpha)
            + (gamma - 2.0 * alpha) * log_s - s) > -50.0:
        return None
    term = total = 1.0
    k = 0
    while abs(term) > _SERIES_TOL * abs(total):
        ratio = (gamma - alpha + k) * (1.0 - alpha + k) / ((k + 1) * s)
        if abs(ratio) >= 0.5:
            return None
        term *= ratio
        total += term
        k += 1
    return total, (math.lgamma(gamma) - math.lgamma(alpha)
                   + (alpha - gamma) * log_s)


_LAWS = {law.tag: law for law in
         (Uniform, Bernoulli, PointMass, Beta, TruncatedExponential)}
_ALIASES = {"truncated-exponential": "truncexp"}


def make_distribution(tag: str, **params) -> Distribution:
    """Build a distribution from its string tag and keyword parameters: the
    law's fields, of which those without a default are required."""
    law = _LAWS.get(_ALIASES.get(tag, tag))
    if law is None:
        raise ConfigError(
            f"unknown distribution tag {tag!r}; known: {sorted(_LAWS)}")
    fields = law._fields
    for name in fields[:len(fields) - len(law.__init__.__defaults__ or ())]:
        if name not in params:
            raise ConfigError(f"distribution {tag!r} needs parameter {name!r}")
    dist = law(**{name: params.pop(name) for name in fields if name in params})
    if params:
        raise ConfigError(
            f"unused parameters for {tag!r}: {sorted(params)}")
    return dist
