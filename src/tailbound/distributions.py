"""Analytic distribution handles.

These back the sampling oracle, the exact-MGF oracle, the tilted-moment
expectations of the infinite-order bound, and the CLI's named-distribution
inputs. Each handle knows its raw moments, how to sample itself, and its
moment-generating function; continuous laws without a closed form fall
back to adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OracleError
from .moments import MomentVector, Support

_QUAD_TOL = 1e-12


class Distribution:
    """Interface shared by the concrete laws below."""

    tag: str
    support: Support

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def positive_part_moment(self, p: int) -> float:
        """E max(X^p, 0); defaults to E(X^p) when that is the same thing."""
        if p % 2 == 0 or self.support.is_nonnegative:
            return self.moment(p)
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1)

    def sample(self, rng: np.random.Generator, size):
        raise NotImplementedError

    def mgf(self, s: float) -> float:
        raise NotImplementedError

    def tilted_first_second(self, s: float) -> tuple[float, float]:
        """(E X e^{sX}, E X^2 e^{sX}), both scaled by e^{-s*upper}.

        Callers use only the ratio of the two and their signs, which the
        common factor leaves unchanged; dividing it out keeps e^{sX} from
        overflowing at large tilts.
        """
        raise NotImplementedError

    def moment_vector(self, p: int) -> MomentVector:
        mu = tuple(self.moment(k) for k in range(1, p + 1))
        return MomentVector(p, mu, self.support, self.positive_part_moment(p))


def _quad(fn, lo, hi):
    # imported here: scipy.integrate costs about 50 MiB and 0.3 s to import,
    # and only the laws without closed forms need it
    from scipy import integrate

    value, err = integrate.quad(fn, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                                limit=200)
    if not math.isfinite(value) or err > 1e-8 * max(abs(value), 1.0):
        raise OracleError(f"quadrature failed (value={value}, err={err})")
    return value


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"uniform needs lo < hi; got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "tag", "uniform")
        object.__setattr__(self, "support", Support.interval(self.lo, self.hi))

    def moment(self, k):
        if k == 0:
            return 1.0
        return ((self.hi ** (k + 1) - self.lo ** (k + 1))
                / ((k + 1) * (self.hi - self.lo)))

    def positive_part_moment(self, p):
        if p % 2 == 0 or self.lo >= 0:
            return self.moment(p)
        if self.hi <= 0:
            return 0.0
        return self.hi ** (p + 1) / ((p + 1) * (self.hi - self.lo))

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def mgf(self, s):
        width = self.hi - self.lo
        if abs(s) * max(abs(self.lo), abs(self.hi)) < 1e-6:
            return (1.0 + s * self.moment(1) + s * s * self.moment(2) / 2.0
                    + s ** 3 * self.moment(3) / 6.0)
        return (math.exp(s * self.hi) - math.exp(s * self.lo)) / (s * width)

    def tilted_first_second(self, s):
        if abs(s) * max(abs(self.lo), abs(self.hi)) < 1e-4:
            scale = math.exp(-s * self.hi)
            return (scale * _tilted_series(self, s, 1),
                    scale * _tilted_series(self, s, 2))
        width = self.hi - self.lo

        def f1(x):
            return math.exp(s * (x - self.hi)) * (s * x - 1.0) / (s * s)

        def f2(x):
            return (math.exp(s * (x - self.hi))
                    * (s * s * x * x - 2.0 * s * x + 2.0) / s ** 3)

        first = (f1(self.hi) - f1(self.lo)) / width
        second = (f2(self.hi) - f2(self.lo)) / width
        return first, second


@dataclass(frozen=True)
class Bernoulli(Distribution):
    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise DomainError(f"success probability must be in [0, 1]; got {self.q}")
        object.__setattr__(self, "tag", "bernoulli")
        object.__setattr__(self, "support", Support.interval(0.0, 1.0))

    def moment(self, k):
        return 1.0 if k == 0 else self.q

    def sample(self, rng, size):
        return (rng.random(size) < self.q).astype(float)

    def mgf(self, s):
        return self.q * math.exp(s) + 1.0 - self.q

    def tilted_first_second(self, s):
        # X e^{sX} and X^2 e^{sX} are e^s on X = 1 and 0 on X = 0
        return self.q, self.q


@dataclass(frozen=True)
class PointMass(Distribution):
    c: float
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        lo = self.c if self.lo is None else self.lo
        hi = self.c + 1.0 if self.hi is None else self.hi
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        support = Support.interval(lo, hi)
        if not support.contains(self.c):
            raise DomainError(f"point mass at {self.c} outside [{lo}, {hi}]")
        object.__setattr__(self, "tag", "point")
        object.__setattr__(self, "support", support)

    def moment(self, k):
        return self.c ** k

    def positive_part_moment(self, p):
        return max(self.c ** p, 0.0)

    def sample(self, rng, size):
        return np.full(size, self.c)

    def mgf(self, s):
        return math.exp(s * self.c)

    def tilted_first_second(self, s):
        e = math.exp(s * (self.c - self.hi))
        return self.c * e, self.c * self.c * e


@dataclass(frozen=True)
class Beta(Distribution):
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError(
                f"beta shape parameters must be positive; got {self.a}, {self.b}")
        object.__setattr__(self, "tag", "beta")
        object.__setattr__(self, "support", Support.interval(0.0, 1.0))

    def moment(self, k):
        m = 1.0
        for j in range(k):
            m *= (self.a + j) / (self.a + self.b + j)
        return m

    def sample(self, rng, size):
        return rng.beta(self.a, self.b, size)

    def _pdf(self, x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        lg = math.lgamma
        lognorm = lg(self.a + self.b) - lg(self.a) - lg(self.b)
        return math.exp(lognorm + (self.a - 1) * math.log(x)
                        + (self.b - 1) * math.log(1 - x))

    def mgf(self, s):
        return _quad(lambda x: math.exp(s * x) * self._pdf(x), 0.0, 1.0)

    def tilted_first_second(self, s):
        # E X^k e^{sX} = E(X^k) M(a+k, a+b+k, s): the moment series of the
        # tilted law, summed in closed form by Kummer's function
        a, ab = self.a, self.a + self.b
        return (self.moment(1) * _kummer_scaled(a + 1.0, ab + 1.0, s),
                self.moment(2) * _kummer_scaled(a + 2.0, ab + 2.0, s))


@dataclass(frozen=True)
class TruncatedExponential(Distribution):
    """b minus an Exponential(rate): unbounded below, capped above at b."""

    b: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise DomainError(f"rate must be positive; got {self.rate}")
        object.__setattr__(self, "tag", "truncexp")
        object.__setattr__(self, "support", Support.upper_only(self.b))

    def moment(self, k):
        # E(b - E)^k with E exponential: binomial over E(E^j) = j!/rate^j
        total = 0.0
        for j in range(k + 1):
            total += (math.comb(k, j) * self.b ** (k - j) * (-1.0) ** j
                      * math.factorial(j) / self.rate ** j)
        return total

    def positive_part_moment(self, p):
        if p % 2 == 0:
            return self.moment(p)
        if self.b <= 0:
            return 0.0
        return _quad(
            lambda e: (self.b - e) ** p * self.rate * math.exp(-self.rate * e),
            0.0, self.b)

    def sample(self, rng, size):
        return self.b - rng.exponential(1.0 / self.rate, size)

    def mgf(self, s):
        if s <= -self.rate:
            raise DomainError(f"MGF diverges for s <= -rate = {-self.rate}")
        return math.exp(s * self.b) * self.rate / (self.rate + s)

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
_RESCALE = 2.0 ** 800
_ASYMPTOTIC_S = 1e3
_MAX_TERMS = 10 ** 6


def _kummer_scaled(alpha: float, gamma: float, s: float) -> float:
    """e^{-s} M(alpha, gamma, s) for 0 < alpha < gamma, where M is Kummer's
    confluent hypergeometric function sum_n (alpha)_n/(gamma)_n s^n/n!.

    Above s = 1e3 the large-s expansion is used where it converges. Else the
    power series is summed over positive terms only (Kummer's transformation
    handles s < 0), rescaled as they grow, so large s neither overflows nor
    cancels; its terms shrink only past n = s, so it is capped at 10^6 terms.
    """
    if not math.isfinite(s):
        raise DomainError(f"tilted moments need a finite tilt; got {s}")
    if s < 0.0:
        return math.exp(-s) * _kummer_scaled(gamma - alpha, gamma, -s)
    if s > _ASYMPTOTIC_S:
        value = _kummer_asymptotic(alpha, gamma, s)
        if value is not None:
            return value
    term = total = 1.0
    log_scale = -s
    n = 0
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
            log_scale += math.log(_RESCALE)
    if log_scale > -700.0:
        return total * math.exp(log_scale)
    return math.exp(math.log(total) + log_scale)


def _kummer_asymptotic(alpha: float, gamma: float, s: float) -> float | None:
    """e^{-s} M(alpha, gamma, s) from its large-s expansion

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
    return total * math.exp(math.lgamma(gamma) - math.lgamma(alpha)
                            + (alpha - gamma) * log_s)


def _tilted_series(dist: Distribution, s: float, power: int) -> float:
    # E X^power e^{sX} = sum_k s^k E(X^{k+power})/k!; bounded supports only
    total = 0.0
    term = 1.0
    for k in range(0, 60):
        total += term * dist.moment(k + power)
        term *= s / (k + 1)
        if abs(term) * max(abs(dist.support.upper), 1.0) ** (k + 1 + power) \
                <= 1e-17 * max(abs(total), 1e-30):
            break
    return total


_FACTORIES = {
    "uniform": lambda params: Uniform(params.pop("lo", 0.0), params.pop("hi", 1.0)),
    "bernoulli": lambda params: Bernoulli(params.pop("q")),
    "point": lambda params: PointMass(params.pop("c"), params.pop("lo", None),
                                      params.pop("hi", None)),
    "beta": lambda params: Beta(params.pop("a"), params.pop("b")),
    "truncexp": lambda params: TruncatedExponential(params.pop("b", 1.0),
                                                    params.pop("rate", 1.0)),
}
_ALIASES = {"truncated-exponential": "truncexp"}


def make_distribution(tag: str, **params) -> Distribution:
    """Build a distribution from its string tag and keyword parameters."""
    key = _ALIASES.get(tag, tag)
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ConfigError(
            f"unknown distribution tag {tag!r}; known: "
            f"{sorted(_FACTORIES)}")
    params = dict(params)
    try:
        dist = factory(params)
    except KeyError as exc:
        raise ConfigError(f"distribution {tag!r} needs parameter {exc}") from None
    if params:
        raise ConfigError(
            f"unused parameters for {tag!r}: {sorted(params)}")
    return dist
