"""Analytic distribution handles.

These back the sampling oracle, the exact-MGF oracle, the tilted-moment
expectations of the infinite-order bound, and the CLI's named-distribution
inputs. Each handle knows its raw moments, how to sample itself, and its
moment-generating function; continuous laws without a closed form fall
back to adaptive quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import FLOAT_RANGE_ERRORS, ConfigError, DomainError, OracleError
from .moments import MomentVector, Support
from .special import _exp

if TYPE_CHECKING:
    import numpy as np

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
        """(E X e^{sX}, E X^2 e^{sX}), both scaled by one positive factor.

        Callers use only the ratio of the two and their signs, which the
        common factor leaves unchanged. The factor is e^{-s*upper}, which
        keeps e^{sX} from overflowing at large tilts, unless the law picks
        another to keep both entries normal floats (see Beta).
        """
        raise NotImplementedError

    def moment_vector(self, p: int) -> MomentVector:
        try:
            mu = tuple(self.moment(k) for k in range(1, p + 1))
            pos = self.positive_part_moment(p)
        except FLOAT_RANGE_ERRORS as exc:
            raise DomainError(f"{self}: a moment of order <= {p} leaves the "
                              f"float range ({exc})") from None
        return MomentVector(p, mu, self.support, pos)


def _quad(fn, lo, hi):
    # imported here: scipy.integrate costs about 50 MiB and 0.3 s to import,
    # and only the laws without closed forms need it
    from scipy import integrate

    # with full_output, quad returns a fourth item (its message) instead of
    # warning whenever it flags the result: no convergence, roundoff, a
    # probably divergent integral
    value, err, _, *flag = integrate.quad(
        fn, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
        full_output=1)
    if flag:
        raise OracleError(f"quadrature did not converge (value={value}, "
                          f"err={err}): {flag[0]}")
    # an integrand saturated to inf gives (inf, inf), which passes through
    if math.isnan(value) or err > 1e-8 * max(abs(value), 1.0):
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
        # (hi^(k+1) - lo^(k+1)) / ((k+1)(hi - lo)) with the division done
        # exactly, as sum_j hi^j lo^(k-j) by Horner's rule in hi. For lo >= 0
        # every term is positive, so a narrow support far from 0 cancels
        # none, and no partial sum overflows before the moment does
        lo, hi = self.lo, self.hi
        total = lo_j = 1.0
        for _ in range(k):
            lo_j *= lo
            total = total * hi + lo_j
        return total / (k + 1)

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
        # (e^{s hi} - e^{s lo}) / (s width) with the larger exponential
        # factored out: only that factor can overflow, and it saturates
        top = self.hi if s > 0.0 else self.lo
        shrink = -abs(s) * width
        return _exp(s * top) * math.expm1(shrink) / shrink

    def tilted_first_second(self, s):
        # X = lo + w U with U ~ Uniform(0, 1) = Beta(1, 1), and the scaled
        # e^{s(X - hi)} is e^{a(U - 1)} for a = s w. Kummer's function gives
        # m_j = E U^j e^{a(U - 1)} = e^{-a} M(1+j, 2+j, a)/(1+j), and the pair
        # expands in them; for lo >= 0 none of its terms cancel
        lo, w = self.lo, self.hi - self.lo
        m0, m1, m2 = (_from_log(*_kummer_scaled(1.0 + j, 2.0 + j, s * w))
                      / (1 + j) for j in range(3))
        return lo * m0 + w * m1, lo * lo * m0 + 2.0 * lo * w * m1 + w * w * m2


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
        return self.q * _exp(s) + 1.0 - self.q

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
        import numpy as np

        return np.full(size, self.c)

    def mgf(self, s):
        return _exp(s * self.c)

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

    def _log_pdf(self, x):
        if x <= 0.0 or x >= 1.0:
            return -math.inf
        lg = math.lgamma
        lognorm = lg(self.a + self.b) - lg(self.a) - lg(self.b)
        return (lognorm + (self.a - 1) * math.log(x)
                + (self.b - 1) * math.log(1 - x))

    def mgf(self, s):
        # e^{sx} times the density, in log form: it saturates to inf only
        # where the product itself overflows, and then so does the integral
        return _quad(lambda x: _exp(s * x + self._log_pdf(x)), 0.0, 1.0)

    def tilted_first_second(self, s):
        # E X^k e^{sX} = E(X^k) M(a+k, a+b+k, s): the moment series of the
        # tilted law, summed in closed form by Kummer's function
        a, ab = self.a, self.a + self.b
        m1, l1 = _kummer_scaled(a + 1.0, ab + 1.0, s)
        m2, l2 = _kummer_scaled(a + 2.0, ab + 2.0, s)
        first = self.moment(1) * _from_log(m1, l1)
        second = self.moment(2) * _from_log(m2, l2)
        if not (second >= _NORMAL_MIN and first < math.inf):
            # the e^{-s} scale leaves the float range: for a law massed near
            # 0, E X e^{sX} stays moderate while e^{-s} underflows past a
            # tilt of about 700. The factor e^{-s-l1} instead brings the
            # first entry to E(X) m1, and the second keeps its ratio to it
            first = self.moment(1) * m1
            second = self.moment(2) * _from_log(m2, l2 - l1)
        return first, second


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
        return _exp(s * self.b) * self.rate / (self.rate + s)

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
    """
    if not math.isfinite(s):
        raise DomainError(f"tilted moments need a finite tilt; got {s}")
    if s < 0.0:
        m, l = _kummer_scaled(gamma - alpha, gamma, -s)
        return m, l - s
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
    return total, log_scale


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


def moments_uniform(p: int, lo: float, hi: float) -> MomentVector:
    """Exact raw moments of the continuous uniform law on [lo, hi]."""
    return Uniform(lo, hi).moment_vector(p)


def moments_bernoulli(p: int, q: float) -> MomentVector:
    """Raw moments of a {0,1} variable with success probability q."""
    return Bernoulli(q).moment_vector(p)


def moments_beta(p: int, a: float, b: float) -> MomentVector:
    """Raw moments of the Beta(a, b) law on [0, 1]."""
    return Beta(a, b).moment_vector(p)


def moments_point(p: int, c: float, support: Support) -> MomentVector:
    """Raw moments of the point mass at c inside the given support; a
    support with no lower end becomes [c, upper]."""
    return PointMass(c, support.lower, support.upper).moment_vector(p)


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
