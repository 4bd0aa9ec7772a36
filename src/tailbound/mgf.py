"""Moment-based envelopes of the moment-generating function.

The envelope for a variable X bounded above by b, built from its first p
moments, is

    m(s) = E max(X^p, 0)/b^p * T_{p+1}(s*b) + sum_{j=0}^{p-1} s^j E(X^j)/j!

with T the exponential-series tail. Its key property: the s-derivative of
the envelope is log-convex for nonnegative variables, which makes the
squared ratio of its second to first derivative (the improvement factor fed
into the deviation bounds) a closed-form, nondecreasing function.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import (
    FLOAT_RANGE_ERRORS,
    DegenerateDistributionError,
    DomainError,
)
from .moments import MomentVector
from .special import taylor_remainder

__all__ = [
    "c_factor", "c_factor_from_moments", "i_measure", "mgf_upper_bound",
]

# beyond this the exp(y) terms are factored out of the C ratio to avoid
# overflow; the two branches agree to machine precision at the seam
_FACTOR_OUT_Y = 30.0
# relative shortfall below e^{s mu1} left to rounding, as the moment
# feasibility checks leave 1e-9
_JENSEN_TOL = 1e-9
# log of the largest double
_LOG_MAX = 709.782712893384


def mgf_upper_bound(mv: MomentVector, s: float) -> float:
    """Envelope value at s >= 0 for a variable bounded above by b > 0.

    Exactly 1 at s = 0. A Bernoulli variable attains the envelope with
    p = 1, so the inequality is tight in general. Across the orders of one
    variable (restrict_order(mv, p)), the value at an even p dominates
    the value at p + 1, and on a nonnegative support the values are
    nonincreasing in p: more moments never hurt. A value below Jensen's
    floor e^{s mu1} bounds no E e^{sX}; moments rounded past the float
    range (a positive part stored as 0) can give one, and it is a
    DomainError.
    """
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise DomainError(
            f"the envelope is defined for finite s >= 0; got {s}")
    b = mv.support.upper
    if b <= 0.0:
        raise DomainError(f"upper support bound must be positive; got {b}")
    # a zero moment contributes 0 even where its series term overflowed,
    # which inf * 0 would make NaN
    pos = mv.positive_part_pth
    tail = _tail(pos, b, mv.p, s) if pos else 0.0
    poly = 0.0
    term = 1.0  # s^j / j!
    for j in range(mv.p):
        mu_j = mv.moment(j)
        if mu_j:
            poly += term * mu_j
        term *= s / (j + 1)
    value = tail + poly
    # parts that overflowed with opposite signs sum to NaN; the envelope
    # bounds E e^{sX} > 0 from above, and +inf is its conservative value
    if math.isnan(value):
        return math.inf
    try:
        floor = math.exp(s * mv.mu[0])
    except OverflowError:
        floor = math.inf
    if value < floor * (1.0 - _JENSEN_TOL):
        raise DomainError(
            f"the envelope {value} at s = {s} is below Jensen's floor "
            f"e^(s mu1) = {floor}: moments {mv.mu} with E max(X^p, 0) = "
            f"{pos} are rounded too far to bound E e^(sX)")
    return value


def _tail(pos: float, b: float, p: int, s: float) -> float:
    """pos / b^p * T_{p+1}(s b), for pos > 0 and b > 0, with T the tail of
    the exponential series from x^p/p! on.

    Where b^p or the product leaves the float range it is taken through
    logarithms. T(x) itself is out of range only where it overflowed, and
    then log T(x) <= x stands in, or where it underflowed, and then
    log T(x) <= p log x - log p! + x: each gives an upper bound, close
    where it is used.
    """
    if s == 0.0:
        return 0.0
    x = s * b
    remainder = taylor_remainder(p + 1, x)
    try:
        tail = pos / b ** p * remainder
    except FLOAT_RANGE_ERRORS:
        tail = math.nan
    if 0.0 < tail < math.inf:
        return tail
    if 0.0 < remainder < math.inf:
        log_remainder = math.log(remainder)
    elif remainder == 0.0:
        log_remainder = (p * (math.log(s) + math.log(b)) - math.lgamma(p + 1)
                         + x)
    else:  # inf, or NaN at an overflowed x
        log_remainder = x
    log_tail = math.log(pos) - p * math.log(b) + log_remainder
    return math.inf if log_tail > _LOG_MAX else math.exp(log_tail)


def c_factor(mv: MomentVector, y: float) -> float:
    """Closed-form squared derivative ratio (v''/v')^2 at y >= 0.

    Always in (0, 1], nondecreasing in y, and equal to
    (mu_2/(mu_1*b))^2 at y = 0. Values below 1 are exactly the improvement
    the deviation bound gains from knowing p moments.
    """
    if not mv.support.is_nonnegative:
        raise DomainError("the improvement factor needs a nonnegative support")
    return c_factor_from_moments(y, mv.support.upper, mv.mu)


def c_factor_from_moments(y: float, b: float, mu: Sequence[float]) -> float:
    """c_factor on raw inputs; b may differ from the vector's own bound."""
    y = float(y)
    if not y >= 0.0:
        raise DomainError(f"the improvement factor is defined for y >= 0; got {y}")
    if b <= 0.0:
        raise DomainError(f"scale b must be positive; got {b}")
    mu = tuple(float(m) for m in mu)
    p = len(mu)
    if p < 1:
        raise DomainError("at least the first moment is required")
    if mu[0] <= 0.0:
        raise DegenerateDistributionError(
            f"first moment must be positive; got {mu[0]}")
    if p == 1:
        return 1.0
    mu_p = mu[-1]
    if mu_p <= 0.0:
        raise DegenerateDistributionError(
            f"highest moment must be positive; got {mu_p}")
    if p == 2:
        # e^y divided out of mu2 e^y / (mu2 e^y + b mu1 - mu2), so huge y
        # cannot overflow
        return (mu[1] / (mu[1] + (b * mu[0] - mu[1]) * math.exp(-y))) ** 2

    if y <= _FACTOR_OUT_Y:
        ey = math.exp(y)
        num = mu_p * ey
        den = mu_p * ey
        term = 1.0  # y^j / j!
        for j in range(p - 1):
            if j <= p - 3:
                num += term * (b ** (p - j - 2) * mu[j + 1] - mu_p)
            den += term * (b ** (p - j - 1) * mu[j] - mu_p)
            term *= y / (j + 1)
        return (num / den) ** 2

    # large y: divide both sides by exp(y); y^j/j! * exp(-y) is a Poisson
    # weight, evaluated in log space so huge y cannot overflow
    if y == math.inf:
        return 1.0  # every weight is 0: the factor's limit
    num = mu_p
    den = mu_p
    for j in range(p - 1):
        w = math.exp(j * math.log(y) - math.lgamma(j + 1) - y)
        if j <= p - 3:
            num += w * (b ** (p - j - 2) * mu[j + 1] - mu_p)
        den += w * (b ** (p - j - 1) * mu[j] - mu_p)
    return (num / den) ** 2


def i_measure(mv: MomentVector, c: float) -> float:
    """How informative the p-th moment is given the first p-1, at scale c.

    Defined for variables on [0, 1]; always >= 1, with 1 meaning the top
    moment adds nothing (e.g. any Bernoulli). Its square is the reciprocal
    of c_factor at y = c, which is how it is evaluated.
    """
    c = float(c)
    if c <= 0.0:
        raise DomainError(f"the scale c must be positive; got {c}")
    sup = mv.support
    if sup.lower is None or abs(sup.lower) > 1e-12 or abs(sup.upper - 1.0) > 1e-12:
        raise DomainError(
            f"i_measure needs support [0, 1]; got [{sup.lower}, {sup.upper}] "
            "(rescale first)")
    if mv.mu[-1] <= 0.0:
        raise DegenerateDistributionError(
            f"highest moment must be positive; got {mv.mu[-1]}")
    return c_factor_from_moments(c, 1.0, mv.mu) ** -0.5
