"""Generators of always-feasible moment vectors for randomized tests, a
call counter, mpmath references for the MGF envelope, and exact tails of
sums for the Monte-Carlo oracle.

Finite mixtures of point masses are genuine distributions, so their exact
moments satisfy every feasibility inequality by construction. The
references share no code with tailbound: each law's MGF is its closed form,
and the envelope's derivatives are summed at 30 digits.
"""

import math

import mpmath
import numpy as np
import pytest

from tailbound import MomentVector, Support, bennett_bound
from tailbound.special import poly_exp_roots


class CallCounter:
    """Counts the calls of owner.name (a module's function or a class's
    method), patched through pytest's monkeypatch."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def random_interval_mv(rng, p, lo=0.0, hi=None, min_mean=1e-3):
    """Feasible moment vector of an atom mixture on [lo, hi], lo >= 0."""
    b = float(hi) if hi is not None else float(rng.uniform(0.5, 3.0))
    while True:
        k = int(rng.integers(2, 6))
        atoms = rng.uniform(lo, b, k)
        weights = rng.dirichlet(np.ones(k))
        mu = tuple(float(np.sum(weights * atoms ** j)) for j in range(1, p + 1))
        if mu[0] < min_mean or mu[p - 1] <= 0.0:
            continue
        return MomentVector(p, mu, Support.interval(lo, b))


def random_upper_bounded_mv(rng, p, b=1.0, lo=-3.0):
    """Feasible moment vector of an atom mixture on [lo, b], stored as a
    variable bounded above only (exact positive-part top moment)."""
    while True:
        k = int(rng.integers(2, 7))
        atoms = rng.uniform(lo, b, k)
        weights = rng.dirichlet(np.ones(k))
        pos = float(np.sum(weights * np.maximum(atoms ** p, 0.0)))
        if pos <= 1e-8:
            continue
        mu = tuple(float(np.sum(weights * atoms ** j)) for j in range(1, p + 1))
        return MomentVector(p, mu, Support.upper_only(b), pos)


def w_defining_residual(result):
    """Relative residual of the Lambert evaluation behind a p=3 root."""
    a0, a1 = result.alpha
    if a1 == 0.0:
        return 0.0
    z = a0 / a1
    w = z - result.y_star
    u = z - math.log(a1)
    if u <= 690.0:
        x = math.exp(u)
        return abs(w * math.exp(min(w, 700.0)) - x) / max(x, 1.0)
    return abs(w + math.log(w) - u) / max(abs(u), 1.0)


def bennett_bound_generic(spec, t, p):
    """bennett_bound with its roots from the generic solver, which is the
    reference for the closed form that bennett_bound takes at p = 3."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr("tailbound.bennett.solve_poly_exp",
                  poly_exp_roots)
        return bennett_bound(spec, t, p)


def exact_mgf(dist, s):
    """E e^{sX} from the law's closed form, at 30 digits."""
    exp = mpmath.exp
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        if dist.tag == "uniform":
            # (e^{s hi} - e^{s lo})/(s w), with expm1 so that a small s w
            # does not cancel
            sw = s * (mpmath.mpf(dist.hi) - dist.lo)
            value = exp(s * dist.lo) * (mpmath.expm1(sw) / sw if sw else 1)
        elif dist.tag == "bernoulli":
            value = dist.q * exp(s) + 1 - dist.q
        elif dist.tag == "point":
            value = exp(s * dist.c)
        elif dist.tag == "truncexp":
            value = exp(s * dist.b) * dist.rate / (dist.rate + s)
        elif dist.tag == "beta":
            value = mpmath.hyp1f1(dist.a, mpmath.mpf(dist.a) + dist.b, s)
        else:
            raise ValueError(f"no exact MGF for {dist.tag}")
        return float(value)


def envelope_derivative(mv, y, k):
    """k-th y-derivative of the envelope at unit scale (y = s b),

        v(y) = mu_p/b^p (e^y - sum_{j<p} y^j/j!) + sum_{j<p} mu_j y^j/(b^j j!),

    at 30 digits, for mu_0 = 1 and b the support's upper end."""
    with mpmath.workdps(30):
        y, b = mpmath.mpf(y), mpmath.mpf(mv.support.upper)
        mu = [1, *mv.mu]
        p = mv.p

        def poly(j):  # k-th derivative of y^j/j!
            return y ** (j - k) / mpmath.factorial(j - k)

        tail = mpmath.exp(y) - sum(poly(j) for j in range(k, p))
        value = mu[p] / b ** p * tail + sum(
            mu[j] / b ** j * poly(j) for j in range(k, p))
        return float(value)


def irwin_hall_sf(n, x):
    """P(U_1 + ... + U_n >= x) for independent Uniform(0, 1) variables,
    as F(n - x) by symmetry, with the Irwin-Hall distribution function
    F(z) = sum_{k <= z} (-1)^k C(n, k) (z - k)^n / n! summed at n + 40
    digits, which its cancellation needs."""
    if x <= 0:
        return 1.0
    if x >= n:
        return 0.0
    with mpmath.workdps(n + 40):
        z = mpmath.mpf(n) - x
        total = mpmath.fsum((-1) ** k * mpmath.binomial(n, k) * (z - k) ** n
                            for k in range(int(mpmath.floor(z)) + 1))
        return float(total / mpmath.factorial(n))


def binomial_sf(n, q, k):
    """P(K >= k) for K ~ Binomial(n, q), at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        return float(mpmath.fsum(
            mpmath.binomial(n, j) * q ** j * (1 - q) ** (n - j)
            for j in range(max(k, 0), n + 1)))
