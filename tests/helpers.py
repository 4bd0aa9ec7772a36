"""Generators of always-feasible moment vectors for randomized tests.

Finite mixtures of point masses are genuine distributions, so their exact
moments satisfy every feasibility inequality by construction.
"""

import math

import numpy as np
import pytest

from tailbound import MomentVector, Support, bennett_bound
from tailbound.special import poly_exp_roots


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
    reference for the closed forms that bennett_bound takes at p = 2, 3."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr("tailbound.bennett.solve_poly_exp",
                  lambda alpha, q: poly_exp_roots(alpha))
        return bennett_bound(spec, t, p)
