"""Independent ground truth: sampling, exact MGFs, and brute-force roots.

Everything here deliberately avoids the production code paths it checks:
tail probabilities come from seeded Monte-Carlo simulation, MGFs from the
distribution handles' analytic forms or quadrature, and roots from a dense
numpy grid refined by plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DomainError, OracleError
from .special import RootSet

# trials per sampling block; fixed so results are reproducible per seed
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TailEstimate:
    """Empirical estimate of P(S_n - E(S_n) >= t)."""

    t: float
    probability: float
    stderr: float
    trials: int
    seed: int

    def compatible_with_bound(self, bound: float, sigmas: float = 3.0) -> bool:
        return self.probability <= bound + sigmas * self.stderr


def mc_tail(dist: Distribution, n: int, t: float, trials: int = 1_000_000,
            seed: int = 0) -> TailEstimate:
    """Monte-Carlo frequency of {sum of n i.i.d. draws - n*mean >= t}.

    Deterministic for a given (seed, trials, distribution); sampling is
    blocked to bound memory, with a fixed block size so the stream of
    draws does not depend on available RAM.
    """
    if n < 1:
        raise DomainError(f"need n >= 1; got {n}")
    if trials < 1000:
        raise DomainError(f"need at least 1000 trials; got {trials}")
    rng = np.random.default_rng(seed)
    center = n * dist.mean
    block = max(1, _BLOCK // n)
    hits = 0
    done = 0
    while done < trials:
        m = min(block, trials - done)
        draws = dist.sample(rng, (m, n))
        hits += int(np.count_nonzero(draws.sum(axis=1) - center >= t))
        done += m
    prob = hits / trials
    stderr = math.sqrt(prob * (1.0 - prob) / trials)
    return TailEstimate(t=float(t), probability=prob, stderr=stderr,
                        trials=trials, seed=seed)


def exact_mgf(dist: Distribution, s: float) -> float:
    """E exp(s*X) from the analytic form (or adaptive quadrature)."""
    value = dist.mgf(float(s))
    if not math.isfinite(value) or value <= 0.0:
        raise OracleError(f"MGF evaluation failed for {dist.tag} at s={s}")
    return value


def brute_root_scan(alpha, q: int | None = None,
                    resolution: int = 200_000) -> RootSet:
    """Dense-grid positive roots of alpha[0] - sum alpha[j] x^j = exp(x).

    Sign changes on a resolution-point grid are refined by bisection only.
    This cross-validates the production solver and shares no code with it.
    """
    alpha = tuple(float(a) for a in alpha)
    if q is None:
        q = len(alpha) - 1
    if len(alpha) != q + 1:
        raise DomainError(f"need {q + 1} coefficients for degree {q}")
    if resolution < 100_000:
        raise DomainError(f"resolution must be at least 1e5; got {resolution}")
    if not alpha[0] > 1.0:
        raise DomainError(f"alpha[0] must exceed 1; got {alpha[0]}")

    def residual(x):
        poly = 0.0
        for j in range(q, 0, -1):
            poly = (poly + alpha[j]) * x
        try:
            ex = math.exp(x)
        except OverflowError:
            ex = math.inf
        return alpha[0] - poly - ex

    x_max = max(4.0 * math.log(alpha[0]), 50.0)
    for _ in range(4):
        grid = np.linspace(0.0, x_max, resolution)
        with np.errstate(over="ignore"):
            values = alpha[0] - np.exp(grid)
            for j in range(1, q + 1):
                values -= alpha[j] * grid ** j
        signs = np.sign(values)
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        exact = np.flatnonzero(signs[1:] == 0)
        if flips.size or exact.size:
            break
        x_max *= 2.0
    else:
        raise OracleError(f"brute scan found no sign change for alpha={alpha}")

    roots = [float(grid[i + 1]) for i in exact]
    for i in flips:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = residual(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = residual(mid)
            if fmid == 0.0 or hi - lo <= 1e-14 * (1.0 + mid):
                lo = hi = mid
                break
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return RootSet(tuple(sorted(roots)), False)
