"""Independent ground truth: sampling and brute-force roots.

Everything here deliberately avoids the production code paths it checks:
tail probabilities come from seeded Monte-Carlo simulation, and roots from
a dense numpy grid refined by plain bisection. numpy is imported inside the
functions that sample or scan, so importing this module does not load it.
"""

from __future__ import annotations

import math
from operator import index

from ._record import Record, setfield
from .distributions import Distribution
from .errors import DomainError, OracleError
from .moments import checked_count
from .special import RootSet

__all__ = ["TailEstimate", "brute_root_scan", "mc_tail"]

# trials per sampling block; fixed so results are reproducible per seed
_BLOCK = 1 << 16
# grid points per block of the brute root scan: each float temporary of a
# block is 64 KiB, and only the int8 sign of every point is kept whole
_SCAN_BLOCK = 8192
# the int8 sign of a NaN residual: neither part of a sign change nor a zero
_NAN_SIGN = 2


class TailEstimate(Record):
    """Empirical estimate of P(S_n - E(S_n) >= t)."""

    __slots__ = _fields = ("t", "probability", "stderr", "trials", "seed")

    def __init__(self, t: float, probability: float, stderr: float,
                 trials: int, seed: int):
        setfield(self, "t", t)
        setfield(self, "probability", probability)
        setfield(self, "stderr", stderr)
        setfield(self, "trials", trials)
        setfield(self, "seed", seed)

    def compatible_with_bound(self, bound: float) -> bool:
        """Whether the estimate is within three standard errors of bound."""
        return self.probability <= bound + 3.0 * self.stderr


def _integer(value, message: str) -> int:
    """value as an int, if it is an integer of any type (numpy's too)."""
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"{message}; got {value!r}") from None


def mc_tail(dist: Distribution, n: int, t: float, trials: int = 1_000_000,
            seed: int = 0) -> TailEstimate:
    """Monte-Carlo frequency of {sum of n i.i.d. draws - n*mean >= t}.

    Deterministic for a given (seed, trials, distribution); sampling is
    blocked to bound memory, with a fixed block size so the stream of
    draws does not depend on available RAM. A block of m trials fills
    n * m consecutive draws, viewed as n rows of m: trial i sums column i,
    so the reduction is n vector adds, not m short row sums.
    """
    n = checked_count(n)
    trials = _integer(trials, "trials must be an integer")
    if trials < 1000:
        raise DomainError(f"need at least 1000 trials; got {trials}")
    seed = _integer(seed, "the seed must be a nonnegative integer")
    if seed < 0:
        raise DomainError(
            f"the seed must be a nonnegative integer; got {seed}")
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"the threshold t must be finite; got {t}")
    import numpy as np

    rng = np.random.default_rng(seed)
    center = n * dist.mean
    block = max(1, _BLOCK // n)
    # both buffers are reused by every block; the last may use a prefix
    buffer = np.empty(n * block)
    sums = np.empty(block)
    hits = 0
    done = 0
    while done < trials:
        m = min(block, trials - done)
        draws = dist.sample(rng, buffer[:n * m].reshape(n, m))
        block_sums = np.add.reduce(draws, axis=0, out=sums[:m])
        block_sums -= center
        hits += int(np.count_nonzero(block_sums >= t))
        done += m
    prob = hits / trials
    stderr = math.sqrt(prob * (1.0 - prob) / trials)
    return TailEstimate(t=t, probability=prob, stderr=stderr,
                        trials=trials, seed=seed)


def brute_root_scan(alpha, q: int | None = None,
                    resolution: int = 200_000) -> RootSet:
    """Dense-grid positive roots of alpha[0] - sum alpha[j] x^j = exp(x).

    Sign changes on a resolution-point grid are refined by bisection only.
    This cross-validates the production solver and shares no code with it.
    The grid is np.linspace(0, x_max, resolution), evaluated in blocks.
    """
    import numpy as np

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
        # linspace's arithmetic: point i is i * step, and the last is x_max
        step = x_max / (resolution - 1)
        signs = np.empty(resolution, dtype=np.int8)
        for i0 in range(0, resolution, _SCAN_BLOCK):
            i1 = min(i0 + _SCAN_BLOCK, resolution)
            grid = np.arange(i0, i1) * step
            if i1 == resolution:
                grid[-1] = x_max
            with np.errstate(over="ignore"):
                values = alpha[0] - np.exp(grid)
                for j in range(1, q + 1):
                    values -= alpha[j] * grid ** j
            block = np.sign(values)
            block[np.isnan(block)] = _NAN_SIGN
            signs[i0:i1] = block
        flips = np.flatnonzero(signs[:-1] * signs[1:] == -1)
        exact = np.flatnonzero(signs[1:] == 0)
        if flips.size or exact.size:
            break
        x_max *= 2.0
    else:
        raise OracleError(f"brute scan found no sign change for alpha={alpha}")

    def point(i):
        return x_max if i == resolution - 1 else int(i) * step

    roots = [point(i + 1) for i in exact]
    for i in flips:
        lo, hi = point(i), point(i + 1)
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
