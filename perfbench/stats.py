"""Summary statistics of one run: throughput, median and tail latency.

A failed operation counts as infinitely slow, so it can only push the
latency percentiles up, never hide among fast successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# reported tail percentiles, highest first; a percentile is usable when at
# least MIN_BEYOND samples lie beyond it
LADDER = (99, 95, 90, 75)
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> int | None:
    """Highest percentile in LADDER with at least MIN_BEYOND samples beyond
    it, or None below 40 samples (the median is then all there is)."""
    for q in LADDER:
        if n_samples * (100 - q) >= MIN_BEYOND * 100:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    i = int(math.floor(pos))
    frac = pos - i
    if frac == 0.0 or i + 1 >= len(xs):
        return xs[i]
    if math.isinf(xs[i + 1]):
        return xs[i + 1]
    return xs[i] + (xs[i + 1] - xs[i]) * frac


@dataclass
class Tally:
    """Durations and outcomes of the timed operations of one run."""

    seconds: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    def add(self, seconds: float, ok: bool) -> None:
        self.seconds.append(seconds)
        self.ok.append(ok)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def ops_per_s(self) -> float:
        """Completed operations per second of timed work (failed ones cost
        time but complete nothing)."""
        return (self.attempted - self.failed) / math.fsum(self.seconds)

    def latency_ms(self, q: float) -> float:
        values = [s * 1e3 if ok else math.inf for s, ok in zip(self.seconds, self.ok)]
        return percentile(values, q)
