"""CPU speed calibration, for timings that compare across runs.

On a shared host the same pure-Python work runs up to 1.5 times slower
from one tenth of a second to the next, as other tenants load the CPU.
The benchmark therefore runs a fixed calibration loop (no tailbound code)
before and after every timed operation and scales the operation's wall
time by REF_S over the mean of the two loop times: the result is the time
the operation would take at the speed where the loop takes REF_S. Set-up
is scaled the same way by tenth-of-a-second calibration windows just
before the worker starts and just after it is ready. Raw wall times are
kept beside the scaled ones in every result file.
"""

from __future__ import annotations

import statistics
import time

# the loop's typical time on the machine the reference figures come from
# (2.1 GHz Xeon, Python 3.11); only the ratio to it matters
REF_S = 1.2e-4


def _loop() -> float:
    total = 0.0
    seen = {}
    for i in range(600):
        total += (i * 1.000001) ** 0.5
        seen[i & 31] = total
    return total


def sample() -> float:
    """Wall seconds of one calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def window(seconds: float = 0.1) -> float:
    """Median loop time over a short window, for calibrating longer spans."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(sample())
    return statistics.median(samples)


def scale(seconds: float, cal_before: float, cal_after: float) -> float:
    """seconds at the reference speed, given calibrations around them."""
    return seconds * REF_S / (0.5 * (cal_before + cal_after))
