import math

import pytest

from stats import Tally, percentile, tail_percentile


@pytest.mark.parametrize("n, q", [
    (39, None), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
    (999, 95), (1000, 99), (12000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert n * (100 - q) / 100 >= 10


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 75) == pytest.approx(3.25)


def test_percentile_of_failed_samples_is_infinite_only_past_them():
    values = [1.0] * 9 + [math.inf]
    assert percentile(values, 50) == 1.0
    assert percentile(values, 100) == math.inf


def test_tally_counts_attempted_and_failed():
    tally = Tally()
    for i in range(40):
        tally.add(0.01, ok=(i % 20 != 0))
    assert tally.attempted == 40
    assert tally.failed == 2
    # failed operations take time but complete nothing
    assert tally.ops_per_s() == pytest.approx(38 / 0.4)
    # and count as infinitely slow, so the tail only moves up
    assert tally.latency_ms(50) == pytest.approx(10.0)
    assert tally.latency_ms(99) == math.inf
