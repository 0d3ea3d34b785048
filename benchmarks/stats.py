"""Order statistics used by the benchmark: percentiles and the tail percentile."""

from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10


def percentile(sorted_values, p):
    """The p-th percentile (0 < p < 100), interpolating between closest ranks.

    The value sits at rank h = (n+1)p/100, as in ``statistics.quantiles``;
    ranks below 1 or above n clamp to the extremes.  p = 50 is the median.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    h = (n + 1) * p / 100
    if h <= 1:
        return sorted_values[0]
    if h >= n:
        return sorted_values[-1]
    lo = math.floor(h)
    below, above = sorted_values[lo - 1], sorted_values[lo]
    return below + (h - lo) * (above - below)


def tail_percentile(n):
    """Highest integer percentile of an n-sample with TAIL_MIN_BEYOND samples above it.

    The p-th percentile lies at rank h = (n+1)p/100, so the n - floor(h)
    samples ranked above floor(h) lie beyond it.  Returns None when no p
    with h >= 1 leaves enough samples beyond.
    """
    for p in range(99, 0, -1):
        h = math.floor((n + 1) * p / 100)
        if h >= 1 and n - h >= TAIL_MIN_BEYOND:
            return p
    return None
