"""Order statistics for the benchmark's latency samples.

Percentiles are nearest-rank on the sorted samples, so every reported
value is a latency that was actually measured and a higher percentile
can never read below a lower one: the tail is never below the median.
"""

import math

# Tail percentiles in the order they become reportable as samples grow.
LADDER = (90.0, 99.0, 99.9)

# A tail percentile is reported only with at least this many samples
# above its rank; fewer make it a single order statistic of noise.
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of percentile p among n sorted samples."""
    return min(n, max(1, math.ceil(p / 100.0 * n)))


def percentile(samples, p):
    s = sorted(samples)
    if not s:
        raise ValueError("percentile of no samples")
    return s[_rank(len(s), p) - 1]


def median(samples):
    return percentile(samples, 50.0)


def tail(samples):
    """(percentile, value, samples beyond it) for the highest LADDER
    percentile with at least MIN_BEYOND samples beyond its rank, or None
    when even the lowest has too few."""
    s = sorted(samples)
    n = len(s)
    best = None
    for p in LADDER:
        k = _rank(n, p)
        if n - k >= MIN_BEYOND:
            best = (p, s[k - 1], n - k)
    return best


def geomean(samples):
    if not samples or min(samples) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in samples) / len(samples))
