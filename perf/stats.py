"""Statistics of the benchmark: percentile rule, quartiles, outage search.

Pure functions over plain numbers; perf/run.py applies them to the records
fdgm_perf prints and perf/test_stats.py tests them.
"""

import bisect
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, pct):
    """Nearest-rank percentile `pct` (an integer in 1..100) of `samples`.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond the
    rank: p99 needs at least 1000 samples, p50 at least 20.
    """
    if not isinstance(pct, int) or not 1 <= pct <= 100:
        raise ValueError(f"percentile must be an integer in 1..100, got {pct!r}")
    n = len(samples)
    rank = (pct * n + 99) // 100  # ceil(pct * n / 100) in exact integer arithmetic
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{pct} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {n - rank}")
    return sorted(samples)[rank - 1]


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def outage_gaps(deliveries, probes, before_ms=20.0, after_ms=2000.0):
    """Longest gap between consecutive deliveries per fault onset.

    `deliveries` are sorted global-first A-delivery instants (ms).  For each
    onset t in `probes`, the result is the longest gap d[i+1] - d[i] whose
    start d[i] lies in [t - before_ms, t + after_ms]; 0 when no gap starts
    there.
    """
    out = []
    for t in probes:
        hi = t + after_ms
        i = bisect.bisect_left(deliveries, t - before_ms)
        longest = 0.0
        while i + 1 < len(deliveries) and deliveries[i] <= hi:
            longest = max(longest, deliveries[i + 1] - deliveries[i])
            i += 1
        out.append(longest)
    return out


def fail_frac(broadcast, undelivered, shed):
    """Share of offered messages that were never delivered anywhere.

    Shed arrivals (refused by flow control) count as failures.
    """
    offered = broadcast + shed
    if offered <= 0:
        raise ValueError("fail_frac of no offered messages")
    return (undelivered + shed) / offered
