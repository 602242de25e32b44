"""Latency summaries: the median and the tail percentile rule."""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail(latencies, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` ops above it.

    Returns (percentile, value, n_beyond), or None when too few ops exist.
    A failed op enters as +inf: a failure misses every latency limit, so a
    change that turns failures into slow successes never reads as worse.
    The percentile is the nearest-rank order statistic.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in ladder:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1], n - rank
    return None


def median(values) -> float:
    return float(statistics.median(values))
