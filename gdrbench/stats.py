"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    beyond the reported rank: a p95 needs 200 samples, a p99 1000.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


def summary(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4), extremes and spread."""
    values = list(values)
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }
