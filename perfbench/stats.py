"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_TAIL", "median", "percentile", "tail", "tail_percentile"]

# A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
TAIL_CANDIDATES = (0.99, 0.98, 0.95, 0.90, 0.75, 0.50)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile, up to p99, that leaves at least
    :data:`MIN_TAIL` of ``n`` samples beyond it (0.5 at the least)."""
    for q in TAIL_CANDIDATES:
        if n * (1.0 - q) >= MIN_TAIL - 1e-9:
            return q
    return 0.5


def tail(values) -> float:
    """The tail percentile of ``values`` by :func:`tail_percentile`."""
    return percentile(values, tail_percentile(len(values)))
