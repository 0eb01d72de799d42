"""Order statistics the harness reports: medians and quartiles, never best-of."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of a host-time sample."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[min(len(ordered), int(rank)) - 1]
