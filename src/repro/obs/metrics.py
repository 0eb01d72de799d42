"""Metrics digests: read off a finished run's results, stored once.

A digest is a plain dict with four sections, one per metric kind —
``counters`` and ``gauges`` (name -> number), ``histograms`` (name ->
:func:`summarize` of a latency list) and ``series`` (name -> ``[t,
value]`` points) — under dotted names (``service.completed``,
``optimizer.candidates``).  Every value is computed from what a phase
returned after it returned, so a digest of a seeded run is the same
bytes every time.  :func:`metrics_table` renders one.

:func:`percentile` lives here as the *one* percentile implementation in
the repository; ``repro.service.metrics`` imports it from here.
"""

from __future__ import annotations

from ..bench.report import format_table
from ..errors import ObsError


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation (deterministic).

    Matches numpy's default ``linear`` method but avoids float-platform
    drift by staying in pure python.  ``p`` is in ``[0, 100]``.  This is
    the single percentile implementation in the repository; everything
    else imports it.
    """
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ObsError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def summarize(values: list[float]) -> dict:
    """A latency list as a digest's histogram entry: ``count``, the
    ``mean`` over the sorted values and ``p50``/``p95``/``p99`` (all
    zero when the list is empty)."""
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        "p50": percentile(ordered, 50.0),
        "p95": percentile(ordered, 95.0),
        "p99": percentile(ordered, 99.0),
    }


#: Digest section -> the kind a table row names and how it prints a value.
_ROWS = {
    "counters": ("counter", str),
    "gauges": ("gauge", "{:g}".format),
    "histograms": (
        "histogram",
        lambda h: "n={count} mean={mean:.4f} p50={p50:.4f} p95={p95:.4f} "
        "p99={p99:.4f}".format(**h),
    ),
    "series": ("series", lambda points: f"{len(points)} points"),
}


def metrics_table(digest: dict) -> str:
    """A digest as one printable ``metric | kind | value`` table, its
    rows sorted by name across kinds."""
    rows = sorted(
        [name, kind, render(value)]
        for section, (kind, render) in _ROWS.items()
        for name, value in digest[section].items()
    )
    return format_table(["metric", "kind", "value"], rows, title="metrics")
