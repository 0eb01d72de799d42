"""The unified metrics registry: counters, gauges, histograms, series.

One registry holds every metric a run produces — admission counters,
queue-wait and response-time histograms, optimizer cache counters,
breaker-state series — under dotted names (``service.completed``,
``optimizer.candidates``).  Everything is plain deterministic
arithmetic: a registry populated from a seeded run digests to the same
bytes every time.

:func:`percentile` lives here as the *one* percentile implementation in
the repository; ``repro.service.metrics`` re-exports it for backward
compatibility and the stress harness imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.report import format_table
from ..errors import ObsError


def _interpolate(ordered: list[float], p: float) -> float:
    """Linear interpolation over an already-sorted, non-empty list."""
    if not 0.0 <= p <= 100.0:
        raise ObsError("percentile must be in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation (deterministic).

    Matches numpy's default ``linear`` method but avoids float-platform
    drift by staying in pure python.  ``p`` is in ``[0, 100]``.  This is
    the single percentile implementation in the repository; everything
    else re-exports it.
    """
    if not values:
        return 0.0
    return _interpolate(sorted(values), p)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value


@dataclass
class Histogram:
    """An exact value distribution, filled in batches.

    Observations are kept in sorted order, so a percentile query is an
    O(1) interpolation between batches, and exact: the digest is the
    full distribution, not an approximation sketch.
    """

    name: str
    _sorted: list[float] = field(default_factory=list)

    def observe_many(self, values: list[float]) -> None:
        """Fold a batch of observations into the distribution.

        One extend-then-sort pass per batch; the service layer folds a
        whole run's latencies in one call.
        """
        if not values:
            return
        self._sorted.extend(values)
        self._sorted.sort()

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._sorted)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return sum(self._sorted)

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        if not self._sorted:
            return 0.0
        return self.total / len(self._sorted)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of the observations so far."""
        if not self._sorted:
            return 0.0
        return _interpolate(self._sorted, p)

    @property
    def p50(self) -> float:
        """Median observation."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile observation."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile observation."""
        return self.percentile(99.0)


@dataclass
class Series:
    """A timestamped sequence of samples (e.g. breaker states).

    Values may be numbers or short strings; the series is append-only
    and ordered by insertion, which for simulator feeds means ordered
    by virtual time.
    """

    name: str
    points: list[tuple[float, object]] = field(default_factory=list)

    def append(self, t: float, value: object) -> None:
        """Record ``value`` at virtual time ``t``."""
        self.points.append((t, value))

    @property
    def last(self) -> object | None:
        """The most recent value (``None`` when empty)."""
        return self.points[-1][1] if self.points else None


class MetricsRegistry:
    """Name-keyed metric store with get-or-create accessors.

    Metric kinds are fixed at first registration: asking for
    ``counter("x")`` after ``gauge("x")`` raises, which catches
    cross-subsystem name collisions early.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ObsError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        """Get or create the series ``name``."""
        return self._get(name, Series)

    def __contains__(self, name: str) -> bool:
        """Is a metric registered under ``name``?"""
        return name in self._metrics

    def __len__(self) -> int:
        """Number of registered metrics."""
        return len(self._metrics)

    def names(self) -> list[str]:
        """Registered metric names in registration order."""
        return list(self._metrics)

    def as_dict(self) -> dict:
        """A JSON-ready digest of every metric, sorted by name.

        Histograms digest to summary statistics (count/mean/p50/p95/p99)
        rather than raw observations; series keep their full point list.
        """
        digest: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                digest["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                digest["gauges"][name] = metric.value
            elif isinstance(metric, Histogram):
                digest["histograms"][name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "p50": metric.p50,
                    "p95": metric.p95,
                    "p99": metric.p99,
                }
            elif isinstance(metric, Series):
                digest["series"][name] = [
                    [t, value] for t, value in metric.points
                ]
        return digest

    def to_table(self) -> str:
        """All metrics as one printable table (sorted by name)."""
        rows = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                rows.append([name, "counter", str(metric.value)])
            elif isinstance(metric, Gauge):
                rows.append([name, "gauge", f"{metric.value:g}"])
            elif isinstance(metric, Histogram):
                rows.append(
                    [
                        name,
                        "histogram",
                        f"n={metric.count} mean={metric.mean:.4f} "
                        f"p50={metric.p50:.4f} p95={metric.p95:.4f} "
                        f"p99={metric.p99:.4f}",
                    ]
                )
            elif isinstance(metric, Series):
                rows.append([name, "series", f"{len(metric.points)} points"])
        return format_table(["metric", "kind", "value"], rows, title="metrics")
