"""Relation statistics for cost estimation.

The optimizer (Section 4) needs conventional System-R-style statistics:
cardinality, page count, per-column distinct counts, min/max, and an
equi-depth histogram for range selectivities.  XPRS keeps "data
distribution information in the system catalog or in the root node of an
index"; we keep it here and let the range-partitioning code consult it
to find balanced partitions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: Equi-depth buckets ANALYZE keeps per column.
HISTOGRAM_BUCKETS = 10


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column.

    Attributes:
        n_distinct: estimated number of distinct values.
        min_value / max_value: observed extrema (None for all-NULL).
        null_fraction: fraction of NULL values.
        histogram: equi-depth bucket boundaries (ascending), such that
            each adjacent pair bounds roughly the same number of rows.
    """

    n_distinct: int
    min_value: Any
    max_value: Any
    null_fraction: float = 0.0
    histogram: tuple = ()

    def selectivity_eq(self, value: Any) -> float:
        """Selectivity of ``col = value`` (uniform over distinct values)."""
        if self.n_distinct <= 0:
            return 0.0
        if self.min_value is not None and isinstance(value, (int, float)):
            if value < self.min_value or value > self.max_value:
                return 0.0
        return (1.0 - self.null_fraction) / self.n_distinct

    def selectivity_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Selectivity of ``low <= col <= high`` (either bound optional).

        Uses the histogram when available, otherwise linear
        interpolation between min and max; falls back to the System-R
        default of 1/3 for an open range when no stats apply.
        """
        if low is None and high is None:
            return 1.0 - self.null_fraction
        if self.histogram and len(self.histogram) >= 2:
            frac = self._histogram_fraction(low, high)
        elif (
            self.min_value is not None
            and self.max_value is not None
            and isinstance(self.min_value, (int, float))
        ):
            span = float(self.max_value) - float(self.min_value)
            if span <= 0:
                inside = (low is None or low <= self.min_value) and (
                    high is None or high >= self.max_value
                )
                frac = 1.0 if inside else 0.0
            else:
                lo = float(self.min_value) if low is None else max(float(low), float(self.min_value))
                hi = float(self.max_value) if high is None else min(float(high), float(self.max_value))
                frac = max(0.0, (hi - lo) / span)
        else:
            frac = 1.0 / 3.0
        del low_inclusive, high_inclusive  # bounds treated as closed; cheap approximation
        return max(0.0, min(1.0, frac * (1.0 - self.null_fraction)))

    def _histogram_fraction(self, low: Any, high: Any) -> float:
        """Fraction of rows in [low, high] according to the histogram."""
        bounds = self.histogram
        n_buckets = len(bounds) - 1

        def position(value: Any, *, right: bool) -> float:
            """Fractional bucket index of ``value`` in the histogram."""
            if right:
                i = bisect.bisect_right(bounds, value)
            else:
                i = bisect.bisect_left(bounds, value)
            if i == 0:
                return 0.0
            if i > n_buckets:
                return float(n_buckets)
            lo, hi = bounds[i - 1], bounds[i]
            if isinstance(lo, (int, float)) and hi != lo:
                inner = (float(value) - float(lo)) / (float(hi) - float(lo))
                return (i - 1) + max(0.0, min(1.0, inner))
            return float(i - 1)

        lo_pos = 0.0 if low is None else position(low, right=False)
        hi_pos = float(n_buckets) if high is None else position(high, right=True)
        return max(0.0, (hi_pos - lo_pos) / n_buckets)


@dataclass(frozen=True)
class RelationStats:
    """Statistics for one relation.

    Attributes:
        row_count: number of rows.
        page_count: number of disk pages.
        avg_row_size: mean encoded row size in bytes.
        columns: per-column statistics, keyed by column name.
    """

    row_count: int
    page_count: int
    avg_row_size: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        """Stats for one column, or None when unknown."""
        return self.columns.get(name)


def build_column_stats(values: Sequence[Any]) -> ColumnStats:
    """Compute :class:`ColumnStats` by scanning a column's values."""
    non_null = [v for v in values if v is not None]
    null_fraction = 0.0 if not values else 1.0 - len(non_null) / len(values)
    if not non_null:
        return ColumnStats(
            n_distinct=0, min_value=None, max_value=None, null_fraction=null_fraction
        )
    ordered = sorted(non_null)
    histogram = equi_depth_histogram(ordered, HISTOGRAM_BUCKETS)
    return ColumnStats(
        n_distinct=len(set(non_null)),
        min_value=ordered[0],
        max_value=ordered[-1],
        null_fraction=null_fraction,
        histogram=histogram,
    )


def equi_depth_histogram(ordered: Sequence[Any], n_buckets: int) -> tuple:
    """Equi-depth bucket boundaries over pre-sorted values.

    Returns ``n_buckets + 1`` boundaries (possibly fewer for tiny
    inputs), first = min and last = max.
    """
    if not ordered:
        return ()
    n_buckets = max(1, min(n_buckets, len(ordered)))
    bounds = [ordered[0]]
    for i in range(1, n_buckets):
        bounds.append(ordered[(i * len(ordered)) // n_buckets])
    bounds.append(ordered[-1])
    return tuple(bounds)


def build_relation_stats(
    rows: Iterable[Sequence[Any]],
    column_names: Sequence[str],
    *,
    page_count: int,
    avg_row_size: float,
) -> RelationStats:
    """Compute full relation statistics from a row iterable."""
    materialized = [tuple(r) for r in rows]
    per_column: dict[str, ColumnStats] = {}
    for i, name in enumerate(column_names):
        per_column[name] = build_column_stats([r[i] for r in materialized])
    return RelationStats(
        row_count=len(materialized),
        page_count=page_count,
        avg_row_size=avg_row_size,
        columns=per_column,
    )
