"""Real master/slave parallel execution on multiprocessing."""

from .executor import (
    AdjustmentPlan,
    ParallelIndexScan,
    ParallelSeqScan,
    ScanReport,
)
from .partition import (
    PageAssignment,
    intervals_from_separators,
    maxpage_round,
    page_assignments,
    repartition_intervals,
)

__all__ = [
    "AdjustmentPlan",
    "PageAssignment",
    "ParallelIndexScan",
    "ParallelSeqScan",
    "ScanReport",
    "intervals_from_separators",
    "maxpage_round",
    "page_assignments",
    "repartition_intervals",
]
