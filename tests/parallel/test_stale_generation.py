"""Regression tests: stale-generation reports must be discarded.

The bug: the master collected position reports by *count*, so a slow
slave's CurPage / RemainingIntervals from before a completed adjustment
round could be counted as a fresh report in the next round.  Applying
it rewinds that slave's position past pages the new partition already
covers — pages get scanned twice (or the round wedges on a missing
fresh report).  These tests inject exactly that straggler; on the
pre-fix code they fail with duplicated rows, a KeyError in the round,
or a spurious "unsolicited report" ProtocolError.
"""

import pytest

from repro.catalog import Schema
from repro.config import MachineConfig
from repro.parallel import AdjustmentPlan, ParallelIndexScan, ParallelSeqScan
from repro.parallel import protocol as msg
from repro.storage import BTreeIndex, DiskArray, HeapFile

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))
N_ROWS = 600


@pytest.fixture(scope="module")
def heap():
    h = HeapFile(SCHEMA, DiskArray(MachineConfig(processors=2, disks=2)), name="r1")
    h.insert_many([(i, f"payload-{i}" + "x" * 60) for i in range(N_ROWS)])
    return h


@pytest.fixture(scope="module")
def index(heap):
    idx = BTreeIndex()
    for rid, row in heap.scan():
        idx.insert(row[0], rid)
    return idx


class _StragglerSeqScan(ParallelSeqScan):
    """Injects slave 0's pre-adjustment CurPage ahead of a later round."""

    def _adjust(self, new_parallelism):
        if self._generation >= 1:
            # A slow slave's report from before round 1 completed,
            # surfacing just as round 2 signals: generation 0 while
            # slave 0 was last assigned at generation 1.
            self.report_queue.put(msg.CurPage(0, 0, 0))
        super()._adjust(new_parallelism)


class _LateStragglerSeqScan(ParallelSeqScan):
    """Injects the straggler *after* the round, into the main loop."""

    def _adjust(self, new_parallelism):
        super()._adjust(new_parallelism)
        self.report_queue.put(msg.CurPage(0, 0, 0))


class _StragglerIndexScan(ParallelIndexScan):
    """Same straggler, Figure-6 flavor: stale RemainingIntervals."""

    def _adjust(self, new_parallelism):
        if self._generation >= 1:
            self.report_queue.put(
                msg.RemainingIntervals(0, ((0, N_ROWS - 1),), 0)
            )
        super()._adjust(new_parallelism)


class TestStaleReports:
    def test_seq_scan_discards_stale_curpage(self, heap):
        quarter = heap.page_count // 4
        report = _StragglerSeqScan(
            heap,
            parallelism=2,
            adjustments=[
                AdjustmentPlan(after_pages=quarter, parallelism=4),
                AdjustmentPlan(after_pages=2 * quarter, parallelism=3),
            ],
        ).run()
        assert report.adjustments == 2
        assert report.pages_read == heap.page_count
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))

    def test_main_loop_discards_stale_curpage(self, heap):
        quarter = heap.page_count // 4
        report = _LateStragglerSeqScan(
            heap,
            parallelism=2,
            adjustments=[AdjustmentPlan(after_pages=quarter, parallelism=3)],
        ).run()
        assert report.pages_read == heap.page_count
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))

    def test_index_scan_discards_stale_intervals(self, heap, index):
        report = _StragglerIndexScan(
            heap,
            index,
            low=0,
            high=N_ROWS - 1,
            parallelism=2,
            adjustments=[
                AdjustmentPlan(after_pages=80, parallelism=4),
                AdjustmentPlan(after_pages=220, parallelism=3),
            ],
        ).run()
        assert report.adjustments == 2
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))
