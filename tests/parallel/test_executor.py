"""Tests for the real multiprocessing master/slave executor.

These spin up actual processes; relations are kept small so the suite
stays fast on a single-core host.
"""

import time

import pytest

from repro.catalog import Schema
from repro.config import MachineConfig
from repro.errors import ProtocolError
from repro.executor import Comparison, col, gt, lit
from repro.parallel import AdjustmentPlan, ParallelIndexScan, ParallelSeqScan
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


class TestParallelSeqScan:
    def test_full_scan_matches_serial(self, heap):
        report = ParallelSeqScan(heap, parallelism=3).run()
        expected = sorted(row for __, row in heap.scan())
        assert sorted(report.rows) == expected
        assert report.pages_read == heap.page_count

    def test_predicate_applied(self, heap):
        report = ParallelSeqScan(heap, gt(col("a"), 549), parallelism=2).run()
        assert sorted(r[0] for r in report.rows) == list(range(550, 600))

    def test_single_slave(self, heap):
        report = ParallelSeqScan(heap, parallelism=1).run()
        assert len(report.rows) == N_ROWS

    def test_grow_parallelism_midscan(self, heap):
        report = ParallelSeqScan(
            heap,
            parallelism=2,
            adjustments=[AdjustmentPlan(after_pages=heap.page_count // 4, parallelism=4)],
        ).run()
        assert report.adjustments == 1
        assert report.parallelism_history == [2, 4]
        # exactly-once guarantee across the live protocol:
        assert report.pages_read == heap.page_count
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))

    def test_shrink_parallelism_midscan(self, heap):
        report = ParallelSeqScan(
            heap,
            parallelism=4,
            adjustments=[AdjustmentPlan(after_pages=heap.page_count // 4, parallelism=2)],
        ).run()
        assert report.pages_read == heap.page_count
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))

    def test_two_adjustments(self, heap):
        quarter = heap.page_count // 4
        report = ParallelSeqScan(
            heap,
            parallelism=2,
            adjustments=[
                AdjustmentPlan(after_pages=quarter, parallelism=4),
                AdjustmentPlan(after_pages=2 * quarter, parallelism=3),
            ],
        ).run()
        assert report.pages_read == heap.page_count
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))

    def test_finished_slave_cursor_bounds_maxpage(self, heap, monkeypatch):
        # Slave 0 (pages 0, 3, 6) runs fast and finishes before the
        # round; the others sleep on every page.  maxpage must count its
        # final cursor, or the new strides re-read its pages.
        scan_pages = heap.scan_pages

        def slow_scan_pages(pages):
            if any(p % 3 for p in pages):
                time.sleep(0.01)
            return scan_pages(pages)

        monkeypatch.setattr(heap, "scan_pages", slow_scan_pages)
        first_share = len(range(0, heap.page_count, 3))
        report = ParallelSeqScan(
            heap,
            parallelism=3,
            adjustments=[AdjustmentPlan(after_pages=first_share + 1, parallelism=4)],
        ).run()
        assert report.adjustments == 1
        assert sorted(r[0] for r in report.rows) == list(range(N_ROWS))
        assert report.pages_read == heap.page_count

    def test_bad_parallelism(self, heap):
        with pytest.raises(ProtocolError):
            ParallelSeqScan(heap, parallelism=0)


class TestParallelIndexScan:
    def test_range_scan_matches_serial(self, heap, index):
        report = ParallelIndexScan(
            heap, index, low=100, high=399, parallelism=3
        ).run()
        assert sorted(r[0] for r in report.rows) == list(range(100, 400))

    def test_with_residual_predicate(self, heap, index):
        report = ParallelIndexScan(
            heap,
            index,
            low=0,
            high=599,
            predicate=Comparison("<", col("a"), lit(50)),
            parallelism=2,
        ).run()
        assert sorted(r[0] for r in report.rows) == list(range(50))

    def test_adjustment_midscan(self, heap, index):
        report = ParallelIndexScan(
            heap,
            index,
            low=0,
            high=599,
            parallelism=2,
            adjustments=[AdjustmentPlan(after_pages=100, parallelism=4)],
        ).run()
        assert report.adjustments == 1
        assert sorted(r[0] for r in report.rows) == list(range(600))

    def test_shrink_midscan(self, heap, index):
        report = ParallelIndexScan(
            heap,
            index,
            low=0,
            high=599,
            parallelism=4,
            adjustments=[AdjustmentPlan(after_pages=100, parallelism=1)],
        ).run()
        assert sorted(r[0] for r in report.rows) == list(range(600))

    def test_bad_bounds(self, heap, index):
        with pytest.raises(ProtocolError):
            ParallelIndexScan(heap, index, low=10, high=5)
