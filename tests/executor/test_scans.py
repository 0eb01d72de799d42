"""Tests for SeqScan and IndexScan over real heap files."""

import pytest

from repro.catalog import Schema
from repro.config import paper_machine
from repro.errors import PlanError
from repro.executor import IndexScan, SeqScan, col, eq, gt
from repro.storage import BTreeIndex, DiskArray, HeapFile

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


def reset_disks(heap):
    """Forget every disk's head positions and zero its io counters."""
    for disk in heap.array.disks:
        disk.reset()


@pytest.fixture
def heap():
    h = HeapFile(SCHEMA, DiskArray(paper_machine()), name="r1")
    h.insert_many([(i, f"row{i}") for i in range(500)])
    return h


@pytest.fixture
def indexed(heap):
    index = BTreeIndex()
    for rid, row in heap.scan():
        index.insert(row[0], rid)
    return heap, index


class TestSeqScan:
    def test_full_scan(self, heap):
        rows = SeqScan(heap).run()
        assert len(rows) == 500
        assert rows[0] == (0, "row0")

    def test_with_predicate(self, heap):
        rows = SeqScan(heap, gt(col("a"), 489)).run()
        assert [r[0] for r in rows] == list(range(490, 500))

    def test_charges_one_io_per_page(self, heap):
        reset_disks(heap)
        scan = SeqScan(heap)
        scan.run()
        assert heap.array.total_ios == heap.page_count == scan.pages_read

    def test_charge_io_disabled(self, heap):
        reset_disks(heap)
        SeqScan(heap, charge_io=False).run()
        assert heap.array.total_ios == 0

    def test_partitioned_scans_union(self, heap):
        values = []
        for i in range(3):
            rows = SeqScan(heap, n_partitions=3, partition=i).run()
            values.extend(r[0] for r in rows)
        assert sorted(values) == list(range(500))

    def test_partition_io_split(self, heap):
        reset_disks(heap)
        scan = SeqScan(heap, n_partitions=2, partition=0)
        scan.run()
        expected_pages = len(range(0, heap.page_count, 2))
        assert scan.pages_read == expected_pages


class TestIndexScan:
    def test_exact_range(self, indexed):
        heap, index = indexed
        rows = IndexScan(heap, index, low=100, high=109).run()
        assert [r[0] for r in rows] == list(range(100, 110))

    def test_open_bounds(self, indexed):
        heap, index = indexed
        assert len(IndexScan(heap, index, low=490).run()) == 10
        assert len(IndexScan(heap, index, high=9).run()) == 10
        assert len(IndexScan(heap, index).run()) == 500

    def test_exclusive_bounds(self, indexed):
        heap, index = indexed
        rows = IndexScan(
            heap, index, low=10, high=20, low_inclusive=False, high_inclusive=False
        ).run()
        assert [r[0] for r in rows] == list(range(11, 20))

    def test_residual_predicate(self, indexed):
        heap, index = indexed
        rows = IndexScan(
            heap, index, low=0, high=99, predicate=eq(col("b"), "row42")
        ).run()
        assert rows == [(42, "row42")]

    def test_charges_one_heap_read_per_match(self, indexed):
        heap, index = indexed
        reset_disks(heap)
        scan = IndexScan(heap, index, low=0, high=49)
        scan.run()
        assert scan.heap_reads == 50
        assert heap.array.total_ios == 50

    def test_unclustered_index_reads_are_mostly_nonsequential(self, indexed):
        # Insert keys shuffled so index order != heap order, like a real
        # unclustered index; the resulting heap reads should be mostly
        # random/almost-sequential, matching the paper's claim that
        # unclustered index scans are IO-bound.
        import random

        heap = HeapFile(SCHEMA, DiskArray(paper_machine()))
        keys = list(range(2000))
        random.Random(7).shuffle(keys)
        heap.insert_many([(k, "x" * 200) for k in keys])
        index = BTreeIndex()
        for rid, row in heap.scan():
            index.insert(row[0], rid)
        reset_disks(heap)
        IndexScan(heap, index).run()
        seq = sum(d.counters.sequential for d in heap.array.disks)
        total = heap.array.total_ios
        assert seq / total < 0.2

    def test_requires_index(self, heap):
        with pytest.raises(PlanError):
            IndexScan(heap, None)
