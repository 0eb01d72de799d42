"""Tests for scans through the shared buffer pool."""

import pytest

from repro.catalog import Schema
from repro.config import paper_machine
from repro.executor import IndexScan, SeqScan
from repro.storage import BTreeIndex, BufferPool, DiskArray, HeapFile

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


def reset_disks(heap):
    """Forget every disk's head positions and zero its io counters."""
    for disk in heap.array.disks:
        disk.reset()


@pytest.fixture
def heap():
    h = HeapFile(SCHEMA, DiskArray(paper_machine()), name="r1")
    h.insert_many([(i, "x" * 120) for i in range(600)])
    return h


@pytest.fixture
def index(heap):
    idx = BTreeIndex()
    for rid, row in heap.scan():
        idx.insert(row[0], rid)
    return idx


class TestBufferedSeqScan:
    def test_cold_scan_charges_all_pages(self, heap):
        pool = BufferPool(capacity=heap.page_count + 4)
        reset_disks(heap)
        SeqScan(heap, buffer_pool=pool).run()
        assert heap.array.total_ios == heap.page_count

    def test_warm_rescan_is_free(self, heap):
        pool = BufferPool(capacity=heap.page_count + 4)
        SeqScan(heap, buffer_pool=pool).run()
        reset_disks(heap)
        SeqScan(heap, buffer_pool=pool).run()
        assert heap.array.total_ios == 0
        assert pool.stats.hit_rate > 0.4

    def test_small_pool_still_correct(self, heap):
        pool = BufferPool(capacity=2)
        rows = SeqScan(heap, buffer_pool=pool).run()
        assert len(rows) == 600
        assert pool.stats.evictions > 0

    def test_pool_shared_between_scan_types(self, heap, index):
        pool = BufferPool(capacity=heap.page_count + 4)
        SeqScan(heap, buffer_pool=pool).run()
        reset_disks(heap)
        IndexScan(heap, index, low=0, high=99, buffer_pool=pool).run()
        assert heap.array.total_ios == 0  # heap pages already resident


class TestBufferedIndexScan:
    def test_repeated_probes_hit(self, heap, index):
        pool = BufferPool(capacity=heap.page_count + 4)
        reset_disks(heap)
        scan = IndexScan(heap, index, low=10, high=10, buffer_pool=pool)
        scan.run()
        first = heap.array.total_ios
        IndexScan(heap, index, low=10, high=10, buffer_pool=pool).run()
        assert heap.array.total_ios == first  # second probe all hits
