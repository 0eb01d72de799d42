"""Tests for the LRU buffer pool."""

import pytest

from repro.catalog import Schema
from repro.config import paper_machine
from repro.errors import BufferPoolError
from repro.storage import BufferPool, DiskArray, HeapFile

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


@pytest.fixture
def heap():
    h = HeapFile(SCHEMA, DiskArray(paper_machine()))
    h.insert_many([(i, "x" * 500) for i in range(200)])  # many pages
    return h


class TestCaching:
    def test_miss_then_hit(self, heap):
        pool = BufferPool(4)
        pool.get(heap, 0)
        pool.get(heap, 0)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_rate == 0.5

    def test_miss_charges_disk_io(self, heap):
        pool = BufferPool(4)
        for disk in heap.array.disks:
            disk.reset()
        pool.get(heap, 0)
        pool.get(heap, 0)
        assert heap.array.total_ios == 1  # only the miss touched disk

    def test_lru_eviction(self, heap):
        pool = BufferPool(2)
        pool.get(heap, 0)
        pool.get(heap, 1)
        pool.get(heap, 0)  # touch 0: now 1 is LRU
        pool.get(heap, 2)  # evicts 1
        assert pool.contains(heap, 0)
        assert not pool.contains(heap, 1)
        assert pool.stats.evictions == 1

    def test_capacity_respected(self, heap):
        pool = BufferPool(3)
        for p in range(10):
            pool.get(heap, p)
        assert len(pool) == 3

    def test_distinct_files_distinct_keys(self, heap):
        other = HeapFile(SCHEMA, heap.array)
        other.insert((1, "y"))
        pool = BufferPool(4)
        pool.get(heap, 0)
        pool.get(other, 0)
        assert pool.stats.misses == 2

    def test_returned_page_is_the_heap_page(self, heap):
        pool = BufferPool(2)
        page = pool.get(heap, 0)
        assert page is heap.page(0)


class TestPinning:
    def test_pinned_pages_not_evicted(self, heap):
        pool = BufferPool(2)
        pool.get(heap, 0, pin=True)
        pool.get(heap, 1)
        pool.get(heap, 2)  # must evict 1, not pinned 0
        assert pool.contains(heap, 0)
        assert not pool.contains(heap, 1)

    def test_all_pinned_raises(self, heap):
        pool = BufferPool(2)
        pool.get(heap, 0, pin=True)
        pool.get(heap, 1, pin=True)
        with pytest.raises(BufferPoolError):
            pool.get(heap, 2)

    def test_unpin_allows_eviction(self, heap):
        pool = BufferPool(2)
        pool.get(heap, 0, pin=True)
        pool.get(heap, 1, pin=True)
        pool.unpin(heap, 0)
        pool.get(heap, 2)
        assert not pool.contains(heap, 0)

    def test_unpin_errors(self, heap):
        pool = BufferPool(2)
        with pytest.raises(BufferPoolError):
            pool.unpin(heap, 0)
        pool.get(heap, 0)
        with pytest.raises(BufferPoolError):
            pool.unpin(heap, 0)

    def test_clear_keeps_pinned(self, heap):
        pool = BufferPool(4)
        pool.get(heap, 0, pin=True)
        pool.get(heap, 1)
        pool.clear()
        assert pool.contains(heap, 0)
        assert not pool.contains(heap, 1)


def test_zero_capacity_rejected():
    with pytest.raises(BufferPoolError):
        BufferPool(0)
