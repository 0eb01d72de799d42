"""Tests for heap files: insert, scan, partitions, io accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.config import MachineConfig, paper_machine
from repro.errors import StorageError
from repro.storage import DiskArray, HeapFile, RecordId

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


@pytest.fixture
def heap():
    return HeapFile(SCHEMA, DiskArray(paper_machine()), name="r1")


def fill(heap, n, payload="x" * 100):
    return heap.insert_many([(i, payload) for i in range(n)])


class TestInsertFetch:
    def test_insert_returns_rid(self, heap):
        rid = heap.insert((1, "one"))
        assert rid == RecordId(0, 0)
        assert heap.fetch(rid) == (1, "one")
        assert heap.row_count == 1

    def test_validation_applied(self, heap):
        with pytest.raises(Exception):
            heap.insert(("not-an-int", "b"))

    def test_spills_to_new_pages(self, heap):
        rids = fill(heap, 500)
        assert heap.page_count > 1
        assert rids[-1].page_no == heap.page_count - 1
        assert heap.fetch(rids[250]) == (250, "x" * 100)

    def test_large_tuples_one_per_page(self):
        # The paper's r_max: one tuple per 8K page.
        heap = HeapFile(SCHEMA, DiskArray(paper_machine()))
        payload = "y" * 7000
        heap.insert_many([(i, payload) for i in range(10)])
        assert heap.page_count == 10


class TestScan:
    def test_full_scan_in_order(self, heap):
        fill(heap, 100)
        values = [row[0] for __, row in heap.scan()]
        assert values == list(range(100))

    def test_scan_pages_subset(self, heap):
        fill(heap, 300)
        some = list(heap.scan_pages([0]))
        assert all(rid.page_no == 0 for rid, __ in some)

    def test_page_bounds(self, heap):
        fill(heap, 10)
        with pytest.raises(StorageError):
            heap.page(99)


class TestPagePartitioning:
    """The paper: processor i scans pages {p | p mod n == i}."""

    def test_partitions_cover_all_pages(self, heap):
        fill(heap, 500)
        n = 3
        covered = sorted(
            p for i in range(n) for p in heap.partition_pages(n, i)
        )
        assert covered == list(range(heap.page_count))

    def test_partitions_disjoint(self, heap):
        fill(heap, 500)
        parts = [set(heap.partition_pages(4, i)) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert parts[i].isdisjoint(parts[j])

    def test_scan_partition_rows_union_is_full_scan(self, heap):
        fill(heap, 400)
        union = []
        for i in range(5):
            union.extend(
                row[0] for __, row in heap.scan_pages(heap.partition_pages(5, i))
            )
        assert sorted(union) == list(range(400))

    def test_bad_partition_spec(self, heap):
        with pytest.raises(StorageError):
            heap.partition_pages(0, 0)
        with pytest.raises(StorageError):
            heap.partition_pages(3, 3)
        with pytest.raises(StorageError):
            heap.partition_pages(3, -1)

    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=300),
        n_parts=st.integers(min_value=1, max_value=8),
    )
    def test_partition_property(self, n_rows, n_parts):
        heap = HeapFile(SCHEMA, DiskArray(MachineConfig(processors=2, disks=2)))
        heap.insert_many([(i, "p" * 50) for i in range(n_rows)])
        seen = []
        for i in range(n_parts):
            pages = heap.partition_pages(n_parts, i)
            seen.extend(row[0] for __, row in heap.scan_pages(pages))
        assert sorted(seen) == list(range(n_rows))


class TestIoAccounting:
    def test_read_time_charges_disk(self, heap):
        fill(heap, 200)
        for disk in heap.array.disks:
            disk.reset()
        for p in range(heap.page_count):
            heap.read_time(p)
        assert heap.array.total_ios == heap.page_count
