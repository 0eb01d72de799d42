"""ANALYZE (``analyze_table``) against a scan-based reference.

The reference is the two-pass form: ``build_relation_stats`` over the
rows of ``heap.scan()``, with ``avg_row_size`` the mean encoded length
of the records from a second walk over the pages.  ``analyze_table``
must store exactly what the reference computes: on a multi-page heap
with NULL text, on an empty heap, and after ``XprsSystem.insert``.
"""

import pytest

from repro import XprsSystem
from repro.catalog import Catalog, Schema
from repro.catalog.statistics import build_relation_stats
from repro.config import paper_machine
from repro.plans import analyze_table
from repro.storage import DiskArray, HeapFile
from repro.workloads import build_r_min

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


def reference_stats(heap: HeapFile, column_names):
    lengths = [
        len(record)
        for page_no in range(heap.page_count)
        for __, record in heap.page(page_no).records()
    ]
    return build_relation_stats(
        (row for __, row in heap.scan()),
        column_names,
        page_count=heap.page_count,
        avg_row_size=sum(lengths) / len(lengths) if lengths else 0.0,
    )


def assert_matches_reference(catalog: Catalog, name: str):
    entry = catalog.table(name)
    stats = analyze_table(catalog, name)
    expected = reference_stats(entry.heap, entry.schema.names())
    assert stats == expected
    assert repr(stats) == repr(expected)
    assert catalog.table(name).stats is stats
    return stats


def fresh_heap() -> tuple[Catalog, HeapFile]:
    catalog = Catalog()
    heap = HeapFile(SCHEMA, DiskArray(paper_machine()), name="t")
    catalog.create_table("t", SCHEMA, heap)
    return catalog, heap


class TestAnalyzeAgainstScanReference:
    def test_multi_page_heap_with_null_text(self):
        catalog = Catalog()
        built = build_r_min(catalog, DiskArray(paper_machine()), n_rows=2000)
        assert built.heap.page_count > 1
        stats = assert_matches_reference(catalog, "r_min")
        assert stats.columns["b"].null_fraction == 1.0

    def test_empty_heap(self):
        catalog, heap = fresh_heap()
        stats = assert_matches_reference(catalog, "t")
        assert stats.row_count == 0
        assert stats.avg_row_size == 0.0

    def test_avg_row_size(self):
        catalog, heap = fresh_heap()
        heap.insert_many([(i, "z" * 96) for i in range(10)])
        # int4 (5) + text (4 + 96)
        stats = assert_matches_reference(catalog, "t")
        assert stats.avg_row_size == pytest.approx(105.0)

    def test_system_insert_then_analyze(self):
        system = XprsSystem()
        system.create_table("t", [("a", "int4"), ("b", "text")], [(1, "one")])
        system.insert("t", [(i, None if i % 4 else "y" * i) for i in range(400)])
        system.analyze("t")
        entry = system.catalog.table("t")
        expected = reference_stats(entry.heap, entry.schema.names())
        assert entry.stats == expected
        assert entry.stats.row_count == 401
