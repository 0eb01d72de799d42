"""Tests for the system catalog."""

import pytest

from repro.catalog import Catalog, RelationStats, Schema
from repro.errors import (
    DuplicateRelationError,
    UnknownColumnError,
    UnknownRelationError,
)

SCHEMA = Schema.of(("a", "int4"), ("b", "text"))


@pytest.fixture
def catalog():
    return Catalog()


class TestTables:
    def test_create_and_lookup(self, catalog):
        entry = catalog.create_table("r1", SCHEMA, heap="heap-sentinel")
        assert catalog.table("r1") is entry
        assert entry.heap == "heap-sentinel"
        assert catalog.has_table("r1")
        assert "r1" in catalog
        assert len(catalog) == 1

    def test_duplicate_rejected(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        with pytest.raises(DuplicateRelationError):
            catalog.create_table("r1", SCHEMA, heap=None)

    def test_unknown_lookup(self, catalog):
        with pytest.raises(UnknownRelationError):
            catalog.table("nope")

    def test_tables_iterates_all(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        catalog.create_table("r2", SCHEMA, heap=None)
        assert {t.name for t in catalog.tables()} == {"r1", "r2"}


class TestStats:
    def test_set_stats(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        stats = RelationStats(row_count=10, page_count=1, avg_row_size=8.0)
        catalog.set_stats("r1", stats)
        assert catalog.table("r1").stats is stats


class TestIndexes:
    def test_add_index(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        entry = catalog.add_index("r1", "r1_a", "a", index="idx-sentinel")
        assert entry.column == "a"
        assert not entry.clustered
        assert catalog.table("r1").indexes == {"r1_a": entry}

    def test_add_index_unknown_column(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        with pytest.raises(UnknownColumnError):
            catalog.add_index("r1", "bad", "zz", index=None)

    def test_duplicate_index_name(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        catalog.add_index("r1", "r1_a", "a", index=None)
        with pytest.raises(DuplicateRelationError):
            catalog.add_index("r1", "r1_a", "a", index=None)

    def test_clustered_flag(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        entry = catalog.add_index("r1", "r1_a", "a", index=None, clustered=True)
        assert entry.clustered


class TestStatsEpoch:
    def test_every_mutator_bumps_the_epoch(self, catalog):
        stats = RelationStats(row_count=10, page_count=1, avg_row_size=8.0)
        mutators = [
            lambda: catalog.create_table("r1", SCHEMA, heap=None),
            lambda: catalog.set_stats("r1", stats),
            lambda: catalog.add_index("r1", "r1_a", "a", index=None),
        ]
        for mutate in mutators:
            before = catalog.stats_epoch
            mutate()
            assert catalog.stats_epoch > before

    def test_failed_mutations_and_reads_leave_it_alone(self, catalog):
        catalog.create_table("r1", SCHEMA, heap=None)
        epoch = catalog.stats_epoch
        with pytest.raises(DuplicateRelationError):
            catalog.create_table("r1", SCHEMA, heap=None)
        with pytest.raises(UnknownRelationError):
            catalog.set_stats("nope", RelationStats(1, 1, 8.0))
        with pytest.raises(UnknownColumnError):
            catalog.add_index("r1", "bad", "zz", index=None)
        catalog.table("r1")
        list(catalog.tables())
        assert catalog.stats_epoch == epoch
