"""Tests for the concrete benchmark relations (r_min, r_max, ...)."""

import pytest

from repro.catalog import Catalog
from repro.config import paper_machine
from repro.errors import ConfigError
from repro.storage import DiskArray
from repro.workloads import (
    build_r_max,
    build_r_min,
    build_relation,
    one_tuple_per_page_payload,
)

MACHINE = paper_machine()


@pytest.fixture
def env():
    return Catalog(), DiskArray(MACHINE)


class TestRMin:
    def test_b_is_null_everywhere(self, env):
        catalog, array = env
        built = build_r_min(catalog, array, n_rows=200)
        for __, row in built.heap.scan():
            assert row[1] is None

    def test_many_tuples_per_page(self, env):
        catalog, array = env
        built = build_r_min(catalog, array, n_rows=2000)
        assert built.heap.row_count / built.heap.page_count > 100

    def test_registered_and_analyzed(self, env):
        catalog, array = env
        build_r_min(catalog, array, n_rows=100)
        entry = catalog.table("r_min")
        assert entry.stats is not None
        assert entry.stats.row_count == 100
        assert any(index.column == "a" for index in entry.indexes.values())


class TestRMax:
    def test_one_tuple_per_page(self, env):
        catalog, array = env
        built = build_r_max(catalog, array, n_rows=50)
        assert built.heap.page_count == 50

    def test_payload_maximal_but_fits(self):
        payload = one_tuple_per_page_payload(8192)
        assert payload > 3000  # roughly half a page


class TestRateRelations:
    def test_r_min_is_most_cpu_bound(self, env):
        from repro.bench import measure_scan

        catalog, array = env
        build_r_min(catalog, array, n_rows=2000)
        build_r_max(catalog, array, n_rows=100)
        r_min = measure_scan(catalog, "r_min", machine=MACHINE)
        r_max = measure_scan(catalog, "r_max", machine=MACHINE)
        assert r_min.io_rate < MACHINE.bound_threshold  # CPU-bound
        assert r_max.io_rate > MACHINE.bound_threshold  # IO-bound
        assert r_min.io_rate == pytest.approx(5.0, abs=1.5)

    def test_build_relation_rejects_empty(self, env):
        catalog, array = env
        with pytest.raises(ConfigError):
            build_relation(catalog, array, "bad", n_rows=0, payload_size=10)
