"""Tests for relation/column statistics and selectivity estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.statistics import (
    ColumnStats,
    build_column_stats,
    build_relation_stats,
    equi_depth_histogram,
)


class TestEquiDepthHistogram:
    def test_bounds_are_min_and_max(self):
        h = equi_depth_histogram(list(range(100)), 10)
        assert h[0] == 0
        assert h[-1] == 99
        assert len(h) == 11

    def test_uniform_data_gives_even_buckets(self):
        h = equi_depth_histogram(list(range(1000)), 10)
        widths = [h[i + 1] - h[i] for i in range(9)]
        assert all(90 <= w <= 110 for w in widths)

    def test_skewed_data_gives_narrow_buckets_in_dense_region(self):
        data = sorted([1] * 900 + list(range(2, 102)))
        h = equi_depth_histogram(data, 10)
        # 90% of the mass is at value 1, so most boundaries sit at 1.
        assert h[:9] == tuple([1] * 9)

    def test_empty_and_tiny(self):
        assert equi_depth_histogram([], 10) == ()
        assert equi_depth_histogram([5], 10) == (5, 5)


class TestBuildColumnStats:
    def test_basic(self):
        stats = build_column_stats([3, 1, 2, 2, None])
        assert stats.n_distinct == 3
        assert stats.min_value == 1
        assert stats.max_value == 3
        assert stats.null_fraction == pytest.approx(0.2)

    def test_all_null(self):
        stats = build_column_stats([None, None])
        assert stats.n_distinct == 0
        assert stats.min_value is None
        assert stats.selectivity_eq(1) == 0.0

    def test_empty(self):
        stats = build_column_stats([])
        assert stats.n_distinct == 0


class TestSelectivity:
    def setup_method(self):
        self.stats = build_column_stats(list(range(1000)))

    def test_eq_uniform(self):
        assert self.stats.selectivity_eq(500) == pytest.approx(1 / 1000)

    def test_eq_out_of_range(self):
        assert self.stats.selectivity_eq(-5) == 0.0
        assert self.stats.selectivity_eq(5000) == 0.0

    def test_range_full(self):
        assert self.stats.selectivity_range(None, None) == pytest.approx(1.0)

    def test_range_half(self):
        sel = self.stats.selectivity_range(None, 499)
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_range_quarter(self):
        sel = self.stats.selectivity_range(250, 499)
        assert sel == pytest.approx(0.25, abs=0.05)

    def test_range_outside(self):
        assert self.stats.selectivity_range(2000, 3000) == pytest.approx(0.0, abs=1e-9)

    def test_range_without_histogram_interpolates(self):
        stats = ColumnStats(n_distinct=100, min_value=0, max_value=100)
        assert stats.selectivity_range(0, 50) == pytest.approx(0.5)

    def test_range_no_stats_fallback(self):
        stats = ColumnStats(n_distinct=10, min_value="a", max_value="z")
        assert stats.selectivity_range("a", None) == pytest.approx(1 / 3, abs=0.4)

    def test_null_fraction_scales_selectivity(self):
        stats = build_column_stats([1, 2, None, None])
        assert stats.selectivity_eq(1) == pytest.approx(0.25)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=10, max_size=300),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_selectivity_in_unit_interval(self, values, lo, hi):
        stats = build_column_stats(values)
        sel = stats.selectivity_range(min(lo, hi), max(lo, hi))
        assert 0.0 <= sel <= 1.0

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=20, max_size=200))
    def test_range_monotone_in_width(self, values):
        stats = build_column_stats(values)
        narrow = stats.selectivity_range(10, 20)
        wide = stats.selectivity_range(5, 30)
        assert wide >= narrow - 1e-9


class TestBuildRelationStats:
    def test_relation_stats(self):
        rows = [(i, f"s{i}") for i in range(50)]
        stats = build_relation_stats(
            rows, ["a", "b"], page_count=5, avg_row_size=12.0
        )
        assert stats.row_count == 50
        assert stats.column("a").n_distinct == 50
        assert stats.column("missing") is None

    def test_empty_relation(self):
        stats = build_relation_stats([], ["a"], page_count=0, avg_row_size=0.0)
        assert stats.row_count == 0
