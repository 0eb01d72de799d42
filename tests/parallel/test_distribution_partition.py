"""Tests for distribution-aware initial range partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.config import MachineConfig
from repro.errors import SchedulingError
from repro.parallel import ParallelIndexScan, intervals_from_separators
from repro.storage import BTreeIndex, DiskArray, HeapFile


class TestIntervalsFromSeparators:
    def test_uniform_separators_split_evenly(self):
        shares = intervals_from_separators(0, 99, list(range(0, 100, 10)), 2)
        assert len(shares) == 2
        assert shares[0] == [(0, 49)]
        assert shares[1] == [(50, 99)]

    def test_skewed_separators_balance_rows(self):
        # Separators crowd near 0 — most rows live there, so the cut
        # point must sit near 0 too.
        separators = [0, 1, 2, 3, 4, 5, 6, 7, 8, 1000]
        shares = intervals_from_separators(0, 999, separators, 2)
        cut = shares[1][0][0]
        assert cut <= 10  # near the dense region, not at 500

    def test_exactly_once_coverage(self):
        shares = intervals_from_separators(10, 200, [40, 90, 150], 4)
        keys = sorted(
            k for share in shares for lo, hi in share for k in range(lo, hi + 1)
        )
        assert keys == list(range(10, 201))

    def test_no_separators_falls_back_to_even_split(self):
        shares = intervals_from_separators(0, 99, [500, 600], 2)
        sizes = [sum(hi - lo + 1 for lo, hi in share) for share in shares]
        assert sizes == [50, 50]

    def test_single_slave(self):
        shares = intervals_from_separators(0, 9, [3, 6], 1)
        assert shares == [[(0, 9)]]

    def test_bad_args(self):
        with pytest.raises(SchedulingError):
            intervals_from_separators(5, 1, [], 2)
        with pytest.raises(SchedulingError):
            intervals_from_separators(0, 9, [], 0)

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.integers(min_value=0, max_value=100),
        span=st.integers(min_value=0, max_value=400),
        separators=st.lists(st.integers(min_value=-50, max_value=600), max_size=30),
        parallelism=st.integers(min_value=1, max_value=8),
    )
    def test_coverage_property(self, low, span, separators, parallelism):
        high = low + span
        shares = intervals_from_separators(low, high, separators, parallelism)
        assert len(shares) == parallelism
        keys = sorted(
            k for share in shares for lo, hi in share for k in range(lo, hi + 1)
        )
        assert keys == list(range(low, high + 1))


class TestSkewedParallelIndexScan:
    def test_distribution_aware_split_balances_skew(self):
        # 90% of the rows carry keys in [0, 10): an even key-space
        # split gives slave 0 nearly everything; the equi-depth
        # histogram from the catalog (row mass, not distinct keys)
        # balances the split.
        from repro.catalog import equi_depth_histogram

        machine = MachineConfig(processors=2, disks=2)
        heap = HeapFile(Schema.of(("a", "int4"), ("b", "text")), DiskArray(machine))
        keys = [i % 10 for i in range(900)] + list(range(10, 110))
        heap.insert_many([(k, "x" * 30) for k in keys])
        index = BTreeIndex(order=16)
        for rid, row in heap.scan():
            index.insert(row[0], rid)
        histogram = equi_depth_histogram(sorted(keys), 20)

        scan = ParallelIndexScan(
            heap, index, low=0, high=109, parallelism=2, separators=histogram
        )
        aware = scan.initial_shares()
        even = ParallelIndexScan(
            heap, index, low=0, high=109, parallelism=2, use_index_distribution=False
        ).initial_shares()

        def rows_in(share):
            return sum(len(list(index.range_scan(lo, hi))) for lo, hi in share)

        aware_counts = [rows_in(s) for s in aware]
        even_counts = [rows_in(s) for s in even]
        assert max(aware_counts) - min(aware_counts) < max(even_counts) - min(
            even_counts
        )
        # And the scan still returns everything exactly once.
        report = scan.run()
        assert len(report.rows) == 1000
