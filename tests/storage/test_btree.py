"""Tests for the B+tree index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BTreeError
from repro.storage import BTreeIndex, RecordId


def rid(i):
    return RecordId(i // 10, i % 10)


@pytest.fixture
def tree():
    t = BTreeIndex(order=4)  # tiny order to force splits
    for i in [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]:
        t.insert(i, rid(i))
    return t


def search(tree, key):
    """The record ids stored under ``key``, in insertion order."""
    return [r for __, r in tree.range_scan(key, key)]


class TestBasics:
    def test_search_hits(self, tree):
        assert search(tree, 5) == [rid(5)]

    def test_search_miss(self, tree):
        assert search(tree, 42) == []

    def test_duplicates_accumulate(self, tree):
        tree.insert(5, rid(100))
        assert search(tree, 5) == [rid(5), rid(100)]
        assert len(list(tree.keys())) == 10
        assert len(tree) == 11

    def test_null_key_rejected(self, tree):
        with pytest.raises(BTreeError):
            tree.insert(None, rid(0))

    def test_keys_sorted(self, tree):
        assert list(tree.keys()) == list(range(10))

    def test_height_grows(self):
        t = BTreeIndex(order=3)
        assert t.root_separators() == ()
        for i in range(50):
            t.insert(i, rid(i))
        # A leaf root would hold all 50 keys; an internal root, at most 3.
        assert 0 < len(t.root_separators()) <= 3
        t.check_invariants()

    def test_root_separators_exposed(self, tree):
        seps = tree.root_separators()
        assert seps == tuple(sorted(seps))


class TestRangeScan:
    def test_closed_range(self, tree):
        keys = [k for k, __ in tree.range_scan(3, 6)]
        assert keys == [3, 4, 5, 6]

    def test_open_low(self, tree):
        keys = [k for k, __ in tree.range_scan(None, 2)]
        assert keys == [0, 1, 2]

    def test_open_high(self, tree):
        keys = [k for k, __ in tree.range_scan(7, None)]
        assert keys == [7, 8, 9]

    def test_fully_open(self, tree):
        assert [k for k, __ in tree.range_scan()] == list(range(10))

    def test_exclusive_bounds(self, tree):
        keys = [
            k
            for k, __ in tree.range_scan(3, 6, low_inclusive=False, high_inclusive=False)
        ]
        assert keys == [4, 5]

    def test_empty_range(self, tree):
        assert list(tree.range_scan(100, 200)) == []

    def test_range_with_duplicates(self, tree):
        tree.insert(4, rid(200))
        pairs = list(tree.range_scan(4, 4))
        assert [r for __, r in pairs] == [rid(4), rid(200)]


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300))
    def test_invariants_hold_after_any_inserts(self, keys):
        t = BTreeIndex(order=4)
        for i, k in enumerate(keys):
            t.insert(k, rid(i))
        t.check_invariants()
        assert list(t.keys()) == sorted(set(keys))
        assert len(t) == len(keys)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=200),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_range_scan_matches_filter(self, keys, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        t = BTreeIndex(order=5)
        for i, k in enumerate(keys):
            t.insert(k, rid(i))
        got = [k for k, __ in t.range_scan(lo, hi)]
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert got == expected

    def test_bad_order_rejected(self):
        with pytest.raises(BTreeError):
            BTreeIndex(order=2)

    def test_large_sequential_load(self):
        t = BTreeIndex(order=8)
        for i in range(2000):
            t.insert(i, rid(i))
        t.check_invariants()
        assert search(t, 1234) == [rid(1234)]
        assert len([k for k, __ in t.range_scan(100, 199)]) == 100

    def test_string_keys(self):
        t = BTreeIndex(order=4)
        for i, key in enumerate(["pear", "apple", "fig", "date", "kiwi"]):
            t.insert(key, rid(i))
        assert list(t.keys()) == ["apple", "date", "fig", "kiwi", "pear"]
        assert [k for k, __ in t.range_scan("b", "f")] == ["date"]
