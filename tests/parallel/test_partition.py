"""Tests for the partitioning arithmetic (pure, no processes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.parallel import (
    PageAssignment,
    maxpage_round,
    page_assignments,
    repartition_intervals,
)


class TestPageAssignment:
    def test_pages_of_stride(self):
        a = PageAssignment(lo=0, hi=10, stride=3, residue=1)
        assert list(a.pages()) == [1, 4, 7, 10]

    def test_first_at_or_after(self):
        a = PageAssignment(lo=0, hi=20, stride=4, residue=2)
        assert a.first_at_or_after(0) == 2
        assert a.first_at_or_after(3) == 6
        assert a.first_at_or_after(6) == 6
        assert a.first_at_or_after(19) is None

    def test_empty_assignment(self):
        a = PageAssignment(lo=5, hi=4, stride=2, residue=0)
        assert list(a.pages()) == []
        assert a.count() == 0

    @pytest.mark.parametrize("kwargs", [
        {"lo": 0, "hi": 5, "stride": 0, "residue": 0},
        {"lo": 0, "hi": 5, "stride": 3, "residue": 3},
        {"lo": 0, "hi": 5, "stride": 3, "residue": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(SchedulingError):
            PageAssignment(**kwargs)


class TestPagePartition:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=12),
    )
    def test_partition_is_exact(self, n_pages, parallelism):
        assignments = page_assignments(n_pages, parallelism)
        covered = sorted(p for a in assignments for p in a.pages())
        assert covered == list(range(n_pages))

    def test_bad_args(self):
        with pytest.raises(SchedulingError):
            page_assignments(-1, 2)
        with pytest.raises(SchedulingError):
            page_assignments(10, 0)


def _assert_round_is_exact(n_pages, old, cursors, finished, new_n):
    """Run one Figure-5 round over ``old`` strides and check that the
    pages already read plus the pages still to read cover the scan
    exactly once.  ``finished[i]`` slaves have read their whole stride:
    they hold nothing but still report their final cursor."""
    live = [i for i in range(len(old)) if not finished[i]]
    maxpage, per_position = maxpage_round(
        [[old[i]] for i in live],
        [cursors[i] for i in live] + [c for c, f in zip(cursors, finished) if f],
        n_pages,
        new_n,
    )
    assert maxpage == min(max(cursors, default=n_pages), n_pages)
    read = [p for a, c in zip(old, cursors) for p in a.pages() if p < c]
    for position, assignments in enumerate(per_position):
        cursor = cursors[live[position]] if position < len(live) else 0
        read += [p for a in assignments for p in a.pages() if p >= cursor]
    assert sorted(read) == list(range(n_pages))
    return maxpage


class TestMaxpage:
    def test_is_max_cursor(self):
        old = page_assignments(100, 3)
        assert _assert_round_is_exact(100, old, [3, 9, 5], [False] * 3, 2) == 9

    def test_clamped_to_n_pages(self):
        old = page_assignments(100, 1)
        assert _assert_round_is_exact(100, old, [120], [True], 3) == 100

    def test_empty_cursors(self):
        assert maxpage_round([], [], 50, 2) == (50, [])


class TestAdjustedAssignments:
    """The Figure-5 round must preserve exactly-once coverage."""

    @settings(max_examples=100, deadline=None)
    @given(
        n_pages=st.integers(min_value=1, max_value=400),
        old_n=st.integers(min_value=1, max_value=8),
        new_n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_exactly_once_coverage(self, n_pages, old_n, new_n, data):
        old = page_assignments(n_pages, old_n)
        finished = [data.draw(st.booleans(), label=f"f{i}") for i in range(old_n)]
        # A live slave has read a prefix of its stride; a finished one
        # has read all of it, so its cursor is past its last page.
        cursors = []
        for i, a in enumerate(old):
            low = a.pages()[-1] + 1 if finished[i] and a.count() else 0
            cursors.append(
                data.draw(st.integers(min_value=low, max_value=n_pages), label=f"c{i}")
            )
        _assert_round_is_exact(n_pages, old, cursors, finished, new_n)

    def test_mismatched_cursors_rejected(self):
        old = page_assignments(10, 2)
        with pytest.raises(SchedulingError):
            maxpage_round([[a] for a in old], [0], 10, 3)


class TestRepartitionIntervals:
    @settings(max_examples=100, deadline=None)
    @given(
        intervals=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=0, max_value=300),
            ).map(lambda t: (min(t), max(t))),
            max_size=6,
        ),
        parallelism=st.integers(min_value=1, max_value=8),
    )
    def test_shares_cover_exactly(self, intervals, parallelism):
        # Deduplicate overlapping inputs by working with disjoint keys.
        keys = set()
        disjoint = []
        for lo, hi in intervals:
            span = [k for k in range(lo, hi + 1) if k not in keys]
            keys.update(span)
            # split runs back into intervals
            run_start = None
            prev = None
            for k in sorted(span):
                if run_start is None:
                    run_start = prev = k
                elif k == prev + 1:
                    prev = k
                else:
                    disjoint.append((run_start, prev))
                    run_start = prev = k
            if run_start is not None:
                disjoint.append((run_start, prev))
        shares = repartition_intervals(disjoint, parallelism)
        assert len(shares) == parallelism
        covered = [k for share in shares for lo, hi in share for k in range(lo, hi + 1)]
        assert sorted(covered) == sorted(keys)
        # Shares are balanced within 1 key... per construction quotas:
        sizes = [sum(hi - lo + 1 for lo, hi in share) for share in shares]
        if keys:
            assert max(sizes) - min(sizes) <= 1

    def test_empty(self):
        assert repartition_intervals([], 3) == [[], [], []]

    def test_slave_may_get_multiple_intervals(self):
        shares = repartition_intervals([(0, 1), (10, 11)], 1)
        assert shares == [[(0, 1), (10, 11)]]

    # The shapes the micro engine borrows: _start_task deals one whole
    # range, _apply_range_adjustment deals sorted leftovers.

    @pytest.mark.parametrize("n_keys,parallelism", [(1, 4), (3, 8), (5, 6)])
    def test_more_slaves_than_keys_leaves_trailing_shares_empty(
        self, n_keys, parallelism
    ):
        shares = repartition_intervals([(0, n_keys - 1)], parallelism)
        assert shares[:n_keys] == [[(k, k)] for k in range(n_keys)]
        assert shares[n_keys:] == [[]] * (parallelism - n_keys)

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),  # interval length
                st.integers(min_value=1, max_value=40),  # gap before it
            ),
            min_size=1,
            max_size=6,
        ),
        parallelism=st.integers(min_value=1, max_value=8),
    )
    def test_sorted_deal_is_near_equal_quotas_in_order(
        self, lengths, parallelism
    ):
        intervals, at = [], 0
        for length, gap in lengths:
            at += gap
            intervals.append((at, at + length - 1))
            at += length
        keys = [k for lo, hi in intervals for k in range(lo, hi + 1)]
        base, extra = divmod(len(keys), parallelism)
        expected, start = [], 0
        for i in range(parallelism):
            quota = base + (1 if i < extra else 0)
            expected.append(keys[start : start + quota])
            start += quota
        shares = repartition_intervals(intervals, parallelism)
        assert [
            [k for lo, hi in share for k in range(lo, hi + 1)]
            for share in shares
        ] == expected
