"""Tests for the three join operators, including cross-checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.executor import (
    HashJoin,
    Materialize,
    MergeJoin,
    NestLoopJoin,
    RowSource,
    Sort,
    col,
    eq,
)

LEFT = Schema.of(("a", "int4"), ("b", "text"))
RIGHT = Schema.of(("c", "int4"), ("d", "text"))
L_ROWS = [(1, "l1"), (2, "l2"), (2, "l2b"), (3, "l3"), (None, "lnull")]
R_ROWS = [(2, "r2"), (3, "r3"), (3, "r3b"), (4, "r4"), (None, "rnull")]

EXPECTED = sorted(
    [
        (2, "l2", 2, "r2"),
        (2, "l2b", 2, "r2"),
        (3, "l3", 3, "r3"),
        (3, "l3", 3, "r3b"),
    ]
)


def left_source():
    return RowSource(LEFT, L_ROWS)


def right_source():
    return RowSource(RIGHT, R_ROWS)


class TestNestLoop:
    def test_equijoin(self):
        join = NestLoopJoin(
            left_source(), Materialize(right_source()), eq(col("a"), col("c"))
        )
        assert sorted(join.run()) == EXPECTED

    def test_cross_product(self):
        join = NestLoopJoin(
            RowSource(LEFT, [(1, "x"), (2, "y")]),
            Materialize(RowSource(RIGHT, [(7, "p"), (8, "q")])),
        )
        assert len(join.run()) == 4

    def test_inequality_predicate(self):
        from repro.executor import Comparison

        join = NestLoopJoin(
            RowSource(LEFT, [(1, "x"), (5, "y")]),
            Materialize(RowSource(RIGHT, [(3, "p")])),
            Comparison("<", col("a"), col("c")),
        )
        assert join.run() == [(1, "x", 3, "p")]

    def test_empty_outer(self):
        join = NestLoopJoin(
            RowSource(LEFT, []), Materialize(right_source()), eq(col("a"), col("c"))
        )
        assert join.run() == []

    def test_empty_inner(self):
        join = NestLoopJoin(
            left_source(), Materialize(RowSource(RIGHT, [])), eq(col("a"), col("c"))
        )
        assert join.run() == []

    def test_schema_concat(self):
        join = NestLoopJoin(left_source(), Materialize(right_source())).open()
        assert join.schema.names() == ("a", "b", "c", "d")
        join.close()

    def test_clashing_schemas_get_prefixes(self):
        join = NestLoopJoin(
            RowSource(LEFT, [(1, "x")]), Materialize(RowSource(LEFT, [(1, "y")]))
        ).open()
        assert join.schema.names() == ("l_a", "l_b", "r_a", "r_b")
        join.close()


class TestMergeJoin:
    def test_equijoin_on_sorted_inputs(self):
        join = MergeJoin(
            Sort(left_source(), ["a"]),
            Sort(right_source(), ["c"]),
            "a",
            "c",
        )
        assert sorted(join.run()) == EXPECTED

    def test_duplicates_both_sides_cross_product(self):
        lrows = [(1, "a1"), (1, "a2")]
        rrows = [(1, "b1"), (1, "b2"), (1, "b3")]
        join = MergeJoin(
            RowSource(LEFT, lrows), RowSource(RIGHT, rrows), "a", "c"
        )
        assert len(join.run()) == 6

    def test_no_matches(self):
        join = MergeJoin(
            RowSource(LEFT, [(1, "x")]), RowSource(RIGHT, [(2, "y")]), "a", "c"
        )
        assert join.run() == []

    def test_null_keys_never_match(self):
        join = MergeJoin(
            RowSource(LEFT, [(None, "x")]),
            RowSource(RIGHT, [(None, "y")]),
            "a",
            "c",
        )
        assert join.run() == []


class TestHashJoin:
    def test_equijoin(self):
        join = HashJoin(left_source(), right_source(), "a", "c")
        assert sorted(join.run()) == EXPECTED

    def test_build_side_is_inner(self):
        left, right = left_source(), right_source()
        join = HashJoin(left, right, "a", "c").open()
        # Opening drains the inner (build) input and reads no outer row.
        assert right.rows_produced == len(R_ROWS)
        assert left.rows_produced == 0
        join.close()

    def test_empty_build(self):
        join = HashJoin(left_source(), RowSource(RIGHT, []), "a", "c")
        assert join.run() == []

    def test_duplicate_probe_keys(self):
        join = HashJoin(
            RowSource(LEFT, [(1, "p1"), (1, "p2")]),
            RowSource(RIGHT, [(1, "b")]),
            "a",
            "c",
        )
        assert len(join.run()) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.just("L")), max_size=25),
    st.lists(st.tuples(st.integers(0, 8), st.just("R")), max_size=25),
)
def test_all_three_joins_agree(lrows, rrows):
    """NestLoop, MergeJoin and HashJoin return the same multiset."""
    nl = NestLoopJoin(
        RowSource(LEFT, lrows),
        Materialize(RowSource(RIGHT, rrows)),
        eq(col("a"), col("c")),
    )
    mj = MergeJoin(
        Sort(RowSource(LEFT, lrows), ["a"]),
        Sort(RowSource(RIGHT, rrows), ["c"]),
        "a",
        "c",
    )
    hj = HashJoin(RowSource(LEFT, lrows), RowSource(RIGHT, rrows), "a", "c")
    expected = sorted(
        l + r for l in lrows for r in rrows if l[0] == r[0]
    )
    assert sorted(nl.run()) == expected
    assert sorted(mj.run()) == expected
    assert sorted(hj.run()) == expected
