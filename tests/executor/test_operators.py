"""Tests for executor operators over in-memory sources."""

import pytest

from repro.catalog import Schema
from repro.errors import OperatorStateError, PlanError
from repro.executor import (
    Aggregate,
    AggregateSpec,
    Filter,
    Limit,
    Materialize,
    Project,
    RowSource,
    Sort,
    col,
    eq,
    gt,
)

AB = Schema.of(("a", "int4"), ("b", "text"))


def source(rows, schema=AB):
    return RowSource(schema, rows)


class TestProtocol:
    def test_run_collects_all(self):
        op = source([(1, "x"), (2, "y")])
        assert op.run() == [(1, "x"), (2, "y")]

    def test_next_before_open_raises(self):
        with pytest.raises(OperatorStateError):
            source([]).next_row()

    def test_double_open_raises(self):
        op = source([]).open()
        with pytest.raises(OperatorStateError):
            op.open()

    def test_close_then_reopen_restarts(self):
        op = source([(1, "x")])
        assert op.run() == [(1, "x")]
        assert op.run() == [(1, "x")]

    def test_rewind(self):
        op = source([(1, "x"), (2, "y")]).open()
        assert op.next_row() == (1, "x")
        op.rewind()
        assert op.next_row() == (1, "x")
        op.close()

    def test_rows_produced_counter(self):
        op = source([(1, "x"), (2, "y")])
        op.run()
        assert op.rows_produced == 2


class TestFilter:
    def test_keeps_matching(self):
        op = Filter(source([(1, "x"), (5, "y"), (9, "z")]), gt(col("a"), 3))
        assert op.run() == [(5, "y"), (9, "z")]

    def test_empty_result(self):
        op = Filter(source([(1, "x")]), gt(col("a"), 100))
        assert op.run() == []

    def test_schema_passthrough(self):
        op = Filter(source([]), gt(col("a"), 0)).open()
        assert op.schema == AB
        op.close()


class TestProject:
    def test_selects_and_reorders(self):
        op = Project(source([(1, "x"), (2, "y")]), ["b", "a"])
        assert op.run() == [("x", 1), ("y", 2)]
        assert op.schema.names() == ("b", "a")

    def test_empty_columns_rejected(self):
        with pytest.raises(PlanError):
            Project(source([]), [])


class TestLimit:
    def test_truncates(self):
        op = Limit(source([(i, "r") for i in range(10)]), 3)
        assert len(op.run()) == 3

    def test_limit_zero(self):
        assert Limit(source([(1, "x")]), 0).run() == []

    def test_limit_larger_than_input(self):
        assert len(Limit(source([(1, "x")]), 99).run()) == 1

    def test_negative_rejected(self):
        with pytest.raises(PlanError):
            Limit(source([]), -1)


class TestMaterialize:
    def test_replays_without_rerunning_child(self):
        child = source([(1, "x"), (2, "y")])
        mat = Materialize(child)
        assert mat.run() == [(1, "x"), (2, "y")]
        rows_before = child.rows_produced
        assert mat.run() == [(1, "x"), (2, "y")]
        assert child.rows_produced == rows_before  # buffer replayed


class TestSort:
    def test_sorts_ascending(self):
        op = Sort(source([(3, "c"), (1, "a"), (2, "b")]), ["a"])
        assert [r[0] for r in op.run()] == [1, 2, 3]

    def test_nulls_first(self):
        rows = [(2, None), (1, "b"), (3, "a")]
        op = Sort(source(rows), ["b"])
        assert [r[1] for r in op.run()] == [None, "a", "b"]

    def test_multi_column(self):
        rows = [(1, "b"), (1, "a"), (0, "z")]
        op = Sort(source(rows), ["a", "b"])
        assert op.run() == [(0, "z"), (1, "a"), (1, "b")]

    def test_empty_columns_rejected(self):
        with pytest.raises(PlanError):
            Sort(source([]), [])


class TestAggregate:
    ROWS = [(1, "x"), (1, "y"), (2, "z"), (2, None), (3, "w")]

    def test_count_star(self):
        op = Aggregate(source(self.ROWS), [AggregateSpec("count")])
        assert op.run() == [(5,)]

    def test_count_column_skips_nulls(self):
        op = Aggregate(source(self.ROWS), [AggregateSpec("count", "b")])
        assert op.run() == [(4,)]

    def test_sum_avg_min_max(self):
        op = Aggregate(
            source(self.ROWS),
            [
                AggregateSpec("sum", "a"),
                AggregateSpec("avg", "a"),
                AggregateSpec("min", "a"),
                AggregateSpec("max", "a"),
            ],
        )
        assert op.run() == [(9, 9 / 5, 1, 3)]

    def test_group_by(self):
        op = Aggregate(
            source(self.ROWS),
            [AggregateSpec("count")],
            group_by=["a"],
        )
        assert sorted(op.run()) == [(1, 2), (2, 2), (3, 1)]

    def test_empty_input_ungrouped(self):
        op = Aggregate(
            source([]),
            [AggregateSpec("count"), AggregateSpec("sum", "a")],
        )
        assert op.run() == [(0, None)]

    def test_empty_input_grouped(self):
        op = Aggregate(source([]), [AggregateSpec("count")], group_by=["a"])
        assert op.run() == []

    def test_output_schema_names(self):
        op = Aggregate(
            source(self.ROWS),
            [AggregateSpec("count"), AggregateSpec("max", "a", alias="biggest")],
            group_by=["b"],
        ).open()
        assert op.schema.names() == ("b", "count_all", "biggest")
        op.close()

    def test_bad_spec_rejected(self):
        with pytest.raises(PlanError):
            AggregateSpec("median", "a")
        with pytest.raises(PlanError):
            AggregateSpec("sum")
        with pytest.raises(PlanError):
            Aggregate(source([]), [])
