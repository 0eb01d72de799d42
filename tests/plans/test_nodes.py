"""Tests for plan trees: structure, blocking edges, lowering."""

import pytest

from repro.executor import AggregateSpec, col, eq, gt
from repro.plans import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    MaterializeNode,
    MergeJoinNode,
    NestLoopJoinNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    count_joins,
    is_bushy,
    is_left_deep,
    is_right_deep,
)


def scan(table="r1", predicate=None):
    return SeqScanNode(table, predicate)


class TestStructure:
    def test_walk_preorder(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        labels = [n.label() for n in plan.walk()]
        assert labels == ["HashJoin(b1 = b2)", "SeqScan(r1)", "SeqScan(r2)"]

    def test_leaves_and_base_relations(self):
        plan = HashJoinNode(
            HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"), scan("r3"), "c2", "c3"
        )
        leaves = [node for node in plan.walk() if not node.children]
        assert [node.table for node in leaves] == ["r1", "r2", "r3"]

    def test_node_ids_unique(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        ids = [n.node_id for n in plan.walk()]
        assert len(set(ids)) == 3

    def test_pretty_marks_blocking(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        assert "[blocking]" in plan.pretty()


class TestBlockingEdges:
    def test_hash_join_build_edge(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        assert plan.blocking_children() == (1,)

    def test_sort_blocks(self):
        assert SortNode(scan(), ("a",)).blocking_children() == (0,)

    def test_materialize_blocks(self):
        assert MaterializeNode(scan()).blocking_children() == (0,)

    def test_aggregate_blocks(self):
        node = AggregateNode(scan(), (AggregateSpec("count"),))
        assert node.blocking_children() == (0,)

    def test_merge_join_is_pipelined(self):
        plan = MergeJoinNode(
            SortNode(scan("r1"), ("b1",)), SortNode(scan("r2"), ("b2",)), "b1", "b2"
        )
        assert plan.blocking_children() == ()

    def test_nestloop_materialized_inner_blocks(self):
        plan = NestLoopJoinNode(scan("r1"), scan("r2"), eq(col("b1"), col("b2")))
        assert plan.blocking_children() == (1,)

    def test_nestloop_index_inner_pipelines(self):
        inner = IndexScanNode("r1", "r1_a_idx", low=0, high=10)
        plan = NestLoopJoinNode(scan("r2"), inner, None)
        assert plan.blocking_children() == ()

    def test_filter_project_pipelined(self):
        assert FilterNode(scan(), gt(col("a"), 1)).blocking_children() == ()
        assert ProjectNode(scan(), ("a",)).blocking_children() == ()


class TestShapePredicates:
    def test_left_deep_detection(self):
        ld = HashJoinNode(
            HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"), scan("r3"), "c2", "c3"
        )
        assert is_left_deep(ld)
        assert not is_bushy(ld)
        assert count_joins(ld) == 2

    def test_bushy_detection(self):
        bushy = HashJoinNode(
            HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"),
            HashJoinNode(scan("r3"), scan("r4"), "d3", "d4"),
            "c2",
            "c3",
        )
        assert is_bushy(bushy)
        assert not is_left_deep(bushy)

    def test_right_deep_is_not_left_deep(self):
        rd = HashJoinNode(
            scan("r3"), HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"), "c3", "c2"
        )
        assert not is_left_deep(rd)
        assert not is_bushy(rd)
        assert is_right_deep(rd)

    def test_left_deep_is_not_right_deep(self):
        ld = HashJoinNode(
            HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"), scan("r3"), "c2", "c3"
        )
        assert not is_right_deep(ld)

    def test_single_join_is_both(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        assert is_left_deep(plan)
        assert is_right_deep(plan)

    def test_single_scan_is_trivially_left_deep(self):
        assert is_left_deep(scan())
        assert not is_bushy(scan())


class TestLowering:
    def test_seqscan_lowers_and_runs(self, catalog):
        plan = SeqScanNode("r1", gt(col("a"), 100))
        rows = plan.to_operator(catalog).run()
        assert all(r[0] > 100 for r in rows)

    def test_index_scan_lowers(self, catalog):
        plan = IndexScanNode("r1", "r1_a_idx", low=0, high=50)
        rows = plan.to_operator(catalog).run()
        assert all(0 <= r[0] <= 50 for r in rows)

    def test_hash_join_lowers_and_matches_nestloop(self, catalog):
        hj = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        nl = NestLoopJoinNode(scan("r1"), scan("r2"), eq(col("b1"), col("b2")))
        assert sorted(hj.to_operator(catalog).run()) == sorted(
            nl.to_operator(catalog).run()
        )

    def test_merge_join_lowers_and_matches_hash(self, catalog):
        mj = MergeJoinNode(
            SortNode(scan("r1"), ("b1",)), SortNode(scan("r2"), ("b2",)), "b1", "b2"
        )
        hj = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        assert sorted(mj.to_operator(catalog).run()) == sorted(
            hj.to_operator(catalog).run()
        )

    def test_aggregate_lowers(self, catalog):
        plan = AggregateNode(scan("r1"), (AggregateSpec("count"),))
        rows = plan.to_operator(catalog).run()
        assert rows == [(600,)]

    def test_output_schema_matches_operator_schema(self, catalog):
        plan = ProjectNode(
            HashJoinNode(scan("r1"), scan("r2"), "b1", "b2"), ("a", "c2")
        )
        op = plan.to_operator(catalog).open()
        assert plan.output_schema(catalog) == op.schema
        op.close()
