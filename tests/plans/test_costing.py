"""Tests for sequential cost estimation."""

import pytest

from repro.config import paper_machine
from repro.errors import OptimizerError
from repro.executor import AggregateSpec, between, col, gt
from repro.plans import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    MergeJoinNode,
    ProjectNode,
    RANDOM,
    SEQUENTIAL,
    SeqScanNode,
    SortNode,
    estimate_plan,
)

MACHINE = paper_machine()


def output_rows(est):
    """The estimated row count of the plan's root."""
    return est.by_node[est.plan.node_id].rows


def cpu_plus_io(est):
    """Every node's CPU seconds summed, plus every node's io seconds summed."""
    nodes = est.by_node.values()
    return sum(e.cpu_time for e in nodes) + sum(est.io_time(e) for e in nodes)


class TestScanEstimates:
    def test_seqscan_ios_equal_pages(self, catalog):
        plan = SeqScanNode("r1")
        est = estimate_plan(plan, catalog)
        node = est.by_node[plan.node_id]
        assert node.ios == catalog.table("r1").stats.page_count
        assert node.io_pattern == SEQUENTIAL
        assert node.rows == pytest.approx(600)

    def test_seqscan_selectivity_reduces_rows(self, catalog):
        full = output_rows(estimate_plan(SeqScanNode("r1"), catalog))
        half_plan = SeqScanNode("r1", between("a", 0, 150))
        half = output_rows(estimate_plan(half_plan, catalog))
        assert 0 < half < full

    def test_indexscan_random_pattern(self, catalog):
        plan = IndexScanNode("r1", "r1_a_idx", low=0, high=50)
        est = estimate_plan(plan, catalog)
        node = est.by_node[plan.node_id]
        assert node.io_pattern == RANDOM
        # one heap io per matching row
        assert node.ios == pytest.approx(node.rows)

    def test_indexscan_cheaper_than_seqscan_for_narrow_range(self, catalog):
        narrow_idx = estimate_plan(
            IndexScanNode("r1", "r1_a_idx", low=0, high=2), catalog
        ).seqcost()
        seq = estimate_plan(SeqScanNode("r1", between("a", 0, 2)), catalog).seqcost()
        assert narrow_idx < seq

    def test_missing_stats_raises(self, catalog):
        catalog.table("r1").stats = None
        with pytest.raises(OptimizerError):
            estimate_plan(SeqScanNode("r1"), catalog)


class TestOperatorEstimates:
    def test_filter_costs_cpu_only(self, catalog):
        scan = SeqScanNode("r1")
        plan = FilterNode(scan, gt(col("a"), 100))
        est = estimate_plan(plan, catalog)
        node = est.by_node[plan.node_id]
        assert node.ios == 0
        assert node.cpu_time > 0
        assert node.rows < est.by_node[scan.node_id].rows

    def test_project_keeps_rows(self, catalog):
        scan = SeqScanNode("r1")
        plan = ProjectNode(scan, ("a",))
        est = estimate_plan(plan, catalog)
        assert est.by_node[plan.node_id].rows == est.by_node[scan.node_id].rows

    def test_sort_nlogn(self, catalog):
        plan = SortNode(SeqScanNode("r1"), ("a",))
        est = estimate_plan(plan, catalog)
        assert est.by_node[plan.node_id].cpu_time > 0

    def test_aggregate_reduces_to_one_row(self, catalog):
        plan = AggregateNode(SeqScanNode("r1"), (AggregateSpec("count"),))
        est = estimate_plan(plan, catalog)
        assert est.by_node[plan.node_id].rows == 1.0

    def test_grouped_aggregate_rows_bounded_by_distinct(self, catalog):
        plan = AggregateNode(
            SeqScanNode("r1"), (AggregateSpec("count"),), group_by=("b1",)
        )
        est = estimate_plan(plan, catalog)
        distinct = catalog.table("r1").stats.columns["b1"].n_distinct
        assert est.by_node[plan.node_id].rows <= distinct


class TestJoinEstimates:
    def test_equijoin_cardinality(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        est = estimate_plan(plan, catalog)
        r1 = catalog.table("r1").stats
        r2 = catalog.table("r2").stats
        distinct = max(
            r1.columns["b1"].n_distinct, r2.columns["b2"].n_distinct
        )
        expected = r1.row_count * r2.row_count / distinct
        assert est.by_node[plan.node_id].rows == pytest.approx(expected)

    def test_join_estimate_roughly_matches_execution(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        predicted = output_rows(estimate_plan(plan, catalog))
        actual = len(plan.to_operator(catalog).run())
        assert predicted == pytest.approx(actual, rel=0.5)

    @pytest.mark.parametrize("join", [HashJoinNode, MergeJoinNode])
    def test_join_stats_merge_both_inputs(self, catalog, join):
        plan = join(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        stats = estimate_plan(plan, catalog).by_node[plan.node_id].column_stats
        scans = [estimate_plan(s, catalog).by_node[s.node_id] for s in plan.children]
        assert set(stats) == set(scans[0].column_stats) | set(scans[1].column_stats)
        rows = estimate_plan(plan, catalog).by_node[plan.node_id].rows
        assert all(s.n_distinct <= max(1, int(rows)) for s in stats.values())


class TestPlanCosts:
    def test_seqcost_is_cpu_plus_io(self, catalog):
        plan = SeqScanNode("r1")
        est = estimate_plan(plan, catalog)
        assert est.seqcost() == pytest.approx(cpu_plus_io(est))

    def test_seqcost_is_the_two_sums_bit_for_bit(self, catalog):
        # The optimizer compares seqcost floats exactly, so its single
        # pass must add in the order the two totals do.
        plan = MergeJoinNode(
            SortNode(IndexScanNode("r1", "r1_a_idx", low=0, high=100), ("b1",)),
            SortNode(
                HashJoinNode(SeqScanNode("r2"), SeqScanNode("r3"), "c2", "c3"),
                ("b2",),
            ),
            "b1",
            "b2",
        )
        est = estimate_plan(plan, catalog)
        assert est.seqcost().hex() == cpu_plus_io(est).hex()

    def test_io_time_uses_pattern_bandwidth(self, catalog):
        seq_est = estimate_plan(SeqScanNode("r1"), catalog)
        seq_node = seq_est.by_node[seq_est.plan.node_id]
        assert seq_est.io_time(seq_node) == pytest.approx(
            seq_node.ios / MACHINE.disk.seq_ios_per_sec
        )
        idx_plan = IndexScanNode("r1", "r1_a_idx", low=0, high=100)
        idx_est = estimate_plan(idx_plan, catalog)
        idx_node = idx_est.by_node[idx_plan.node_id]
        assert idx_est.io_time(idx_node) == pytest.approx(
            idx_node.ios / MACHINE.disk.random_ios_per_sec
        )
