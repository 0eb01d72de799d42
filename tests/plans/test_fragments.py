"""Tests for fragment decomposition (Section 2.1)."""

import pytest

from repro.core.ids import id_scope, task_ids
from repro.core.task import IOPattern
from repro.errors import PlanError
from repro.executor import AggregateSpec, col, eq
from repro.plans import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    MergeJoinNode,
    NestLoopJoinNode,
    SeqScanNode,
    SortNode,
    estimate_plan,
    fragment_plan,
)


def scan(table="r1"):
    return SeqScanNode(table)


class TestDecomposition:
    def test_scan_is_single_fragment(self):
        graph = fragment_plan(scan())
        assert len(graph) == 1
        assert graph.root_fragment.depends_on == set()

    def test_pipeline_stays_one_fragment(self):
        plan = FilterNode(scan(), eq(col("a"), 1))
        graph = fragment_plan(plan)
        assert len(graph) == 1
        assert len(graph.root_fragment.nodes) == 2

    def test_hash_join_splits_at_build(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        graph = fragment_plan(plan)
        assert len(graph) == 2
        # Probe fragment (join + outer scan) depends on build fragment.
        probe = graph.root_fragment
        assert len(probe.nodes) == 2
        (build_id,) = probe.depends_on
        build = graph.fragments[build_id]
        assert build.root.label() == "SeqScan(r2)"

    def test_merge_join_splits_at_sorts(self):
        plan = MergeJoinNode(
            SortNode(scan("r1"), ("b1",)), SortNode(scan("r2"), ("b2",)), "b1", "b2"
        )
        graph = fragment_plan(plan)
        # Fragment 0: join + both sorts; fragments 1, 2: the scans.
        assert len(graph) == 3
        assert graph.root_fragment.depends_on == {1, 2}

    def test_bushy_plan_fragments(self):
        left = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        right = HashJoinNode(scan("r3"), scan("r4"), "d3", "d4")
        plan = HashJoinNode(left, right, "c2", "c3")
        graph = fragment_plan(plan)
        # top probe (join+left-probe chain) | right subtree build | two
        # inner builds.
        assert len(graph) == 4
        order = graph.topological_order()
        assert order[-1] is graph.root_fragment

    def test_aggregation_on_join(self):
        join = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        plan = AggregateNode(join, (AggregateSpec("count"),))
        graph = fragment_plan(plan)
        assert len(graph) == 3
        assert graph.root_fragment.root is plan

    def test_nestloop_with_index_inner_is_one_fragment(self):
        inner = IndexScanNode("r1", "r1_a_idx", low=0, high=10)
        plan = NestLoopJoinNode(scan("r2"), inner, None)
        graph = fragment_plan(plan)
        assert len(graph) == 1

    def test_ready_progression(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        graph = fragment_plan(plan)
        first = graph.ready(set())
        assert [f.fragment_id for f in first] == [1]
        second = graph.ready({1})
        assert [f.fragment_id for f in second] == [0]

    def test_fragment_of(self):
        plan = HashJoinNode(scan("r1"), scan("r2"), "b1", "b2")
        graph = fragment_plan(plan)
        assert graph.fragment_of(plan) is graph.root_fragment
        assert graph.fragment_of(plan.children[1]).fragment_id == 1
        with pytest.raises(PlanError):
            graph.fragment_of(scan("r9"))


class TestProfiles:
    def test_unprofiled_fragment_cannot_become_task(self):
        graph = fragment_plan(scan())
        with pytest.raises(PlanError):
            graph.root_fragment.to_task()

    def test_profiles_sum_to_plan_totals(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        estimate = estimate_plan(plan, catalog)
        graph = fragment_plan(plan, estimate)
        assert sum(f.io_count for f in graph.fragments) == pytest.approx(
            estimate.total_ios()
        )
        assert sum(f.seq_time for f in graph.fragments) == pytest.approx(
            estimate.seqcost()
        )

    def test_seq_scan_fragment_is_sequential_pattern(self, catalog):
        estimate = estimate_plan(SeqScanNode("r1"), catalog)
        graph = fragment_plan(estimate.plan, estimate)
        assert graph.root_fragment.io_pattern == IOPattern.SEQUENTIAL

    def test_index_fragment_is_random_pattern(self, catalog):
        plan = IndexScanNode("r1", "r1_a_idx", low=0, high=300)
        estimate = estimate_plan(plan, catalog)
        graph = fragment_plan(plan, estimate)
        assert graph.root_fragment.io_pattern == IOPattern.RANDOM

    def test_to_tasks_wires_dependencies(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        estimate = estimate_plan(plan, catalog)
        tasks = fragment_plan(plan, estimate).to_tasks()
        assert len(tasks) == 2
        probe, build = tasks
        assert probe.depends_on == {build.task_id}
        assert build.depends_on == frozenset()

    def test_to_tasks_names_stamps_and_wires(self, catalog):
        plan = MergeJoinNode(
            SortNode(SeqScanNode("r1"), ("b1",)),
            SortNode(SeqScanNode("r2"), ("b2",)),
            "b1",
            "b2",
        )
        graph = fragment_plan(plan, estimate_plan(plan, catalog))
        with id_scope():
            tasks = graph.to_tasks(name="q7", arrival_time=2.5)
            drawn = task_ids()
        assert drawn == len(tasks) == 3
        assert [t.name for t in tasks] == ["q7/frag0", "q7/frag1", "q7/frag2"]
        assert all(t.arrival_time == 2.5 for t in tasks)
        merge, left, right = tasks
        assert merge.depends_on == {left.task_id, right.task_id}
        assert left.depends_on == right.depends_on == frozenset()
        for task, fragment in zip(tasks, graph.fragments):
            assert task.payload is fragment
            assert task.seq_time == fragment.seq_time

    def test_to_tasks_defaults_keep_fragment_labels(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        tasks = fragment_plan(plan, estimate_plan(plan, catalog)).to_tasks()
        assert [t.name for t in tasks] == [
            "frag0(HashJoin(b1 = b2))",
            "frag1(SeqScan(r2))",
        ]
        assert all(t.arrival_time == 0.0 for t in tasks)

    def test_task_io_rate_positive(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        estimate = estimate_plan(plan, catalog)
        for fragment in fragment_plan(plan, estimate).fragments:
            assert fragment.io_rate > 0
            task = fragment.to_task()
            assert task.seq_time == pytest.approx(fragment.seq_time)


def _shape(graph):
    """Everything a fragmentation hands on, by value and node id."""
    return (
        graph.signature(),
        [f.fragment_id for f in graph.fragments],
        [f.root.node_id for f in graph.fragments],
        [[n.node_id for n in f.nodes] for f in graph.fragments],
        [f.depends_on for f in graph.fragments],
    )


class TestCutThroughTheMemo:
    """``fragment_plan`` cuts through the subtree memo its estimate carries."""

    @pytest.fixture
    def served(self):
        """An optimizer, its catalog's query, and the served plan's estimate."""
        from repro.optimizer import OptimizerMode, TwoPhaseOptimizer
        from repro.workloads import chain_join

        schema = chain_join(4, rows_per_relation=60, seed=3)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        plan = optimizer.choose_plan(schema.query, OptimizerMode.LEFT_DEEP_SEQ)

        def estimate(cache):
            return estimate_plan(
                plan, schema.catalog, machine=optimizer.machine, cache=cache
            )

        return optimizer, plan, estimate

    def test_cold_and_hit_cuts_equal_a_plain_dict_cut(self, served):
        optimizer, plan, estimate = served
        memo = optimizer.caches.node_estimates
        memoized = estimate(memo)
        assert memoized.memo() is memo
        assert memo.subtrees[plan.node_id].fragments is None
        plain = _shape(fragment_plan(plan, estimate({})))
        assert len(plain[0]) > 1
        cold = fragment_plan(plan, memoized)
        assert memo.subtrees[plan.node_id].fragments is not None
        hit = fragment_plan(plan, estimate(memo))
        assert _shape(cold) == _shape(hit) == plain
        assert _shape(fragment_plan(plan, estimate(None))) == plain

    def test_a_summarized_plan_is_cut_at_its_root_only(self, served, monkeypatch):
        from repro.plans import fragments

        optimizer, plan, estimate = served
        memoized = estimate(optimizer.caches.node_estimates)
        fragment_plan(plan, memoized)
        calls = []
        cut = fragments._cut

        def counting(node, *args):
            calls.append(node.node_id)
            return cut(node, *args)

        monkeypatch.setattr(fragments, "_cut", counting)
        fragment_plan(plan, memoized)
        assert calls == [plan.node_id]
        calls.clear()
        fragment_plan(plan, estimate({}))
        assert len(calls) == len(list(plan.walk()))

    def test_a_stats_epoch_bump_recuts_with_the_new_estimates(self, served):
        import dataclasses

        optimizer, plan, estimate = served
        caches = optimizer.caches
        before = fragment_plan(plan, estimate(caches.node_estimates)).signature()
        catalog = optimizer.catalog
        stats = catalog.table("s1").stats
        catalog.set_stats("s1", dataclasses.replace(stats, page_count=stats.page_count * 3))
        caches.sync(catalog)
        assert not caches.subtrees
        after = fragment_plan(plan, estimate(caches.node_estimates)).signature()
        assert after != before
        assert after == fragment_plan(plan, estimate(None)).signature()

    def test_an_estimate_does_not_keep_the_memo_alive(self, served):
        import gc

        optimizer, plan, estimate = served
        memoized = estimate(optimizer.caches.node_estimates)
        expected = _shape(fragment_plan(plan, memoized))
        optimizer.caches = None
        gc.collect()
        assert memoized.memo() is None
        assert _shape(fragment_plan(plan, memoized)) == expected
