"""Tests for parcost and the two-phase optimizer (Section 4)."""

from dataclasses import replace

import pytest

from repro.config import paper_machine
from repro.core import IntraOnlyPolicy
from repro.optimizer import (
    OptimizerMode,
    TwoPhaseOptimizer,
    parallel_cost,
    parcost,
)
from repro.plans import HashJoinNode, SeqScanNode, is_left_deep


class TestParcost:
    def test_parcost_below_seqcost(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        pc = parallel_cost(plan, catalog)
        assert 0 < pc.elapsed < pc.seqcost
        assert pc.speedup > 1.0

    def test_parcost_matches_schedule_elapsed(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        pc = parallel_cost(plan, catalog)
        assert parcost(plan, catalog) == pytest.approx(pc.schedule.elapsed)

    def test_dependencies_respected_in_schedule(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        pc = parallel_cost(plan, catalog)
        build_task = pc.tasks[1]
        probe_task = pc.tasks[0]
        build = pc.schedule.record_for(build_task)
        probe = pc.schedule.record_for(probe_task)
        assert probe.started_at >= build.finished_at - 1e-9

    def test_more_processors_not_slower(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        small = parcost(plan, catalog, machine=replace(paper_machine(), processors=2))
        big = parcost(plan, catalog, machine=replace(paper_machine(), processors=8))
        assert big <= small + 1e-9

    def test_custom_policy(self, catalog):
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        pc = parallel_cost(plan, catalog, policy=IntraOnlyPolicy())
        assert pc.schedule.policy_name == "INTRA-ONLY"


class TestTwoPhase:
    def test_left_deep_mode_produces_left_deep(self, catalog, chain_query):
        opt = TwoPhaseOptimizer(catalog)
        plan = opt.choose_plan(chain_query, OptimizerMode.LEFT_DEEP_SEQ)
        assert is_left_deep(plan)

    def test_all_modes_produce_correct_results(self, catalog, chain_query):
        opt = TwoPhaseOptimizer(catalog)
        counts = set()
        for mode in OptimizerMode:
            plan = opt.choose_plan(chain_query, mode)
            counts.add(len(plan.to_operator(catalog).run()))
        assert len(counts) == 1

    def test_parcost_mode_not_worse_than_left_deep(self, catalog, chain_query):
        opt = TwoPhaseOptimizer(catalog)
        ld = opt.optimize(chain_query, mode=OptimizerMode.LEFT_DEEP_SEQ)
        par = opt.optimize(chain_query, mode=OptimizerMode.BUSHY_PAR)
        assert par.predicted_elapsed <= ld.predicted_elapsed + 1e-9

    def test_optimize_returns_full_artifacts(self, catalog, chain_query):
        opt = TwoPhaseOptimizer(catalog)
        result = opt.optimize(chain_query, mode=OptimizerMode.BUSHY_PAR)
        assert result.mode == OptimizerMode.BUSHY_PAR
        assert len(result.parallel.fragments) >= 2
        assert result.predicted_elapsed > 0
        assert result.parallel.tasks

    def test_parallelize_with_alternate_policy(self, catalog, chain_query):
        opt = TwoPhaseOptimizer(catalog)
        plan = opt.choose_plan(chain_query, OptimizerMode.LEFT_DEEP_SEQ)
        adaptive = opt.parallelize(plan)
        intra = parallel_cost(plan, catalog, policy=IntraOnlyPolicy())
        assert adaptive.elapsed <= intra.elapsed + 1e-9


class TestStatsEpoch:
    """The memos follow the catalog; nobody calls ``caches.clear()``."""

    @pytest.mark.parametrize("mode", list(OptimizerMode))
    def test_new_statistics_replan_without_clear(self, catalog, chain_query, mode):
        from dataclasses import replace

        from repro.optimizer import plan_shape_key

        opt = TwoPhaseOptimizer(catalog)
        first = opt.optimize(chain_query, mode=mode)
        again = opt.optimize(chain_query, mode=mode)
        assert again.plan is first.plan  # one lookup of the query memo
        assert again.stats["subplan_hits"] == first.stats["subplan_hits"] + 1
        assert again.stats["candidates"] == first.stats["candidates"]

        # ANALYZE finds r1 shrunk to a handful of rows.
        old = catalog.table("r1").stats
        assert opt.caches.subtrees
        catalog.set_stats("r1", replace(old, row_count=8, page_count=1))
        opt.caches.sync(catalog)
        assert not opt.caches.subtrees and not opt.caches.node_estimates
        replanned = opt.optimize(chain_query, mode=mode)
        assert replanned.stats["subplan_misses"] > again.stats["subplan_misses"]
        assert replanned.stats["candidates"] > again.stats["candidates"]
        fresh = TwoPhaseOptimizer(catalog).optimize(chain_query, mode=mode)
        assert plan_shape_key(replanned.plan) == plan_shape_key(fresh.plan)
        assert replanned.parallel.seqcost.hex() == fresh.parallel.seqcost.hex()
        assert replanned.predicted_elapsed.hex() == fresh.predicted_elapsed.hex()
        assert replanned.parallel.seqcost < first.parallel.seqcost

    def test_a_new_index_is_seen_by_the_next_query(self, catalog):
        from repro.executor import between
        from repro.optimizer import Query
        from repro.plans import IndexScanNode
        from repro.storage import BTreeIndex

        opt = TwoPhaseOptimizer(catalog)
        query = Query(relations=["r2"], selections={"r2": between("b2", 0, 1)})
        before = opt.choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
        assert not isinstance(before, IndexScanNode)
        index = BTreeIndex()
        position = catalog.table("r2").schema.index_of("b2")
        for rid, row in catalog.table("r2").heap.scan():
            index.insert(row[position], rid)
        opt.parallelize(before)  # reuses the plan whole: a subtree entry
        assert opt.caches.subtrees
        catalog.add_index("r2", "r2_b2_idx", "b2", index, clustered=True)
        opt.caches.sync(catalog)
        assert not opt.caches.subtrees and not opt.caches.node_estimates
        after = opt.choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
        assert isinstance(after, IndexScanNode)
        fresh = TwoPhaseOptimizer(catalog).choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
        assert after.label() == fresh.label()
