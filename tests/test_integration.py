"""Whole-stack integration tests: SQL → optimizer → fragments →
scheduler → executor, checked for answer correctness and consistency."""

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, IntraOnlyPolicy
from repro.core.recursion import elapsed_time_recursion
from repro.plans import estimate_plan, fragment_plan
from repro.sim import FluidSimulator
from repro.sql import run_sql, translate
from repro.workloads import chain_join, star_join

MACHINE = paper_machine()


@pytest.fixture(scope="module")
def chain():
    return chain_join(3, rows_per_relation=400, seed=13)


class TestSqlThroughScheduler:
    def test_sql_plan_fragments_and_schedules(self, chain):
        translated = translate(
            "SELECT count(*) FROM s1, s2, s3 WHERE s1_r = s2_l AND s2_r = s3_l",
            chain.catalog,
        )
        estimate = estimate_plan(translated.plan, chain.catalog, machine=MACHINE)
        graph = fragment_plan(translated.plan, estimate)
        assert len(graph) >= 3
        tasks = graph.to_tasks()
        result = FluidSimulator(MACHINE).run(list(tasks), InterWithAdjPolicy())
        assert result.elapsed > 0
        # Scheduled elapsed matches the paper's closed recursion.
        assert result.elapsed == pytest.approx(
            elapsed_time_recursion(tasks, MACHINE), rel=1e-3
        )

    def test_sql_answer_stable_across_plan_spaces(self, chain):
        sql = (
            "SELECT count(*) FROM s1, s2, s3 "
            "WHERE s1_r = s2_l AND s2_r = s3_l AND s1_l < 60"
        )
        bushy = run_sql(sql, chain.catalog, space="bushy")
        left_deep = run_sql(sql, chain.catalog, space="left-deep")
        assert bushy == left_deep

    def test_sql_agrees_with_manual_computation(self, chain):
        rows = {}
        for name in ("s1", "s2", "s3"):
            rows[name] = [r for __, r in chain.catalog.table(name).heap.scan()]
        expected = 0
        s2_by_l = {}
        for r in rows["s2"]:
            s2_by_l.setdefault(r[0], []).append(r)
        s3_by_l = {}
        for r in rows["s3"]:
            s3_by_l.setdefault(r[0], []).append(r)
        for r1 in rows["s1"]:
            for r2 in s2_by_l.get(r1[1], []):
                expected += len(s3_by_l.get(r2[1], []))
        (got,) = run_sql(
            "SELECT count(*) FROM s1, s2, s3 WHERE s1_r = s2_l AND s2_r = s3_l",
            chain.catalog,
        )[0]
        assert got == expected


class TestOptimizerThroughScheduler:
    def test_star_query_schedules_build_fragments_concurrently(self):
        from repro.optimizer import OptimizerMode, TwoPhaseOptimizer

        schema = star_join(3, fact_rows=600, dimension_rows=100, seed=3)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        result = optimizer.optimize(schema.query, mode=OptimizerMode.BUSHY_SEQ)
        # A star over 3 dimensions has 3 independent build fragments.
        independents = [
            f for f in result.parallel.fragments.fragments if not f.depends_on
        ]
        assert len(independents) >= 3
        # The adaptive schedule is no slower than intra-only.
        from repro.optimizer.parcost import parallel_cost

        intra = parallel_cost(
            result.plan, schema.catalog, policy=IntraOnlyPolicy()
        )
        assert result.parallel.elapsed <= intra.elapsed + 1e-9

    def test_memory_constraint_respected_end_to_end(self):
        import dataclasses

        schema = chain_join(3, rows_per_relation=400, seed=7)
        from repro.optimizer import OptimizerMode, TwoPhaseOptimizer

        optimizer = TwoPhaseOptimizer(schema.catalog)
        plan = optimizer.choose_plan(schema.query, OptimizerMode.BUSHY_SEQ)
        estimate = estimate_plan(plan, schema.catalog, machine=MACHINE)
        graph = fragment_plan(plan, estimate)
        tasks = graph.to_tasks()
        footprints = [t.memory_bytes for t in tasks if t.memory_bytes > 0]
        assert footprints  # hash joins pinned memory
        # Budget below the largest pair forces serialization, but the
        # answer path (the schedule) still completes.
        tight = dataclasses.replace(
            MACHINE, work_memory_bytes=max(footprints) * 1.01
        )
        result = FluidSimulator(tight).run(list(tasks), InterWithAdjPolicy())
        assert result.peak_memory <= tight.work_memory_bytes + 1e-6
        assert len(result.records) == len(tasks)
