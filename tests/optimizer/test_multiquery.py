"""Tests for multi-query optimization and co-scheduling."""

import pytest

from repro.core import IntraOnlyPolicy
from repro.core.ids import id_scope, task_ids
from repro.errors import OptimizerError
from repro.optimizer import (
    MultiQueryScheduler,
    OptimizerMode,
    Query,
    QuerySubmission,
)

from .corpus_tools import fixture_batch as submissions


class TestOptimizeBatch:
    def test_each_query_gets_plan_and_fragments(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        outcomes = scheduler.optimize_batch(submissions(chain_query))
        assert len(outcomes) == 3
        join_outcome = outcomes[0]
        assert len(join_outcome.fragments) >= 2
        assert len(join_outcome.tasks) == len(join_outcome.fragments)

    def test_dependencies_rewired_after_arrival_stamping(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        batch = [QuerySubmission("q", chain_query, arrival_time=3.0)]
        (outcome,) = scheduler.optimize_batch(batch)
        ids = {t.task_id for t in outcome.tasks}
        for task in outcome.tasks:
            assert task.arrival_time == 3.0
            assert task.depends_on <= ids  # deps point at live ids

    def test_one_task_id_per_fragment(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        batch = [QuerySubmission("q", chain_query, arrival_time=3.0)]
        with id_scope():
            (outcome,) = scheduler.optimize_batch(batch)
            drawn = task_ids()
        assert len(outcome.fragments) == 3
        assert drawn == len(outcome.fragments)
        assert [t.task_id for t in outcome.tasks] == list(range(drawn))
        assert [t.name for t in outcome.tasks] == ["q/frag0", "q/frag1", "q/frag2"]

    def test_empty_batch_rejected(self, catalog):
        with pytest.raises(OptimizerError):
            MultiQueryScheduler(catalog).optimize_batch([])

    def test_duplicate_names_rejected(self, catalog, chain_query):
        batch = [
            QuerySubmission("same", chain_query),
            QuerySubmission("same", chain_query),
        ]
        with pytest.raises(OptimizerError):
            MultiQueryScheduler(catalog).optimize_batch(batch)


class TestRun:
    def test_full_run_produces_outcomes(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        result = scheduler.run(submissions(chain_query))
        assert result.elapsed > 0
        assert len(result.outcomes) == 3
        for outcome in result.outcomes:
            assert outcome.finished_at >= outcome.started_at
            assert outcome.response_time > 0
        plan = result.outcome("scan-r3").plan
        assert {n.table for n in plan.walk() if not n.children} == {"r3"}
        with pytest.raises(OptimizerError):
            result.outcome("nope")

    def test_intra_query_dependencies_respected(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        result = scheduler.run([QuerySubmission("q", chain_query)])
        (outcome,) = result.outcomes
        records = {
            t.task_id: result.schedule.record_for(t) for t in outcome.tasks
        }
        for task in outcome.tasks:
            for dep in task.depends_on:
                assert records[task.task_id].started_at >= records[dep].finished_at - 1e-9

    def test_adaptive_beats_intra_for_the_batch(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        batch = submissions(chain_query)
        adaptive = scheduler.run(batch)
        intra = scheduler.run(batch, policy=IntraOnlyPolicy())
        assert adaptive.elapsed <= intra.elapsed + 1e-9

    def test_arrival_times_respected(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        batch = [
            QuerySubmission("early", Query(relations=["r2"]), arrival_time=0.0),
            QuerySubmission("late", Query(relations=["r3"]), arrival_time=1.5),
        ]
        result = scheduler.run(batch)
        assert result.outcome("late").started_at >= 1.5

    def test_mean_response_time(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog)
        result = scheduler.run(submissions(chain_query))
        assert result.mean_response_time == pytest.approx(
            sum(o.response_time for o in result.outcomes) / 3
        )

    def test_bushy_mode_for_batch(self, catalog, chain_query):
        scheduler = MultiQueryScheduler(catalog, mode=OptimizerMode.BUSHY_SEQ)
        result = scheduler.run([QuerySubmission("q", chain_query)])
        assert result.elapsed > 0
