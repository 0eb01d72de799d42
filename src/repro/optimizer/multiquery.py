"""Parallel optimization and scheduling of multiple queries.

The paper's second piece of future work: "So far, we have only studied
the parallel optimization problem of a single query.  We also plan to
extend our results to deal with parallel optimization of multiple
queries."

Section 4's multi-user advice is the blueprint: "We still find the best
parallel plan for each query using only intra-operation parallelism
with the algorithm in [HONG91], but we rely on the tasks from different
queries submitted by multiple users to achieve maximum resource
utilizations using our scheduling algorithm."  This module implements
exactly that pipeline:

1. phase 1 per query (any :class:`OptimizerMode`);
2. fragment every chosen plan into named, arrival-stamped tasks that
   keep its intra-query dependencies (:meth:`FragmentGraph.to_tasks`);
3. pool all fragments into one adaptive scheduler run (optionally with
   per-query arrival times);
4. report per-query response times alongside the batch elapsed time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..catalog.catalog import Catalog
from ..config import paper_machine
from ..core.schedulers import InterWithAdjPolicy, SchedulingPolicy
from ..core.task import Task
from ..errors import OptimizerError
from ..plans.costing import estimate_plan
from ..plans.fragments import FragmentGraph, fragment_plan
from ..plans.nodes import PlanNode
from ..sim.fluid import FluidSimulator, ScheduleResult
from .query import Query
from .twophase import OptimizerMode, TwoPhaseOptimizer


@dataclass(frozen=True)
class QuerySubmission:
    """One user query entering the system.

    Attributes:
        name: label used in reports.
        query: the query block.
        arrival_time: submission time (0.0 = present at batch start).
    """

    name: str
    query: Query
    arrival_time: float = 0.0


@dataclass
class QueryOutcome:
    """Per-query results of a multi-query schedule."""

    submission: QuerySubmission
    plan: PlanNode
    fragments: FragmentGraph
    tasks: list[Task] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def response_time(self) -> float:
        return self.finished_at - self.submission.arrival_time


@dataclass
class MultiQueryResult:
    """Outcome of optimizing and scheduling a query batch."""

    outcomes: list[QueryOutcome]
    schedule: ScheduleResult

    @property
    def elapsed(self) -> float:
        return self.schedule.elapsed

    @property
    def mean_response_time(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.response_time for o in self.outcomes) / len(self.outcomes)

    def outcome(self, name: str) -> QueryOutcome:
        """The outcome of the query submitted as ``name``."""
        for outcome in self.outcomes:
            if outcome.submission.name == name:
                return outcome
        raise OptimizerError(f"no query named {name!r} in this batch")


class MultiQueryScheduler:
    """Optimize a batch of queries and co-schedule all their fragments.

    Args:
        catalog: shared catalog (all queries run against it).
        mode: phase-1 optimizer mode per query.  The paper's multi-user
            recommendation is LEFT_DEEP_SEQ — inter-operation
            parallelism then comes from *other queries'* tasks.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        mode: OptimizerMode = OptimizerMode.LEFT_DEEP_SEQ,
    ) -> None:
        self.catalog = catalog
        self.machine = paper_machine()
        self.mode = mode
        self._optimizer = TwoPhaseOptimizer(catalog, machine=self.machine)

    def optimize_batch(
        self, submissions: Sequence[QuerySubmission]
    ) -> list[QueryOutcome]:
        """Phase 1 + fragmentation for every query; no scheduling yet."""
        if not submissions:
            raise OptimizerError("empty query batch")
        names = [s.name for s in submissions]
        if len(set(names)) != len(names):
            raise OptimizerError("duplicate query names in batch")
        outcomes = []
        caches = self._optimizer.caches
        for submission in submissions:
            plan = self._optimizer.choose_plan(submission.query, self.mode)
            # The optimizer's node memo already holds every estimate the
            # phase-1 search produced for this plan's nodes; threading it
            # through makes this a lookup instead of a recosting pass.
            estimate = estimate_plan(
                plan,
                self.catalog,
                machine=self.machine,
                cache=caches.node_estimates if caches is not None else None,
            )
            fragments = fragment_plan(plan, estimate)
            tasks = fragments.to_tasks(
                name=submission.name, arrival_time=submission.arrival_time
            )
            outcomes.append(
                QueryOutcome(
                    submission=submission,
                    plan=plan,
                    fragments=fragments,
                    tasks=tasks,
                )
            )
        return outcomes

    def run(
        self,
        submissions: Sequence[QuerySubmission],
        *,
        policy: SchedulingPolicy | None = None,
    ) -> MultiQueryResult:
        """Optimize the batch and simulate its co-scheduled execution."""
        outcomes = self.optimize_batch(submissions)
        pooled: list[Task] = []
        for outcome in outcomes:
            pooled.extend(outcome.tasks)
        simulator = FluidSimulator(self.machine)
        schedule = simulator.run(pooled, policy or InterWithAdjPolicy())
        for outcome in outcomes:
            records = [
                schedule.record_for(task) for task in outcome.tasks
            ]
            outcome.started_at = min(r.started_at for r in records)
            outcome.finished_at = max(r.finished_at for r in records)
        return MultiQueryResult(outcomes=outcomes, schedule=schedule)


def rewire_dependencies(
    originals: Sequence[Task], rekeyed: Sequence[Task]
) -> list[Task]:
    """Re-attach intra-batch dependencies after task ids changed.

    :meth:`~repro.core.task.Task.with_arrival` returns a copy with a
    *fresh* ``task_id``, which orphans every ``depends_on`` edge between
    tasks of the same batch.  Given the original tasks and their
    positionally matching re-keyed copies, this rewrites each copy's
    dependencies in terms of the new ids.  The library itself no
    longer stamps this way — a plan's tasks come stamped and wired from
    :meth:`~repro.plans.fragments.FragmentGraph.to_tasks` — and the
    remaining caller is the end-to-end benchmark harness
    (``benchmarks/e2e/e2e_workloads.py``), whose workloads stay fixed.

    Args:
        originals: tasks whose ``depends_on`` sets reference ids within
            ``originals`` itself.
        rekeyed: the same tasks, in the same order, after an
            id-re-keying copy such as ``with_arrival``.

    Raises:
        OptimizerError: on a length mismatch or a dependency pointing
            outside the batch.
    """
    if len(originals) != len(rekeyed):
        raise OptimizerError(
            "rewire_dependencies: originals and rekeyed differ in length "
            f"({len(originals)} vs {len(rekeyed)})"
        )
    new_id = {
        original.task_id: copy.task_id
        for original, copy in zip(originals, rekeyed)
    }
    rewired: list[Task] = []
    for original, copy in zip(originals, rekeyed):
        try:
            deps = [new_id[d] for d in original.depends_on]
        except KeyError as missing:
            raise OptimizerError(
                f"task {original.name!r} depends on id {missing.args[0]} "
                "which is not part of the batch"
            ) from None
        rewired.append(copy.with_dependencies(deps))
    return rewired
