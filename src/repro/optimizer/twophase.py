"""The two-phase optimization strategy, extended per Section 4.

Phase 1 (compile time): conventional optimization of *sequential* plans.
[HONG91] searched left-deep trees with ``seqcost``; Section 4 extends
this to bushy trees with ``parcost`` for the single-user case.

Phase 2 (run time): parallelize the chosen sequential plan — decompose
it into fragments and schedule them with the adaptive algorithm.

Three optimizer modes map onto the paper:

* ``LEFT_DEEP_SEQ`` — [HONG91]: left-deep space, seqcost.  In a
  multi-user system this is the right choice: "we rely on the tasks
  from different queries submitted by multiple users to achieve maximum
  resource utilizations using our scheduling algorithm."
* ``BUSHY_SEQ`` — bushy space, still seqcost (an ablation: bushy shape
  without parallel-aware costing).
* ``BUSHY_PAR`` — Section 4: bushy space costed by ``parcost(p, n)``.

By default the optimizer runs its **fast path**: per-node estimate
memoization, signature-keyed parcost caching, branch-and-bound
candidate skipping and a cross-query sub-plan memo (see
:mod:`repro.optimizer.cache`).  The last one is what the multi-user
mode lives on: Section 4 plans every query in the cheap
``LEFT_DEEP_SEQ`` space and leaves parallelism to the scheduler, so on
a serving path phase 1 is pure overhead, and the queries of a workload
are drawn from a handful of join graphs.  One optimizer shared by all
of them answers a repeated query with one lookup and a new query's
already-seen sub-join-graphs with one lookup each.  The fast path is
plan-identical — ``fast_path=False`` searches exhaustively with no
memos and chooses the same plan with the same cost, which the
golden-plan corpus test asserts exactly — and never stale: the memos
follow the catalog's ``stats_epoch``.  One exception: under
``SeqcostObjective`` with nest-loop-only joins, a plan and its mirror
image tie exactly, and the two arms sum a plan's nodes in different
orders, so the tie falls to ulp noise and the arms may choose mirror
plans (``ARMS_DISAGREE`` in ``tests/optimizer/test_fastpath.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..catalog.catalog import Catalog
from ..config import MachineConfig, paper_machine
from ..errors import OptimizerError
from ..plans.costing import estimate_plan
from ..plans.nodes import PlanNode
from .cache import CacheStats, OptimizerCaches
from .enumeration import JOIN_METHODS, enumerate_space
from .parcost import ParallelCost, ParcostObjective, parallel_cost
from .query import Query


class OptimizerMode(Enum):
    """Which plan space and cost function the optimizer uses."""

    LEFT_DEEP_SEQ = "left-deep/seqcost"
    BUSHY_SEQ = "bushy/seqcost"
    BUSHY_PAR = "bushy/parcost"


@dataclass
class OptimizedQuery:
    """Output of the two-phase optimizer."""

    query: Query
    mode: OptimizerMode
    plan: PlanNode
    parallel: ParallelCost
    #: Fast-path counters covering this optimization (None when the
    #: optimizer ran with ``fast_path=False``).  A snapshot: numbers are
    #: cumulative per optimizer instance, captured at return time.
    stats: dict | None = None

    @property
    def predicted_elapsed(self) -> float:
        return self.parallel.elapsed


class SeqcostObjective:
    """``seqcost`` as an enumeration objective, optionally memoized.

    The sibling of :class:`~repro.optimizer.parcost.ParcostObjective`:
    with ``caches`` it estimates through the shared node memo, so a
    candidate costs only its own top nodes, names itself through
    ``memo_key`` so the enumeration may share its DP cells across
    queries, and offers the same :meth:`pre_bound` hook.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        machine: MachineConfig,
        caches: OptimizerCaches | None = None,
    ) -> None:
        self.catalog = catalog
        self.machine = machine
        self.caches = caches
        self.memo_key = ("seqcost", machine) if caches is not None else None
        if caches is None:
            self.pre_bound = None  # type: ignore[assignment]

    def __call__(self, plan: PlanNode) -> float:
        if self.caches is None:
            estimate = estimate_plan(plan, self.catalog, machine=self.machine)
        else:
            estimate = self.caches.estimate(plan, self.catalog, machine=self.machine)
        return estimate.seqcost()

    def pre_bound(self, seqcost: float, total_ios: float) -> float:
        """``seqcost`` bounds itself: the sum *is* the cost, to rounding.

        So a seqcost search builds, and costs exactly, only the recipes
        within :data:`~repro.optimizer.enumeration.PRUNE_MARGIN` of
        their cell's best.
        """
        return seqcost


class TwoPhaseOptimizer:
    """Phase-1 plan choice plus phase-2 parallelization.

    Args:
        catalog: resolves schemas, indexes, statistics.
        machine: the run-time machine (known beforehand in the paper's
            single-user setting).
        fast_path: enable the memoized/pruned optimizer (default).  The
            caches live on the optimizer instance and are shared across
            queries; they drop themselves when the catalog's
            ``stats_epoch`` moves (ANALYZE, a new index, a new or
            dropped table).  ``False`` keeps no memo at all and is the
            exhaustive reference arm; it chooses the same plan with the
            same cost, except for the mirror-plan ties of nest-loop-only
            search under ``SeqcostObjective`` (see the module docstring).
        tracer: a :class:`~repro.obs.Tracer`; each ``optimize`` call
            emits one deterministic instant on the ``optimizer`` track
            carrying this query's candidate/pruned/costed and sub-plan
            hit/miss deltas.
            ``None`` records nothing.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        machine: MachineConfig | None = None,
        fast_path: bool = True,
        tracer=None,
    ) -> None:
        self.catalog = catalog
        self.machine = machine or paper_machine()
        self.caches: OptimizerCaches | None = (
            OptimizerCaches() if fast_path else None
        )
        self.tracer = tracer

    @property
    def cache_stats(self) -> CacheStats | None:
        """Cumulative fast-path counters (None with ``fast_path=False``)."""
        return self.caches.stats if self.caches is not None else None

    # -- phase 1 -------------------------------------------------------------------

    def choose_plan(self, query: Query, mode: OptimizerMode) -> PlanNode:
        """Phase 1: pick the best sequential plan under ``mode``."""
        if mode == OptimizerMode.BUSHY_PAR:
            space = "bushy"
            cost = ParcostObjective(
                self.catalog, machine=self.machine, caches=self.caches
            )
        elif mode in (OptimizerMode.BUSHY_SEQ, OptimizerMode.LEFT_DEEP_SEQ):
            space = "bushy" if mode == OptimizerMode.BUSHY_SEQ else "left-deep"
            cost = SeqcostObjective(
                self.catalog, machine=self.machine, caches=self.caches
            )
        else:  # pragma: no cover - exhaustiveness guard
            raise OptimizerError(f"unknown mode: {mode!r}")
        return enumerate_space(
            query,
            self.catalog,
            cost,
            space=space,
            methods=JOIN_METHODS,
            caches=self.caches,
        )

    # -- phase 2 -------------------------------------------------------------------

    def parallelize(self, plan: PlanNode) -> ParallelCost:
        """Phase 2: fragment the plan and schedule its tasks under the
        paper's INTER-WITH-ADJ algorithm."""
        return parallel_cost(
            plan,
            self.catalog,
            machine=self.machine,
            caches=self.caches,
        )

    # -- both ---------------------------------------------------------------------

    def optimize(
        self,
        query: Query,
        *,
        mode: OptimizerMode = OptimizerMode.BUSHY_PAR,
    ) -> OptimizedQuery:
        """Run both phases and return the full result."""
        stats = self.cache_stats
        tracer = self.tracer
        before = (
            stats.as_dict() if tracer is not None and stats is not None else None
        )
        plan = self.choose_plan(query, mode)
        parallel = self.parallelize(plan)
        after = stats.as_dict() if stats is not None else None
        if tracer is not None and before is not None and after is not None:
            delta = {
                key: max(0, after[key] - before[key]) for key in after
            }
            # Deterministic: virtual t=0, counter deltas only — no
            # wall time reaches the trace.
            tracer.instant(
                f"optimize {len(query.relations)} relations",
                t=0.0,
                track="optimizer",
                cat="optimizer",
                args={
                    "mode": mode.value,
                    "candidates": delta["candidates"],
                    "pruned": delta["pruned"],
                    "costed": delta["costed"],
                    "subplan_hits": delta["subplan_hits"],
                    "subplan_misses": delta["subplan_misses"],
                },
            )
        return OptimizedQuery(
            query=query,
            mode=mode,
            plan=plan,
            parallel=parallel,
            stats=after,
        )
