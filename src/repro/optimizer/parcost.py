"""Parallel cost estimation — ``parcost(p, n)`` (Section 4).

"Let T_n(S) be the elapsed time of executing a set of tasks S with n
processors ... This formula is derived directly from our scheduling
algorithm.  We compute parallel execution cost of a plan as
``parcost(p, n) = T_n(F(p))``."

The recursion in the paper *is* a deterministic simulation of the
adaptive scheduling algorithm over the plan's fragments, respecting the
order-dependencies between them.  We therefore compute it by running the
fluid engine with the INTER-WITH-ADJ policy over the fragment tasks —
the same machinery the runtime uses, so the estimate and the execution
agree by construction.

Because the simulation depends only on the fragments' canonical
scheduling signature, the machine and the policy, structurally
equivalent subplans share one simulation: with an
:class:`~repro.optimizer.cache.OptimizerCaches` attached, repeat
signatures are answered from the memo with the exact float the fresh
run would have produced.  :class:`ParcostObjective` packages the cached
cost function together with the provable lower bound
``parcost >= max(seqcost / N, D / B)`` that the enumeration's
branch-and-bound relies on, in a form it can take before a candidate
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..config import MachineConfig, paper_machine
from ..core.schedulers import InterWithAdjPolicy, SchedulingPolicy
from ..core.task import Task
from ..plans.costing import PlanEstimate, estimate_plan
from ..plans.fragments import (
    FragmentGraph,
    fragment_plan,
    plan_signature,
    signature_tasks,
)
from ..plans.nodes import PlanNode
from ..sim.fluid import FluidSimulator, ScheduleResult
from .cache import OptimizerCaches


@dataclass
class ParallelCost:
    """The full parcost computation for one plan."""

    plan: PlanNode
    estimate: PlanEstimate
    fragments: FragmentGraph
    tasks: list[Task]
    schedule: ScheduleResult

    @property
    def elapsed(self) -> float:
        """``parcost(p, n)`` — predicted parallel elapsed time."""
        return self.schedule.elapsed

    @property
    def seqcost(self) -> float:
        """The conventional sequential cost of the same plan."""
        return self.estimate.seqcost()

    @property
    def speedup(self) -> float:
        return self.seqcost / self.elapsed if self.elapsed > 0 else 0.0


#: Shared default policy instance; ``FluidSimulator.run`` resets it, so
#: reuse is safe and saves one construction per parcost call.
_DEFAULT_POLICY = InterWithAdjPolicy()


def _prepare(plan, catalog, machine, policy, caches, estimate):
    """What both cost functions start from: machine, estimate, and the
    caches that memoize the elapsed time.

    Only the default policy's elapsed times are memoized: a policy
    passed in (a subclass, or a serving gate carrying external state)
    could decide differently for the same signature, so it is simulated
    afresh every time.
    """
    machine = machine or paper_machine()
    memo = None
    if caches is not None:
        caches.sync(catalog)
        memo = caches.node_estimates
    if estimate is None:
        estimate = estimate_plan(plan, catalog, machine=machine, cache=memo)
    return machine, estimate, caches if policy is None else None


def _simulate(tasks, signature, machine, policy, store) -> ScheduleResult:
    """Run the scheduling algorithm over ``tasks``; memoize the elapsed
    time in ``store`` (an :class:`OptimizerCaches`, or None)."""
    simulator = FluidSimulator(machine, adjustment_overhead=0.0)
    schedule = simulator.run(tasks, policy or _DEFAULT_POLICY)
    if store is not None:
        store.parcost_elapsed[(signature, machine)] = schedule.elapsed
    return schedule


def parallel_cost(
    plan: PlanNode,
    catalog: Catalog,
    *,
    machine: MachineConfig | None = None,
    policy: SchedulingPolicy | None = None,
    caches: OptimizerCaches | None = None,
) -> ParallelCost:
    """Compute ``parcost(p, n)`` with full intermediate artifacts.

    Args:
        plan: the sequential plan to parallelize.
        catalog: resolves statistics.
        machine: the target machine (``n`` is its processor count).
        policy: scheduling policy to simulate (default: the paper's
            INTER-WITH-ADJ algorithm).
        caches: optional fast-path memos; node estimates are reused and
            the signature cache is (re)populated with this run's
            elapsed time.

    The full artifacts (fragments, tasks, schedule trace) always come
    from a fresh simulation of *this* plan's tasks, so ``schedule``
    records match ``tasks`` by id even when the scalar cache is warm.
    """
    machine, estimate, store = _prepare(plan, catalog, machine, policy, caches, None)
    fragments = fragment_plan(plan, estimate)
    signature = fragments.signature()
    tasks = signature_tasks(signature, fragments.fragments)
    schedule = _simulate(list(tasks), signature, machine, policy, store)
    return ParallelCost(
        plan=plan,
        estimate=estimate,
        fragments=fragments,
        tasks=tasks,
        schedule=schedule,
    )


def parcost(
    plan: PlanNode,
    catalog: Catalog,
    *,
    machine: MachineConfig | None = None,
    caches: OptimizerCaches | None = None,
    estimate: PlanEstimate | None = None,
) -> float:
    """``parcost(p, n)`` as a plain number (the optimizer's cost hook),
    under the paper's INTER-WITH-ADJ algorithm.

    No fragment is built: the signature is composed from the plan's
    fragment summary and the tasks come straight from its rows.  With
    ``caches`` attached, subplans already summarized are not revisited,
    and plans whose signature was already simulated (for this machine)
    return the memoized elapsed time without running the engine.
    """
    machine, estimate, store = _prepare(plan, catalog, machine, None, caches, estimate)
    signature = plan_signature(
        plan, estimate, caches.subtrees if caches is not None else None
    )
    if caches is not None:
        cached = caches.parcost_elapsed.get((signature, machine))
        if cached is not None:
            caches.stats.parcost_hits += 1
            return cached
        caches.stats.parcost_misses += 1
    tasks = signature_tasks(signature)
    return _simulate(tasks, signature, machine, None, store).elapsed


class ParcostObjective:
    """``parcost`` as a pluggable enumeration objective.

    Callable like the plain cost hook, but optionally memoized
    (``caches``) and exposing :meth:`pre_bound` so
    :func:`~repro.optimizer.enumeration.enumerate_space` can
    branch-and-bound before it builds.  With ``caches=None`` this is the
    unoptimized path: every call estimates, fragments and simulates from
    scratch and no pruning hook is offered — the reference the
    golden-plan corpus compares the fast path against.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        machine: MachineConfig | None = None,
        caches: OptimizerCaches | None = None,
    ) -> None:
        self.catalog = catalog
        self.machine = machine or paper_machine()
        self.caches = caches
        #: What the enumeration shares DP cells under; None = never
        #: (no caches).
        self.memo_key: tuple | None = None
        if caches is None:
            # Shadow the method: the unoptimized reference path offers no
            # pruning hook, so the enumeration builds every candidate.
            self.pre_bound = None  # type: ignore[assignment]
        else:
            self.memo_key = ("parcost", self.machine)

    def __call__(self, plan: PlanNode) -> float:
        estimate = None
        if self.caches is not None:
            estimate = self.caches.estimate(plan, self.catalog, machine=self.machine)
        return parcost(
            plan,
            self.catalog,
            machine=self.machine,
            caches=self.caches,
            estimate=estimate,
        )

    def pre_bound(self, seqcost: float, total_ios: float) -> float:
        """A provable lower bound on the ``parcost`` of a plan with these
        two sums: its ``seqcost()`` and its ``total_ios()``.

        The fluid engine caps the aggregate progress rate at ``N``
        sequential-seconds per second (the processors) and the aggregate
        io service rate at the nominal bandwidth ``B`` (effective
        bandwidth never exceeds it), and adjustment overhead only adds
        work, so::

            parcost(p, n) >= max(seqcost(p) / N, D(p) / B)

        The search passes its inputs' sums plus the join's own cost, so
        a candidate is bounded — and mostly rejected — before any node
        of it exists.  Candidates whose bound already exceeds the
        incumbent's true cost cannot win and are skipped without
        simulating (branch-and-bound; the skip is strict-inequality-only,
        so tie-breaking — and therefore the chosen plan — is unchanged).
        """
        machine = self.machine
        return max(seqcost / machine.processors, total_ios / machine.io_bandwidth)
