"""Shared memos for the optimizer fast path.

``parcost(p, n)`` simulates the scheduling algorithm over a plan's
fragments, which makes it by far the most expensive cost function in
the system, and on the serving path the same few join graphs are
planned over and over.  Three observations make most of that work
redundant:

* the DP reuses subplan *objects*, so per-node estimates can be
  memoized by ``node_id`` and only a candidate's new top nodes ever
  need estimating;
* the simulation depends only on the fragments' canonical scheduling
  signature (:meth:`~repro.plans.fragments.FragmentGraph.signature`),
  the machine and the policy — structurally equivalent subplans share
  one simulation;
* a DP cell — the best plan for one relation subset — depends only on
  the subset, the join predicates inside it, the selections on its
  relations and the search configuration, never on the query around
  it.  Cells are therefore shared *across queries*: a sub-query of an
  earlier query is a lookup (see
  :func:`~repro.optimizer.enumeration.enumerate_space` for the key);
  a repeated query is one lookup of the finished plan by its query key,
  before anything else is done.

:class:`OptimizerCaches` bundles the memos plus the hit/miss/skip
counters (:class:`CacheStats`) that the benchmarks record, so an entry
states *why* it got faster.  Caching is exact — every cached value is
the float, or the plan, the uncached path would have computed — so a
fast-path optimizer chooses byte-identical plans; the golden-plan
corpus test replays both paths to prove it.

Staleness is ruled out by construction: every entry point that pairs a
caches object with a catalog calls :meth:`OptimizerCaches.sync`, which
drops every memo when the catalog (or its
:attr:`~repro.catalog.catalog.Catalog.stats_epoch`) is not the one they
were filled under.  Nobody has to remember to clear anything after an
ANALYZE.  What a caches object still assumes is one machine family for
its ``node_estimates`` and the subtree memo beside them (a fragment
summary prices io on the machine's disks); the CPU cost model is one set
of module constants, so a node's estimate is keyed by its id alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..catalog.catalog import Catalog
from ..config import MachineConfig
from ..plans.costing import (
    EstimateMemo,
    PlanEstimate,
    Subtree,
    estimate_plan,
)
from ..plans.nodes import PlanNode


@dataclass
class CacheStats:
    """Observability counters for one optimizer's fast path.

    Attributes:
        candidates: ``(split, method)`` recipes and access paths the
            enumeration considered.
        pruned: recipes dropped on their pre-bound, before any node of
            them was built or estimated.  A parcost search bounds with
            ``max(seqcost / N, D / B)``; a seqcost search with the cost
            itself (to rounding), so there it counts every recipe more
            than ``PRUNE_MARGIN`` dearer than its cell's best.
        costed: candidates built and handed to the cost function.
        parcost_hits: parcost calls answered from the signature cache.
        parcost_misses: parcost calls that ran a fresh simulation.
        estimate_hits: plan nodes whose estimate came out of the node
            memo (a costed candidate's reused subplans).
        estimate_misses: plan nodes that had to be estimated (a costed
            candidate's own top nodes).
        subplan_hits: DP cells (or whole queries) answered from the
            cross-query memos; a repeated query is exactly one hit.
        subplan_misses: DP cells looked up and not found, then searched.
    """

    candidates: int = 0
    pruned: int = 0
    costed: int = 0
    parcost_hits: int = 0
    parcost_misses: int = 0
    estimate_hits: int = 0
    estimate_misses: int = 0
    subplan_hits: int = 0
    subplan_misses: int = 0

    def as_dict(self) -> dict:
        """JSON-ready counter dump (``benchmarks/e2e`` reads these)."""
        return asdict(self)

    def reset(self) -> None:
        """Zero every counter (used between benchmark repeats)."""
        for name in asdict(self):
            setattr(self, name, 0)


@dataclass
class OptimizerCaches:
    """The fast path's memos: node estimates, parcost, DP cells, queries.

    Attributes:
        node_estimates: ``node_id`` -> :class:`NodeEstimate`.  Node ids
            are process-unique (and restart inside an
            :func:`~repro.core.ids.id_scope`, so a caches object must
            not outlive the scope its plans were built in); the memo
            pays off because the DP reuses subplan objects across
            candidates.  A search that is handed the caches drops the
            entries of its losing candidates, so what stays is the
            nodes of plans in ``subplans`` plus whatever callers
            estimated on top (a final projection).
        subtrees: the subtree memo riding on ``node_estimates`` (so
            ``estimate_plan(cache=node_estimates)`` finds it), see
            :class:`~repro.plans.costing.EstimateMemo`.
        parcost_elapsed: ``(signature, machine)`` -> ``parcost``
            (simulated elapsed seconds under the default policy).
        subplans: DP cell key -> ``(cost, plan)``, the cross-query
            sub-plan memo.  Bounded by the number of distinct connected
            sub-join-graphs (times selections and search
            configurations) ever planned.  Plans are shared between the
            queries they answer; nothing downstream mutates a plan.
        queries: query key -> finished plan (projection applied), looked
            up before the query is validated, so a repeated query is one
            key build and one dict lookup.  Only a query that validated
            and planned is stored.
        stats: the counters above, shared with the enumeration loop.
    """

    node_estimates: EstimateMemo = field(default_factory=EstimateMemo)
    parcost_elapsed: dict[tuple, float] = field(default_factory=dict)
    subplans: dict[tuple, tuple[float, PlanNode]] = field(default_factory=dict)
    queries: dict[tuple, PlanNode] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    #: The (catalog, stats_epoch) the memos were filled under.
    _filled_under: tuple[Catalog, int] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def subtrees(self) -> dict[int, Subtree]:
        return self.node_estimates.subtrees

    def sync(self, catalog: Catalog) -> None:
        """Drop the memos unless they were filled under ``catalog`` as it is now.

        Counters survive: they describe the optimizer's work, not the
        memos' contents.
        """
        filled = self._filled_under
        if (
            filled is None
            or filled[0] is not catalog
            or filled[1] != catalog.stats_epoch
        ):
            self._drop_memos()
            self._filled_under = (catalog, catalog.stats_epoch)

    def estimate(
        self,
        plan: PlanNode,
        catalog: Catalog,
        *,
        machine: MachineConfig,
    ) -> PlanEstimate:
        """``estimate_plan`` through the node memo, counting its use."""
        self.sync(catalog)
        memo = self.node_estimates
        known = len(memo)
        estimate = estimate_plan(plan, catalog, machine=machine, cache=memo)
        computed = len(memo) - known
        self.stats.estimate_misses += computed
        self.stats.estimate_hits += len(estimate.by_node) - computed
        return estimate

    def _drop_memos(self) -> None:
        self.node_estimates.clear()
        self.parcost_elapsed.clear()
        self.subplans.clear()
        self.queries.clear()

    def clear(self) -> None:
        """Drop every memo and zero the counters."""
        self._drop_memos()
        self.stats.reset()
