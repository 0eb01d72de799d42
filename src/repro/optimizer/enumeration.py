"""Join-order enumeration: access paths, join methods, plan spaces.

The conventional (System-R style) layer under the two-phase strategy:

* access paths — sequential scan with the pushed-down selection, plus
  an index scan when an index covers a bounded column;
* join methods — hash join, merge join (with sorts), nested loops;
* plan spaces — ``left-deep`` (the [HONG91] space: the inner of every
  join is a base relation), ``right-deep`` (the [SCHN90] shape: the
  outer of every join is a base relation, so hash-join builds stack up
  and the probes pipeline) and ``bushy`` (joins over joins, Section 4;
  subsumes both).

Dynamic programming over connected subsets, cross products avoided
whenever the join graph is connected.  The search runs over int
bitmasks (:class:`_JoinIndex`): a cell is a mask, its bushy splits are
the submasks of the cell whose two sides are both settled cells,
connectivity comes from per-relation adjacency masks, and frozensets
of relation names appear only where a name is read — a cell's memo
key and a join's outer side.  Ties on cost are broken by a
deterministic canonical plan key (:func:`plan_shape_key`), so the
chosen plan never depends on the order candidates are generated or
costed in — which is what lets the fast path (memoized parcost plus
branch-and-bound skipping, see :mod:`repro.optimizer.cache`) promise
byte-identical plans.  A cell keeps *one* plan, so strict cost dominance
is sufficient to skip a candidate: when its provable lower bound
exceeds the incumbent's true cost it could have won neither the cost
comparison nor the tie-break (the order it would deliver is beside the
point: no parent rule reads a child's order, :func:`join_candidates`
sorts both merge inputs itself).  The bound is taken before the
candidate exists: a cell gathers one *recipe* per ``(split, method)``,
each bounded from floats — its two inputs' settled cost sums plus the
join's own cost (:func:`_join_costs`, one pricing per 2-partition for
both orientations) — and builds them cheapest bound first, so nine in
ten never become a plan tree.  A bound is only compared, never kept as
a cost, because exact cost ties are common, not rare — merge join is
symmetric in its inputs and equal-cardinality relations are
interchangeable, so on the serving workload one offer in nine ties its
incumbent to the last bit — which is why the key exists at all and why
nothing here may reorder a cost sum: an exact tie the key settles
would become ulp noise settling it.

The DP table is also the unit of sharing *across* queries.
``best[subset]`` is context-free: it is a function of the subset, the
join predicates inside it (in ``query.joins`` order, which picks the
primary predicate), the selections on its relations, the search
configuration and the cost function — not of the query the subset was
met in.  Handed an :class:`~repro.optimizer.cache.OptimizerCaches`,
:func:`enumerate_space` keeps its cells there under exactly that key,
so a later query's sub-join-graphs are lookups; a repeated query is one
lookup of its finished plan in ``caches.queries``.  The key names the
subset's relations, never its mask: a bit stands for a relation only
within one query.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, islice
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator

from ..catalog.catalog import Catalog
from ..errors import OptimizerError
from ..executor.expressions import And, col, column_bounds, eq
from ..plans import nodes as pn
from ..plans.costing import (
    EstimateMemo,
    NodeEstimate,
    equijoin_rows,
    filter_cpu,
    hash_join_cpu,
    merge_join_cpu,
    nest_loop_cpu,
    sort_cpu,
    subtree_sums,
)
from .cache import CacheStats, OptimizerCaches
from .query import JoinPredicate, Query

#: Join method names accepted by the enumerator.
JOIN_METHODS = ("hash", "merge", "nestloop")
#: Relations :func:`enumerate_all_bushy` enumerates at most: the plan
#: count is exponential in it.
EXHAUSTIVE_MAX_RELATIONS = 7

PlanCost = Callable[[pn.PlanNode], float]


def access_paths(query: Query, relation: str, catalog: Catalog) -> list[pn.PlanNode]:
    """All access paths for one base relation.

    Always the predicate-pushing SeqScan; an IndexScan for each index
    whose column is bounded by the selection (or, unbounded, when the
    index is clustered — a cheap ordered full scan).
    """
    predicate = query.selections.get(relation)
    paths: list[pn.PlanNode] = [pn.SeqScanNode(relation, predicate)]
    entry = catalog.table(relation)
    for index in entry.indexes.values():
        if predicate is None:
            continue
        low, high = column_bounds(predicate, index.column)
        if low is None and high is None:
            continue
        paths.append(
            pn.IndexScanNode(
                relation,
                index.name,
                low=low,
                high=high,
                predicate=predicate,
            )
        )
    return paths


def join_candidates(
    outer: pn.PlanNode,
    inner: pn.PlanNode,
    predicates: list[JoinPredicate],
    outer_rels: frozenset[str],
    *,
    methods: tuple[str, ...] = JOIN_METHODS,
) -> Iterator[pn.PlanNode]:
    """All join operators combining two subplans.

    With an equi-join predicate available: hash, merge (adding sorts)
    and nested loops.  Without one (cross product): nested loops only.
    """
    if not predicates:
        if "nestloop" in methods:
            yield pn.NestLoopJoinNode(outer, inner, None)
        return
    primary, *extra = predicates
    outer_col, inner_col = primary.oriented(outer_rels)

    def residual(join: pn.PlanNode) -> pn.PlanNode:
        """Extra predicates become a residual filter on top of the join."""
        if not extra:
            return join
        conjs = []
        for predicate in extra:
            a, b = predicate.oriented(outer_rels)
            conjs.append(eq(col(a), col(b)))
        return pn.FilterNode(join, And(*conjs) if len(conjs) > 1 else conjs[0])

    if "hash" in methods:
        yield residual(pn.HashJoinNode(outer, inner, outer_col, inner_col))
    if "merge" in methods:
        yield residual(
            pn.MergeJoinNode(
                pn.SortNode(outer, (outer_col,)),
                pn.SortNode(inner, (inner_col,)),
                outer_col,
                inner_col,
            )
        )
    if "nestloop" in methods:
        yield residual(
            pn.NestLoopJoinNode(outer, inner, eq(col(outer_col), col(inner_col)))
        )


def _join_costs(
    outer: NodeEstimate,
    inner: NodeEstimate,
    predicates: list[JoinPredicate],
    outer_rels: frozenset[str],
    methods: tuple[str, ...],
    mirrored: bool,
) -> list[tuple[str, float, float]]:
    """``(method, own cost, mirror's own cost)`` of each operator
    :func:`join_candidates` yields over one split.

    The sequential seconds the join's own nodes — the join, a merge
    join's two sorts, the residual filter; none does io — add to its
    inputs', from the inputs' root estimates alone: nothing is built.
    The mirror is the same split with ``inner`` as the outer; only a
    hash join's cost depends on which side is which (and is priced for
    the mirror only when ``mirrored``), so the cardinality and every
    other rule run once per split — ``+`` and ``*`` commute exactly, so
    the mirror's floats are the ones its own pricing would give.  Only
    ever compared, never kept as a cost: the built plan's ``seqcost``
    sums the same terms in another order.
    """
    if not predicates:
        if "nestloop" not in methods:
            return []
        own = nest_loop_cpu(outer.rows, inner.rows, outer.rows * inner.rows)
        return [("nestloop", own, own)]
    rows = equijoin_rows(outer, inner, *predicates[0].oriented(outer_rels))
    residual = filter_cpu(rows) if len(predicates) > 1 else 0.0
    priced = []
    if "hash" in methods:
        own = hash_join_cpu(outer.rows, inner.rows, rows) + residual
        mirror = hash_join_cpu(inner.rows, outer.rows, rows) + residual if mirrored else own
        priced.append(("hash", own, mirror))
    if "merge" in methods:
        sorts = sort_cpu(outer.rows) + sort_cpu(inner.rows)
        own = sorts + merge_join_cpu(outer.rows, inner.rows, rows) + residual
        priced.append(("merge", own, own))
    if "nestloop" in methods:
        own = nest_loop_cpu(outer.rows, inner.rows, rows) + residual
        priced.append(("nestloop", own, own))
    return priced


def plan_shape_key(plan: pn.PlanNode) -> str:
    """A deterministic canonical key for a plan's structure.

    Built purely from node labels and tree shape — no node ids, no
    object identity — so structurally equal plans map to equal keys
    regardless of when or by which code path they were constructed.
    Used as the cost tie-breaker: the DP keeps the candidate minimizing
    ``(cost, plan_shape_key)``, making the chosen plan independent of
    candidate generation order (and therefore reproducible across the
    cached and uncached optimizer paths and stable in the golden-plan
    corpus).
    """
    if not plan.children:
        return plan.label()
    inner = ",".join(plan_shape_key(child) for child in plan.children)
    return f"{plan.label()}[{inner}]"


#: Relative margin a candidate's lower bound must clear before it is
#: pruned.  The bound is mathematically ``<= parcost``, but the two
#: sides are computed through different float summation orders, so the
#: bound can land a few ulps (~1e-16 relative) *above* the true cost.
#: Requiring ``bound > incumbent * (1 + margin)`` absorbs that rounding
#: noise with seven orders of magnitude to spare while costing
#: essentially no pruning power.
PRUNE_MARGIN = 1e-9


class _JoinIndex:
    """One query's join graph over int bitmasks.

    Relation ``i`` of ``sorted(query.relations)`` is bit ``1 << (n-1-i)``,
    so the highest bit of a mask is its first relation by name and, among
    masks of one size, descending value is :func:`itertools.combinations`
    order over the sorted names.  A snapshot: mutating the query after
    building the index is not reflected.
    """

    __slots__ = ("names", "bits", "adjacent", "edges")

    def __init__(self, query: Query) -> None:
        self.names = sorted(query.relations)
        n = len(self.names)
        #: relation name -> its bit.
        self.bits = {name: 1 << (n - 1 - i) for i, name in enumerate(self.names)}
        #: bit -> mask of the relations it joins directly.
        self.adjacent = dict.fromkeys(self.bits.values(), 0)
        #: ``(predicate, left bit, right bit)`` in ``query.joins`` order.
        self.edges: list[tuple[JoinPredicate, int, int]] = []
        for join in query.joins:
            left, right = self.bits[join.left_rel], self.bits[join.right_rel]
            self.adjacent[left] |= right
            self.adjacent[right] |= left
            self.edges.append((join, left, right))

    def rels(self, mask: int) -> frozenset[str]:
        """The relation names in ``mask``."""
        return frozenset(name for name in self.names if self.bits[name] & mask)

    def connected(self, mask: int) -> bool:
        """Is the join graph restricted to ``mask`` connected?"""
        reached = frontier = mask & -mask
        while frontier:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grown |= self.adjacent[bit]
            frontier = grown & mask & ~reached
            reached |= frontier
        return reached == mask

    def between(self, a: int, b: int) -> list[JoinPredicate]:
        """Predicates joining disjoint masks ``a`` and ``b``, in
        ``query.joins`` order (the first is a join's primary predicate)."""
        return [
            join
            for join, left, right in self.edges
            if (left & a and right & b) or (left & b and right & a)
        ]

    def splits(
        self, mask: int, space: str, settled: Container[int]
    ) -> list[tuple[int, int]]:
        """The ``(outer, inner)`` splits of ``mask`` that ``space`` allows
        and whose two sides are both in ``settled``.

        Bushy: every 2-partition, once — it is joined both ways round, and
        the caller mirrors it (what connects the two sides does not depend
        on which is the outer).  The side holding the anchor (the highest
        bit) comes first; ordered by its size, then by descending mask —
        ``combinations`` order over the sorted names.  Left-deep
        (right-deep): the inner (outer) is a single relation, visited in
        sorted order.  ``mask`` has at least two bits.
        """
        found = []
        if space == "bushy":
            anchor = 1 << (mask.bit_length() - 1)
            rest = sub = mask ^ anchor
            while sub:  # every submask of rest but rest itself, descending
                sub = (sub - 1) & rest
                left = anchor | sub
                if left in settled and rest ^ sub in settled:
                    found.append((left, rest ^ sub))
            found.sort(key=lambda split: split[0].bit_count())  # stable
            return found
        rest = mask
        while rest:
            bit = 1 << (rest.bit_length() - 1)
            rest ^= bit
            other = mask ^ bit
            if bit in settled and other in settled:
                found.append((other, bit) if space == "left-deep" else (bit, other))
        return found


def _drop_losers(estimates: EstimateMemo, mark: int, winner: pn.PlanNode) -> None:
    """Forget the node estimates one DP cell's losing candidates added.

    Everything past position ``mark`` of ``estimates`` was added while
    the cell was searched: the own nodes (join, sorts, residual filter)
    of each candidate costed.  Only the winner's stay reachable, so the
    rest is dropped — that, not the plans, was most of a long-lived
    optimizer's memory.  A node's children are estimated before it, so
    the winner's own nodes are found by walking down from its root
    while still inside the added tail.
    """
    added = len(estimates) - mark
    if added <= 0:
        return
    losers = set(islice(reversed(estimates), added))
    stack = [winner]
    while stack:
        node = stack.pop()
        if node.node_id in losers:
            losers.discard(node.node_id)
            stack.extend(node.children)
    estimates.forget(losers)


#: What a DP cell is settled from: an access path, or one ``(split,
#: method)`` as :func:`join_candidates`' arguments with the method last.
Recipe = pn.PlanNode | tuple


def _build(recipe: Recipe) -> pn.PlanNode:
    """The plan ``recipe`` stands for (an access path is one already)."""
    if isinstance(recipe, pn.PlanNode):
        return recipe
    (candidate,) = join_candidates(*recipe[:-1], methods=recipe[-1:])
    return candidate


class _Incumbent:
    """Best-candidate tracker for one DP subset.

    Keeps the candidate minimizing ``(cost, plan_shape_key)``.  The key
    is a recursive string join, so it is built lazily: for a candidate
    only when its cost *equals* the incumbent's, and for the incumbent
    once, then kept.

    A recipe whose pre-bound exceeds the incumbent's true cost by
    :data:`PRUNE_MARGIN` is dropped before any node of it is built.
    Safety: the cell keeps one plan, and the skipped candidate's true
    cost is ``>= bound - ulp noise > incumbent >= final best``, so it
    can never win or even tie the ``(cost, key)`` minimum; near-ties
    inside the margin are always built, costed and settled by the key,
    keeping the chosen plan byte-identical to the unpruned search.
    """

    __slots__ = ("cost_fn", "stats", "cost", "key", "plan")

    def __init__(self, cost_fn: PlanCost, stats: CacheStats | None) -> None:
        self.cost_fn = cost_fn
        self.stats = stats
        self.cost: float | None = None
        self.key: str | None = None
        self.plan: pn.PlanNode | None = None

    def offer_bounded(self, rows: Iterable[tuple[float, Recipe]]) -> None:
        """Offer one cell's ``(pre-bound, recipe)`` rows in the order given.

        Cheapest bound first, the winner's bound is below every bound
        its cost prunes, so a recipe becomes a plan iff its bound does
        not clear the cell's *final* cost — the fewest any order allows.
        The ``(cost, key)`` minimum does not depend on the order, so any
        other one settles the same cell, only dearer.
        """
        stats = self.stats
        for bound, recipe in rows:
            if stats is not None:
                stats.candidates += 1
            if self.cost is not None and bound > self.cost * (1.0 + PRUNE_MARGIN):
                if stats is not None:
                    stats.pruned += 1
                continue
            self.offer(_build(recipe))

    def offer(self, candidate: pn.PlanNode) -> None:
        """Cost ``candidate`` and keep it if it beats the incumbent."""
        cost = self.cost_fn(candidate)
        if self.stats is not None:
            self.stats.costed += 1
        key = None
        if self.cost is not None and cost >= self.cost:
            if cost > self.cost:
                return
            if self.key is None:
                assert self.plan is not None
                self.key = plan_shape_key(self.plan)
            key = plan_shape_key(candidate)
            if key >= self.key:
                return
        self.cost = cost
        self.key = key
        self.plan = candidate


def enumerate_space(
    query: Query,
    catalog: Catalog,
    cost: PlanCost,
    *,
    space: str = "bushy",
    methods: tuple[str, ...] = JOIN_METHODS,
    stats: CacheStats | None = None,
    caches: OptimizerCaches | None = None,
) -> pn.PlanNode:
    """Dynamic-programming search for the cheapest plan.

    Cross products are considered only when the query's join graph is
    disconnected; otherwise every split joins on a predicate.  Cells are
    keyed by bitmask and settled in ``combinations`` order over the
    sorted relation names, size by size; a cell's rows are generated in
    the order :meth:`_JoinIndex.splits` gives, each 2-partition priced
    once for both orientations.

    Args:
        query: the query block.
        catalog: resolves schemas, indexes and statistics.
        cost: plan-cost function (seqcost or parcost); lower is better.
            When it exposes ``pre_bound`` (see
            :class:`~repro.optimizer.parcost.ParcostObjective`), every
            ``(split, method)`` into a cell is bounded from its inputs'
            cost sums and :func:`_join_costs`, the cell is settled
            cheapest bound first, and only recipes the incumbent does
            not provably beat are built.  Without it, all are.  Such an
            objective also says what it estimates under: ``machine`` and
            ``caches`` attributes.
        space: ``"left-deep"``, ``"right-deep"`` or ``"bushy"``.
        methods: join methods to consider.
        stats: optional counters (candidates/pruned/costed) for
            observability; defaults to ``caches.stats``.
        caches: the memos ``cost`` estimates into.  The search drops
            the node estimates of each cell's losing candidates, and —
            when ``cost`` names itself through a ``memo_key`` attribute
            — keeps its DP cells in ``caches.subplans`` so later
            searches reuse them.

    A cell's memo key is everything ``best[subset]`` depends on and
    nothing else: ``cost.memo_key`` (which cost function, for which
    machine), ``space``, ``methods``, whether cross products are
    allowed, the subset, the join predicates inside it in
    ``query.joins`` order (the first one between two sides is the
    join's primary predicate) and the selections on its relations, as
    structural values plus their rendering (``1`` and ``1.0`` are equal
    but label a plan differently).  A query's own key — ``cost.memo_key``,
    ``space``, ``methods``, the relations, the joins and the
    selections in query order, and the projection —
    is looked up in ``caches.queries`` first: a repeated query returns
    its finished plan without being validated again, so validation runs
    once per structurally distinct query per catalog epoch (a query
    that fails it is never stored).  Otherwise the full cell is looked
    up before anything is enumerated.

    Returns the best complete plan (projection applied when requested).
    Ties on cost are broken by :func:`plan_shape_key`, so the result is
    independent of enumeration order, of whether pruning ran and of
    what the memo already held.
    """
    if space not in ("left-deep", "right-deep", "bushy"):
        raise OptimizerError(f"unknown plan space: {space!r}")
    memo_key = query_key = None
    if caches is not None:
        caches.sync(catalog)
        if stats is None:
            stats = caches.stats
        memo_key = getattr(cost, "memo_key", None)
    if memo_key is not None:
        selections = tuple((rel, p, repr(p)) for rel, p in query.selections.items())
        query_key = (
            memo_key, space, methods, tuple(query.relations),
            tuple(query.joins), selections, tuple(query.projection or ()),
        )
        try:
            # A repeated query: one lookup, nothing validated or enumerated.
            plan = caches.queries.get(query_key)
        except TypeError:  # an unhashable literal: plan it unshared
            query_key = None
        else:
            if plan is not None:
                stats.subplan_hits += 1
                return plan
    query.validate(catalog)
    index = _JoinIndex(query)
    full = (1 << len(index.names)) - 1
    allow_cross = not index.connected(full)
    estimates = caches.node_estimates if caches is not None else None
    memo = caches.subplans if query_key is not None else None
    config = (memo_key, space, methods, allow_cross)
    selected = {entry[0]: entry for entry in selections} if memo is not None else {}
    #: Per cell met, its relations: the memo key's and a join's ``outer_rels``.
    rels: dict[int, frozenset[str]] = {}

    def cell_key(mask: int) -> tuple:
        return (
            config,
            rels[mask],
            tuple(j for j, left, right in index.edges if left & mask and right & mask),
            tuple(
                selected[name]
                for name in index.names
                if index.bits[name] & mask and name in selected
            ),
        )

    def finish(plan: pn.PlanNode) -> pn.PlanNode:
        if query.projection:
            plan = pn.ProjectNode(plan, tuple(query.projection))
        if memo is not None:
            caches.queries[query_key] = plan
        return plan

    rels[full] = index.rels(full)
    if memo is not None:
        # Settled inside a larger query: one lookup, nothing enumerated.
        hit = memo.get(cell_key(full))
        if hit is not None:
            stats.subplan_hits += 1
            return finish(hit[1])

    best: dict[int, tuple[float, pn.PlanNode]] = {}
    #: Per settled cell, what bounds a join over it: its plan's root
    #: estimate, seqcost and total ios.
    sums: dict[int, tuple[NodeEstimate, float, float]] = {}
    pre_bound = getattr(cost, "pre_bound", None)
    if pre_bound is not None:  # such an objective says what it estimates under
        summarize = partial(
            subtree_sums,
            catalog=catalog,
            machine=cost.machine,
            cache=cost.caches.node_estimates,
        )
    mirrored = space == "bushy"  # splits yields a bushy partition once

    def recipes_into(mask: int) -> list[tuple[float, Recipe]]:
        """One ``(pre-bound, recipe)`` row per way to build ``mask``, as generated."""
        if not mask & (mask - 1):
            (name,) = rels[mask]
            return [(0.0, path) for path in access_paths(query, name, catalog)]
        rows: list[tuple[float, Recipe]] = []
        # Without cross products every settled cell is connected, so a
        # predicate joins any two of them that partition a cell.
        for left, right in index.splits(mask, space, best):
            predicates = index.between(left, right)
            outer_plan, inner_plan = best[left][1], best[right][1]
            join = (outer_plan, inner_plan, predicates, rels[left])
            flip = (inner_plan, outer_plan, predicates, rels[right])
            if pre_bound is None:  # nothing to bound with: build them all
                rows += [(0.0, c) for c in join_candidates(*join, methods=methods)]
                if mirrored:
                    rows += [(0.0, c) for c in join_candidates(*flip, methods=methods)]
                continue
            outer, outer_seq, outer_ios = sums[left]
            inner, inner_seq, inner_ios = sums[right]
            # Both orientations: the sums commute, so the mirror's are these.
            seq, ios = outer_seq + inner_seq, outer_ios + inner_ios
            priced = _join_costs(outer, inner, predicates, rels[left], methods, mirrored)
            bounds = [pre_bound(seq + own, ios) for __, own, __ in priced]
            rows += [(bound, (*join, m)) for bound, (m, __, __) in zip(bounds, priced)]
            if mirrored:  # pre_bound is a function of its two floats
                for bound, (method, own, mirror) in zip(bounds, priced):
                    if mirror != own:
                        bound = pre_bound(seq + mirror, ios)
                    rows.append((bound, (*flip, method)))
        return rows

    def settle(mask: int) -> None:
        """Fill ``best[mask]`` from the memo or by searching its recipes."""
        key = cell = None
        rels[mask] = index.rels(mask)
        if memo is not None:
            key = cell_key(mask)
            cell = memo.get(key)
            if cell is not None:
                stats.subplan_hits += 1
            else:
                stats.subplan_misses += 1
        if cell is None:
            mark = len(estimates) if estimates is not None else 0
            rows = recipes_into(mask)
            rows.sort(key=itemgetter(0))  # stable: ties stay in generation order
            incumbent = _Incumbent(cost, stats)
            incumbent.offer_bounded(rows)
            if incumbent.plan is None:
                return
            assert incumbent.cost is not None
            if estimates is not None:
                _drop_losers(estimates, mark, incumbent.plan)
            cell = (incumbent.cost, incumbent.plan)
            if memo is not None:
                memo[key] = cell
        best[mask] = cell
        if pre_bound is not None:
            sums[mask] = summarize(cell[1])

    for name in query.relations:
        settle(index.bits[name])
    bits = list(index.bits.values())  # sorted names: combinations order
    for size in range(2, len(bits) + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if allow_cross or index.connected(mask):
                settle(mask)
    if full not in best:
        raise OptimizerError("no plan found (disconnected join graph?)")
    return finish(best[full][1])


def enumerate_all_bushy(
    query: Query,
    catalog: Catalog,
    *,
    methods: tuple[str, ...] = ("hash",),
) -> Iterator[pn.PlanNode]:
    """Yield *every* bushy plan (no pruning).

    Needed because "the calculation of parcost(p, n) depends on the
    structure of the entire plan tree which makes local pruning ...
    infeasible" (Section 4).  Exponential: capped at
    :data:`EXHAUSTIVE_MAX_RELATIONS`.
    Projections are not applied; callers compare raw join trees.
    """
    if len(query.relations) > EXHAUSTIVE_MAX_RELATIONS:
        raise OptimizerError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_RELATIONS} relations"
        )
    query.validate(catalog)
    index = _JoinIndex(query)
    full = (1 << len(index.names)) - 1
    avoid_cross = index.connected(full)
    #: The sides a split may have: any, or connected ones only (two
    #: connected sides of a connected set are joined by a predicate).
    sides = range(full + 1)
    if avoid_cross:
        sides = {mask for mask in sides if mask and index.connected(mask)}
    memo: dict[int, list[pn.PlanNode]] = {}

    def plans_for(mask: int) -> list[pn.PlanNode]:
        if mask in memo:
            return memo[mask]
        if not mask & (mask - 1):
            (name,) = index.rels(mask)
            result = access_paths(query, name, catalog)
        else:
            result = []
            for left, right in index.splits(mask, "bushy", sides):
                predicates = index.between(left, right)
                for outer, inner in ((left, right), (right, left)):
                    outer_rels = index.rels(outer)
                    for outer_plan in plans_for(outer):
                        for inner_plan in plans_for(inner):
                            result.extend(
                                join_candidates(
                                    outer_plan,
                                    inner_plan,
                                    predicates,
                                    outer_rels,
                                    methods=methods,
                                )
                            )
        memo[mask] = result
        return result

    yield from plans_for(full)
