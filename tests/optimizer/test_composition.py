"""Composition oracle: a candidate costed from its children's memo
entries must be the candidate costed from its leaves.

The fast path builds a candidate's :class:`PlanEstimate` and scheduling
signature from the subtree memo plus the candidate's own new nodes, and
its simulated tasks straight from the signature rows.  The search only
builds the recipes its pre-bound lets through, so the ``oracle`` fixture
sits on the seam every recipe crosses — ``_Incumbent.offer_bounded`` —
and builds *every* ``(split, method)`` itself, pruned or not, then
re-derives it the long way — ``estimate_plan`` without a cache, the
walk-and-cut fragmenter this file keeps as reference, tasks wired one
``Fragment.to_task`` at a time — and compares exactly.

The same oracle holds the branch-and-bound to its promises: the
pre-bound, taken from floats before anything exists, is the
objective's ``pre_bound`` of the built plan's own ``seqcost()`` and
``total_ios()`` (its ``seqcost`` for a seqcost search) to rounding; it
never exceeds the simulated ``parcost`` beyond
:data:`PRUNE_MARGIN`; and a cell settles on the same
``(cost, plan_shape_key)`` whatever order its recipes are offered in.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.check.fuzz import random_join_schema
from repro.core.ids import id_scope, snapshot_counters
from repro.core.task import IOPattern
from repro.executor import between
from repro.optimizer import (
    JoinPredicate,
    OptimizerCaches,
    OptimizerMode,
    ParcostObjective,
    Query,
    TwoPhaseOptimizer,
    enumerate_space,
    parcost,
    plan_shape_key,
)
from repro.optimizer.enumeration import PRUNE_MARGIN, _build, _Incumbent
from repro.optimizer.twophase import SeqcostObjective
from repro.plans import (
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    MergeJoinNode,
    NestLoopJoinNode,
    ProjectNode,
    RANDOM,
    SEQUENTIAL,
    SortNode,
    estimate_plan,
    fragment_plan,
)
from repro.plans.fragments import plan_signature, signature_tasks

from .corpus_tools import SPACES, WORKLOADS

def _reference_order(plan, cached: set[int]) -> list[int]:
    """Preorder under a cached root, children-then-node above it."""
    if plan.node_id in cached:
        return [node.node_id for node in plan.walk()]
    order = [i for child in plan.children for i in _reference_order(child, cached)]
    return order + [plan.node_id]


def _reference_fragments(plan, estimate):
    """The fragmenter as it was before summaries: walk, cut, then sum.

    Returns per fragment ``(node ids, dependencies, T, D, pattern,
    memory)`` with every sum taken left to right over the fragment's
    nodes in the order the walk met them.
    """
    fragments: list[tuple[list, set]] = []

    def assign(node, index):
        fragments[index][0].append(node)
        blocking = set(node.blocking_children())
        for i, child in enumerate(node.children):
            if i in blocking:
                fragments.append(([], set()))
                fragments[index][1].add(len(fragments) - 1)
                assign(child, len(fragments) - 1)
            else:
                assign(child, index)

    fragments.append(([], set()))
    assign(plan, 0)
    rows = []
    for nodes, deps in fragments:
        cpu = io_time = ios = seq_ios = random_ios = memory = 0.0
        for node in nodes:
            e = estimate.by_node[node.node_id]
            cpu += e.cpu_time
            io_time += estimate.io_time(e)
            ios += e.ios
            memory += e.memory_bytes
            if e.io_pattern == SEQUENTIAL:
                seq_ios += e.ios
            elif e.io_pattern == RANDOM:
                random_ios += e.ios
        pattern = IOPattern.RANDOM if random_ios > seq_ios else IOPattern.SEQUENTIAL
        rows.append(
            ([n.node_id for n in nodes], deps, max(cpu + io_time, 1e-9), ios, pattern, memory)
        )
    return rows


def _reference_tasks(graph):
    """``to_tasks`` the long way: build each task, then re-wire it."""
    tasks = [fragment.to_task() for fragment in graph.fragments]
    ids = {f.fragment_id: t.task_id for f, t in zip(graph.fragments, tasks)}
    return [
        task.with_dependencies(ids[d] for d in fragment.depends_on)
        for fragment, task in zip(graph.fragments, tasks)
    ]


def _in_fresh_scope(build):
    with id_scope():
        tasks = build()
        return tasks, snapshot_counters().get("task", 0)


def _scheduling_view(tasks):
    return [
        (t.seq_time, t.io_count, t.io_pattern, t.memory_bytes, t.task_id, t.depends_on)
        for t in tasks
    ]


def _check_costing(plan, estimate, fresh, subtrees, seen) -> None:
    """Signature and tasks composed from the memo == cut from the root."""
    graph = fragment_plan(plan, fresh)
    assert [
        (
            [n.node_id for n in f.nodes],
            f.depends_on,
            f.seq_time,
            f.io_count,
            f.io_pattern,
            f.memory_bytes,
        )
        for f in graph.fragments
    ] == _reference_fragments(plan, fresh)
    signature = graph.signature()
    assert plan_signature(plan, estimate, subtrees) == signature
    from_rows, drawn = _in_fresh_scope(lambda: signature_tasks(signature))
    for build in (lambda: _reference_tasks(graph), graph.to_tasks):
        expected, expected_drawn = _in_fresh_scope(build)
        assert _scheduling_view(from_rows) == _scheduling_view(expected)
        assert drawn == expected_drawn == len(graph)
    seen["checked"] += 1
    for node in plan.walk():
        seen[type(node).__name__] += 1
        if isinstance(node, NestLoopJoinNode) and not node.blocking_children():
            seen["NestLoopJoinNode/pipelined"] += 1


#: A pre-bound sums the same terms as the built plan's estimate, in
#: another order: equal to a few ulps, seven orders inside PRUNE_MARGIN.
ROUNDING = 1e-12


def _check_recipe(objective, bound, recipe, seen) -> None:
    """Build one recipe the long way and hold its pre-bound to the result."""
    catalog, machine = objective.catalog, objective.machine
    memo = objective.caches.node_estimates
    plan = _build(recipe)
    cached = set(memo)
    composed = estimate_plan(plan, catalog, machine=machine, cache=memo)
    fresh = estimate_plan(plan, catalog, machine=machine)
    # The order seqcost()/total_ios() sum in, and the same nodes with
    # the same estimates as a search with no memo at all.
    assert list(composed.by_node) == _reference_order(plan, cached)
    assert composed.by_node == fresh.by_node
    _check_costing(plan, composed, fresh, memo.subtrees, seen)
    # The search may never build this one: leave its memo as it was.
    memo.forget([node_id for node_id in composed.by_node if node_id not in cached])
    if not plan.children:
        assert bound == 0.0  # an access path is costed, never bounded
    elif isinstance(objective, SeqcostObjective):
        assert abs(bound - fresh.seqcost()) <= ROUNDING * fresh.seqcost()
        seen["bounded/seqcost"] += 1
    else:
        exact = objective.pre_bound(fresh.seqcost(), fresh.total_ios())
        assert abs(bound - exact) <= ROUNDING * exact
        # ... and against a simulation of its own.
        with id_scope():
            simulated = parcost(plan, catalog, machine=machine, estimate=fresh)
        assert bound <= simulated * (1.0 + PRUNE_MARGIN)
        seen["bounded/parcost"] += 1


@pytest.fixture
def oracle(monkeypatch):
    """Check every recipe a search under it considers, pruned or not.

    Returns a counter of what was checked: ``checked`` and one entry
    per plan-node type (``NestLoopJoinNode/pipelined`` for a nest-loop
    whose index-scan inner does not block), plus how many pre-bounds
    were held to their objective.
    """
    seen: Counter = Counter()
    real = _Incumbent.offer_bounded

    def offer_bounded(self, rows):
        rows = list(rows)
        for bound, recipe in rows:
            _check_recipe(self.cost_fn, bound, recipe, seen)
        real(self, rows)

    monkeypatch.setattr(_Incumbent, "offer_bounded", offer_bounded)
    return seen


def _check_chosen(plan, catalog, caches, seen) -> None:
    """The search's answer again, now one cached root (plus a projection)."""
    cached = set(caches.node_estimates)
    estimate = estimate_plan(plan, catalog, cache=caches.node_estimates)
    assert list(estimate.by_node) == _reference_order(plan, cached)
    _check_costing(plan, estimate, estimate_plan(plan, catalog), caches.subtrees, seen)
    assert caches.subtrees.keys() <= caches.node_estimates.keys()


def _search_every_space(schema, oracle):
    for space in SPACES:
        caches = OptimizerCaches()
        objective = ParcostObjective(schema.catalog, caches=caches)
        before = oracle["checked"]
        plan = enumerate_space(
            schema.query, schema.catalog, objective, space=space, caches=caches
        )
        # Every (split, method) considered is checked once, built or not.
        assert oracle["checked"] - before == caches.stats.candidates > 0
        assert caches.stats.pruned > 0
        _check_chosen(plan, schema.catalog, caches, oracle)


def _settled_cells(schema, space, monkeypatch, permute) -> dict:
    """Every DP cell's ``(cost hex, shape key)`` with its recipes permuted.

    The rows reach the seam cheapest bound first; ``permute`` has the
    last word, so any order at all is offered — dearest first included,
    where the bound prunes next to nothing.
    """
    real = _Incumbent.offer_bounded
    offered = []

    def offer_bounded(self, rows):
        offered.append(len(rows))
        real(self, permute(list(rows)))

    caches = OptimizerCaches()
    objective = ParcostObjective(schema.catalog, caches=caches)
    with monkeypatch.context() as patch:
        patch.setattr(_Incumbent, "offer_bounded", offer_bounded)
        enumerate_space(
            schema.query, schema.catalog, objective, space=space, caches=caches
        )
    # Not vacuous: every candidate went through the permuted seam.
    assert sum(offered) == caches.stats.candidates > len(offered) > 0
    return {
        key[1]: (cost.hex(), plan_shape_key(plan))
        for key, (cost, plan) in caches.subplans.items()
    }


def _check_order_independence(schema, monkeypatch, seed=0) -> None:
    def shuffled(candidates):
        random.Random(seed).shuffle(candidates)
        return candidates

    for space in SPACES:
        as_generated = _settled_cells(schema, space, monkeypatch, lambda c: c)
        assert len(as_generated) >= len(schema.query.relations)
        for permute in (lambda c: c[::-1], shuffled):
            assert _settled_cells(schema, space, monkeypatch, permute) == as_generated


_CORPUS = pytest.mark.parametrize(
    "factory", [factory for __, factory in WORKLOADS], ids=[label for label, __ in WORKLOADS]
)


@_CORPUS
def test_corpus_workloads_compose_exactly(factory, oracle):
    _search_every_space(factory(), oracle)
    for kind in (HashJoinNode, MergeJoinNode, SortNode, NestLoopJoinNode):
        assert oracle[kind.__name__]
    assert oracle["bounded/parcost"] and not oracle["bounded/seqcost"]


@_CORPUS
def test_corpus_cells_settle_the_same_in_any_candidate_order(factory, monkeypatch):
    _check_order_independence(factory(), monkeypatch)


@pytest.mark.parametrize("mode", list(OptimizerMode))
def test_every_operator_shape_composes_exactly(catalog, mode, oracle):
    """Index-scan inner, residual filter and a projection on top."""
    query = Query(
        relations=["r1", "r2", "r3"],
        joins=[
            JoinPredicate("r1", "a", "r2", "b2"),
            JoinPredicate("r1", "b1", "r2", "c2"),
            JoinPredicate("r2", "c2", "r3", "c3"),
        ],
        selections={"r1": between("a", 0, 0)},
        projection=("d3",),
    )
    optimizer = TwoPhaseOptimizer(catalog)
    optimized = optimizer.optimize(query, mode=mode)
    assert isinstance(optimized.plan, ProjectNode)
    _check_chosen(optimized.plan, catalog, optimizer.caches, oracle)
    assert oracle[ProjectNode.__name__]
    assert oracle["checked"] > optimizer.cache_stats.candidates
    for kind in (FilterNode, IndexScanNode, HashJoinNode, MergeJoinNode, SortNode):
        assert oracle[kind.__name__], kind
    assert oracle["NestLoopJoinNode/pipelined"]
    held = "bounded/parcost" if mode is OptimizerMode.BUSHY_PAR else "bounded/seqcost"
    assert set(oracle) & {"bounded/parcost", "bounded/seqcost"} == {held}


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(40))
def test_random_schemas_compose_exactly(seed, oracle):
    _search_every_space(random_join_schema(seed), oracle)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(40))
def test_random_schemas_bound_is_sound_in_any_candidate_order(seed, oracle, monkeypatch):
    """Permuted searches under the oracle: every bound, every ordering."""
    _check_order_independence(random_join_schema(seed), monkeypatch, seed)
    assert oracle["checked"]
