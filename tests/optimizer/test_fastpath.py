"""The optimizer fast path: caches, pruning safety, determinism.

The tentpole guarantee under test: with memoization and
branch-and-bound pruning on, the optimizer chooses *byte-identical*
plans (same tree, same parcost float) as the exhaustive reference —
because every cached value is exact and every pruned candidate is
provably beaten.  The golden-plan corpus replays complete searches
(cold, warm, shuffled-warm and reference arms); these tests pin down
the individual mechanisms, including what the cross-query sub-plan memo
may and may not share.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from operator import itemgetter

import pytest

from repro.check.fuzz import random_join_schema
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.executor import between
from repro.optimizer import (
    JOIN_METHODS,
    CacheStats,
    JoinPredicate,
    OptimizerCaches,
    OptimizerMode,
    ParcostObjective,
    Query,
    TwoPhaseOptimizer,
    access_paths,
    enumerate_all_bushy,
    enumerate_space,
    join_candidates,
    parcost,
    plan_shape_key,
)
from repro.optimizer import enumeration
from repro.optimizer.enumeration import PRUNE_MARGIN, _build, _Incumbent, _JoinIndex
from repro.optimizer.parcost import parallel_cost
from repro.optimizer.twophase import SeqcostObjective
from repro.plans.costing import (
    equijoin_rows,
    estimate_plan,
    filter_cpu,
    hash_join_cpu,
    merge_join_cpu,
    nest_loop_cpu,
    sort_cpu,
    subtree_sums,
)
from repro.plans.fragments import fragment_plan
from repro.plans.nodes import (
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    MergeJoinNode,
    NestLoopJoinNode,
    PlanNode,
    SeqScanNode,
    SortNode,
)
from repro.workloads.queries import chain_join, star_join

from .corpus_tools import SPACES, WORKLOADS


@pytest.fixture(scope="module")
def chain():
    return chain_join(3, rows_per_relation=300, seed=0)


@pytest.fixture(scope="module")
def star():
    return star_join(3, fact_rows=400, dimension_rows=80, seed=0)


class TestFragmentSignature:
    def test_structurally_equal_plans_share_a_signature(self, chain):
        def build():
            plan = HashJoinNode(
                HashJoinNode(
                    SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
                ),
                SeqScanNode("s3"),
                "s2_r",
                "s3_l",
            )
            return fragment_plan(plan, estimate_plan(plan, chain.catalog))

        assert build().signature() == build().signature()

    def test_different_structure_different_signature(self, chain):
        a = HashJoinNode(SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l")
        b = HashJoinNode(SeqScanNode("s2"), SeqScanNode("s1"), "s2_l", "s1_r")
        sig_a = fragment_plan(a, estimate_plan(a, chain.catalog)).signature()
        sig_b = fragment_plan(b, estimate_plan(b, chain.catalog)).signature()
        assert sig_a != sig_b

    def test_signature_requires_profiled_fragments(self):
        from repro.errors import PlanError

        plan = SeqScanNode("s1")
        with pytest.raises(PlanError):
            fragment_plan(plan).signature()


class TestParcostCache:
    def test_repeat_plan_is_a_cache_hit_with_the_exact_float(self, chain):
        caches = OptimizerCaches()
        objective = ParcostObjective(chain.catalog, caches=caches)
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        first = objective(plan)
        assert caches.stats.parcost_misses == 1
        second = objective(plan)
        assert caches.stats.parcost_hits == 1
        assert first == second
        assert first == parcost(plan, chain.catalog)

    def test_structurally_equal_copy_hits_the_cache(self, chain):
        caches = OptimizerCaches()
        objective = ParcostObjective(chain.catalog, caches=caches)

        def build():
            return HashJoinNode(
                SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
            )

        objective(build())
        objective(build())
        assert caches.stats.parcost_hits == 1
        assert caches.stats.parcost_misses == 1

    def test_unknown_policy_class_is_never_cached(self, chain):
        class TweakedPolicy(InterWithAdjPolicy):
            pass

        caches = OptimizerCaches()
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        # Nor is any policy passed in: only the default one is keyed.
        for policy in (TweakedPolicy(), InterWithAdjPolicy(pairing="fifo")):
            for __ in range(2):
                parallel_cost(plan, chain.catalog, policy=policy, caches=caches)
        assert not caches.parcost_elapsed

    def test_uncached_objective_offers_no_pruning_hook(self, chain):
        machine = paper_machine()
        for objective in (
            partial(ParcostObjective, chain.catalog),
            partial(SeqcostObjective, chain.catalog, machine=machine),
        ):
            assert objective(caches=None).pre_bound is None
            assert objective(caches=OptimizerCaches()).pre_bound is not None


class TestLowerBound:
    def test_bound_never_exceeds_parcost_beyond_the_margin(self, chain):
        machine = paper_machine()
        objective = ParcostObjective(
            chain.catalog, machine=machine, caches=OptimizerCaches()
        )
        checked = 0
        for plan in enumerate_all_bushy(
            chain.query, chain.catalog, methods=("hash", "merge", "nestloop")
        ):
            estimate = estimate_plan(chain.query and plan, chain.catalog)
            bound = objective.pre_bound(estimate.seqcost(), estimate.total_ios())
            cost = parcost(plan, chain.catalog, estimate=estimate)
            assert bound <= cost * (1.0 + PRUNE_MARGIN)
            checked += 1
        assert checked > 50

    def test_dearer_merge_join_is_pruned_not_simulated(self, monkeypatch):
        """Cost dominance alone decides, and decides before anything is
        built: a recipe becomes a plan — and reaches the cost function —
        iff its pre-bound does not clear its cell's *final* cost.

        Once a merge join was costed whenever the incumbent did not
        deliver its sort order, then built and estimated only to be
        bounded away; now its two sorts and the join are never made.
        """
        schema = star_join(7, fact_rows=400, dimension_rows=80, seed=0)
        rows, built, costed = [], set(), []
        real_offer = _Incumbent.offer_bounded
        real_cost = ParcostObjective.__call__

        def offer_bounded(self, cell_rows):
            rows.extend(cell_rows)  # keeps every recipe alive: ids stay unique
            real_offer(self, cell_rows)

        def build(recipe):
            built.add(id(recipe))
            return _build(recipe)

        def cost(self, plan):
            costed.append(plan)
            return real_cost(self, plan)

        monkeypatch.setattr(_Incumbent, "offer_bounded", offer_bounded)
        monkeypatch.setattr(enumeration, "_build", build)
        monkeypatch.setattr(ParcostObjective, "__call__", cost)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        optimizer.choose_plan(schema.query, OptimizerMode.BUSHY_PAR)

        def relations(plan):
            return frozenset(n.table for n in plan.walk() if hasattr(n, "table"))

        final = {
            relations(plan): cost for cost, plan in optimizer.caches.subplans.values()
        }
        merges_pruned = 0
        for bound, recipe in rows:
            if isinstance(recipe, PlanNode):  # an access path: built, never bounded
                assert bound == 0.0 and id(recipe) in built
                continue
            outer, inner, *__, method = recipe
            cell = final[relations(outer) | relations(inner)]
            dominated = bound > cell * (1.0 + PRUNE_MARGIN)
            assert (id(recipe) not in built) == dominated
            merges_pruned += dominated and method == "merge"
        assert len(rows) == optimizer.cache_stats.candidates
        assert len(costed) == len(built) == optimizer.cache_stats.costed
        assert not any(isinstance(plan, MergeJoinNode) for plan in costed)
        assert merges_pruned > 500

    def test_pruning_stats_account_for_every_candidate(self, star):
        caches = OptimizerCaches()
        objective = ParcostObjective(star.catalog, caches=caches)
        enumerate_space(
            star.query,
            star.catalog,
            objective,
            space="bushy",
            stats=caches.stats,
        )
        stats = caches.stats
        assert stats.candidates == stats.costed + stats.pruned
        assert stats.pruned > 0  # the bound skip actually fires
        assert stats.parcost_hits + stats.parcost_misses == stats.costed
        assert stats.parcost_hits > 0  # signature sharing actually fires
        assert stats.parcost_misses > 0
        as_dict = stats.as_dict()
        assert as_dict["candidates"] == stats.candidates
        stats.reset()
        assert stats.candidates == 0


def _triangle():
    """Cyclic: whichever join closes it carries a residual filter."""
    return Query(
        relations=["r1", "r2", "r3"],
        joins=[
            JoinPredicate("r1", "b1", "r2", "b2"),
            JoinPredicate("r2", "c2", "r3", "c3"),
            JoinPredicate("r1", "a", "r3", "d3"),
        ],
    )


def _chain(**selections):
    return Query(
        relations=["r1", "r2", "r3"],
        joins=[JoinPredicate("r1", "b1", "r2", "b2"), JoinPredicate("r2", "c2", "r3", "c3")],
        selections=selections,
    )


#: Shapes the star/chain benchmark never plans: label -> (query, space,
#: methods, a node type the chosen plan must contain).
OFF_BENCHMARK = {
    "cyclic/residual-filter": (_triangle(), "bushy", JOIN_METHODS, FilterNode),
    "cross-product": (
        Query(relations=["r1", "r2", "r3"], joins=[JoinPredicate("r1", "b1", "r2", "b2")]),
        "bushy",
        JOIN_METHODS,
        NestLoopJoinNode,
    ),
    "merge-only": (_chain(), "bushy", ("merge",), SortNode),
    "nestloop-only": (_chain(), "bushy", ("nestloop",), NestLoopJoinNode),
    "index-scan-inner": (
        _chain(r1=between("a", 0, 0)), "left-deep", ("nestloop",), IndexScanNode
    ),
    "selection-on-join-column": (_chain(r1=between("b1", 0, 9)), "bushy", JOIN_METHODS, HashJoinNode),
    "right-deep": (_chain(), "right-deep", JOIN_METHODS, HashJoinNode),
}


class TestBoundBeforeBuildOffTheBenchmarkPath:
    """Every shape goes through the one settle loop, bounded and not."""

    #: A symmetric nest loop ties its mirror image exactly, and the
    #: memoized and the reference ``seqcost`` arms sum a plan's nodes in
    #: different orders — the tie falls to ulp noise on each side (so it
    #: did before there was a bound).  Only bound-vs-no-bound holds here.
    ARMS_DISAGREE = {(SeqcostObjective, "nestloop-only")}

    @pytest.mark.parametrize("label", OFF_BENCHMARK)
    @pytest.mark.parametrize("objective", [ParcostObjective, SeqcostObjective])
    def test_bounded_search_chooses_what_the_exhaustive_one_does(
        self, catalog, label, objective
    ):
        query, space, methods, expected = OFF_BENCHMARK[label]
        machine = paper_machine()
        cells, chosen = [], []
        for arm in ("bounded", "unbounded", "reference"):
            caches = OptimizerCaches() if arm != "reference" else None
            cost = objective(catalog, machine=machine, caches=caches)
            if arm == "unbounded":
                cost.pre_bound = None  # same memos, every recipe built
            plan = enumerate_space(
                query, catalog, cost, space=space, methods=methods, caches=caches
            )
            assert any(isinstance(node, expected) for node in plan.walk())
            fresh = estimate_plan(plan, catalog)
            chosen.append(
                (
                    plan_shape_key(plan),
                    parcost(plan, catalog, estimate=fresh).hex(),
                    fresh.seqcost().hex(),
                )
            )
            if caches is not None:
                stats = caches.stats
                assert stats.candidates == stats.pruned + stats.costed
                assert (stats.pruned > 0) == (arm == "bounded")
                cells.append(
                    {
                        key[1]: (cost.hex(), plan_shape_key(plan))
                        for key, (cost, plan) in caches.subplans.items()
                    }
                )
        assert cells[0] == cells[1] and len(cells[0]) > len(query.relations)
        assert chosen[0] == chosen[1]
        if (objective, label) not in self.ARMS_DISAGREE:
            assert chosen[0] == chosen[2]


class TestDeterminism:
    def test_repeat_searches_choose_the_same_plan(self, star):
        keys = set()
        for __ in range(3):
            caches = OptimizerCaches()
            objective = ParcostObjective(star.catalog, caches=caches)
            plan = enumerate_space(
                star.query, star.catalog, objective, space="bushy"
            )
            keys.add(plan_shape_key(plan))
        assert len(keys) == 1

    def test_shape_key_ignores_node_identity(self):
        def build():
            return HashJoinNode(
                SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
            )

        assert plan_shape_key(build()) == plan_shape_key(build())


class TestEstimateThreading:
    def test_estimate_cache_reuses_subtree_estimates(self, chain):
        cache = {}
        inner = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        estimate_plan(inner, chain.catalog, cache=cache)
        cached_before = dict(cache)
        outer = HashJoinNode(inner, SeqScanNode("s3"), "s2_r", "s3_l")
        estimate = estimate_plan(outer, chain.catalog, cache=cache)
        # The inner join's estimates were reused, not recomputed.
        for node_id, node_estimate in cached_before.items():
            assert cache[node_id] is node_estimate
        fresh = estimate_plan(outer, chain.catalog)
        assert estimate.seqcost() == fresh.seqcost()

    def test_parcost_accepts_a_precomputed_estimate(self, chain):
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        estimate = estimate_plan(plan, chain.catalog)
        assert parcost(plan, chain.catalog, estimate=estimate) == parcost(
            plan, chain.catalog
        )


# -- the frozenset search, as a reference -----------------------------------------
#
# How the DP enumerated before it ran over bitmasks: relation sets as
# frozensets, 2-partitions in ``combinations`` order, predicates by a
# scan of ``query.joins``, each orientation priced on its own.


def _ref_connected(query, subset) -> bool:
    """Is the join graph restricted to ``subset`` connected?"""
    reached = {min(subset)}
    grown = True
    while grown:
        grown = False
        for join in query.joins:
            for a, b in ((join.left_rel, join.right_rel), (join.right_rel, join.left_rel)):
                if a in reached and b in subset and b not in reached:
                    reached.add(b)
                    grown = True
    return reached == set(subset)


def _ref_between(query, a, b) -> list:
    return [
        j
        for j in query.joins
        if (j.left_rel in a and j.right_rel in b) or (j.left_rel in b and j.right_rel in a)
    ]


def _ref_partitions(subset):
    """Unordered 2-partitions, the first relation's side first."""
    anchor, *rest = sorted(subset)
    for size in range(len(rest) + 1):
        for combo in combinations(rest, size):
            left = frozenset((anchor, *combo))
            if subset - left:
                yield left, subset - left


def _ref_splits(subset, space):
    if space == "bushy":
        for left, right in _ref_partitions(subset):
            yield left, right
            yield right, left
        return
    for name in sorted(subset):
        single, rest = frozenset((name,)), subset - {name}
        yield (rest, single) if space == "left-deep" else (single, rest)


def _ref_own_costs(outer, inner, predicates, outer_rels, methods):
    """``(method, own cost)`` of one orientation, priced on its own."""
    if not predicates:
        if "nestloop" in methods:
            yield "nestloop", nest_loop_cpu(outer.rows, inner.rows, outer.rows * inner.rows)
        return
    rows = equijoin_rows(outer, inner, *predicates[0].oriented(outer_rels))
    residual = filter_cpu(rows) if len(predicates) > 1 else 0.0
    if "hash" in methods:
        yield "hash", hash_join_cpu(outer.rows, inner.rows, rows) + residual
    if "merge" in methods:
        sorts = sort_cpu(outer.rows) + sort_cpu(inner.rows)
        yield "merge", sorts + merge_join_cpu(outer.rows, inner.rows, rows) + residual
    if "nestloop" in methods:
        yield "nestloop", nest_loop_cpu(outer.rows, inner.rows, rows) + residual


class TestJoinGraph:
    @pytest.mark.parametrize(
        "query_factory",
        [
            lambda: chain_join(5, rows_per_relation=100, seed=0).query,
            lambda: star_join(4, fact_rows=200, dimension_rows=50, seed=0).query,
            _triangle,
        ],
        ids=["chain5", "star4", "triangle"],
    )
    def test_index_matches_query_methods(self, query_factory):
        """The bitmask index against the frozenset reference: connectivity
        of every subset, and the predicates between every disjoint pair."""
        query = query_factory()
        index = _JoinIndex(query)
        rels = sorted(query.relations)
        subsets = [
            frozenset(c)
            for size in range(1, len(rels) + 1)
            for c in combinations(rels, size)
        ]
        mask = {subset: sum(index.bits[r] for r in subset) for subset in subsets}
        for subset in subsets:
            assert index.rels(mask[subset]) == subset
            assert index.connected(mask[subset]) == _ref_connected(query, subset)
        for a in subsets:
            for b in subsets:
                if a & b:
                    continue
                # Same predicates in the same (query.joins) order — the
                # enumerator's primary-predicate choice depends on it.
                assert index.between(mask[a], mask[b]) == _ref_between(query, a, b)


class TestTwoPhaseFastPath:
    def test_fast_and_slow_optimizers_agree(self, star):
        fast = TwoPhaseOptimizer(star.catalog, fast_path=True)
        slow = TwoPhaseOptimizer(star.catalog, fast_path=False)
        for mode in OptimizerMode:
            a = fast.optimize(star.query, mode=mode)
            b = slow.optimize(star.query, mode=mode)
            assert plan_shape_key(a.plan) == plan_shape_key(b.plan)
            assert a.parallel.elapsed == b.parallel.elapsed

    def test_stats_exposed_only_on_the_fast_path(self, star):
        fast = TwoPhaseOptimizer(star.catalog, fast_path=True)
        result = fast.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        assert result.stats is not None
        assert result.stats["candidates"] > 0
        assert fast.cache_stats is not None
        assert isinstance(fast.cache_stats, CacheStats)
        slow = TwoPhaseOptimizer(star.catalog, fast_path=False)
        assert slow.cache_stats is None
        assert slow.optimize(star.query, mode=OptimizerMode.BUSHY_PAR).stats is None

    def test_caches_clear_resets_everything(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog, fast_path=True)
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        assert optimizer.caches is not None
        assert optimizer.caches.parcost_elapsed
        assert optimizer.caches.node_estimates
        assert optimizer.caches.subplans
        optimizer.caches.clear()
        assert not optimizer.caches.parcost_elapsed
        assert not optimizer.caches.node_estimates
        assert not optimizer.caches.subplans
        assert optimizer.caches.stats.candidates == 0

    def test_second_query_benefits_from_warm_caches(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog, fast_path=True)
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        sims_cold = optimizer.caches.stats.parcost_misses
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        sims_warm = optimizer.caches.stats.parcost_misses - sims_cold
        assert sims_warm == 0  # every signature already simulated


LEFT_DEEP = OptimizerMode.LEFT_DEEP_SEQ


def _search_counters(optimizer) -> dict:
    stats = optimizer.cache_stats.as_dict()
    return {key: stats[key] for key in stats if not key.startswith("subplan")}


def _reachable_ids(caches):
    return {
        node.node_id
        for __, plan in caches.subplans.values()
        for node in plan.walk()
    }


class TestSubplanMemo:
    """The cross-query DP memo: what is shared, and what never is."""

    def test_repeated_query_is_one_lookup(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        first = optimizer.choose_plan(star.query, LEFT_DEEP)
        stats = optimizer.cache_stats
        cold = stats.as_dict()
        assert cold["subplan_hits"] == 0
        assert cold["subplan_misses"] > 0
        assert optimizer.choose_plan(star.query, LEFT_DEEP) is first
        assert stats.subplan_hits == 1
        assert stats.subplan_misses == cold["subplan_misses"]
        assert stats.candidates == cold["candidates"]

    def test_sub_query_cells_are_shared_with_later_queries(self, chain):
        full = chain.query
        prefix = Query(relations=full.relations[:2], joins=full.joins[:1])
        optimizer = TwoPhaseOptimizer(chain.catalog)
        small = optimizer.choose_plan(prefix, LEFT_DEEP)
        candidates = optimizer.cache_stats.candidates
        big = optimizer.choose_plan(full, LEFT_DEEP)
        # s1, s2 and {s1, s2} were lookups; only s3 and the two larger
        # subsets were searched.
        assert optimizer.cache_stats.subplan_hits == 3
        cold = TwoPhaseOptimizer(chain.catalog)
        cold.choose_plan(full, LEFT_DEEP)
        assert optimizer.cache_stats.candidates - candidates < cold.cache_stats.candidates
        assert plan_shape_key(big) == plan_shape_key(
            TwoPhaseOptimizer(chain.catalog, fast_path=False).choose_plan(full, LEFT_DEEP)
        )
        # ... and the shared cell is the same object in both answers.
        assert any(node is small for node in big.walk())

    def test_selection_and_bare_query_never_share_a_cell(self, chain):
        from repro.executor import between

        bare = chain.query
        selected = Query(
            relations=bare.relations,
            joins=bare.joins,
            selections={"s1": between("s1_r", 0, 3)},
        )
        reference = TwoPhaseOptimizer(chain.catalog, fast_path=False)
        for order in ((bare, selected), (selected, bare)):
            optimizer = TwoPhaseOptimizer(chain.catalog)
            for query in order:
                plan = optimizer.choose_plan(query, LEFT_DEEP)
                assert plan_shape_key(plan) == plan_shape_key(
                    reference.choose_plan(query, LEFT_DEEP)
                )
            # The second query shared only what s1's selection cannot
            # touch: the s2 and s3 scans and the {s2, s3} join.
            assert optimizer.cache_stats.subplan_hits == 3

    def test_equal_but_differently_rendered_literals_do_not_share(self, chain):
        from repro.executor import col, eq, lit

        def query(value):
            return Query(
                relations=["s1"], selections={"s1": eq(col("s1_r"), lit(value))}
            )

        optimizer = TwoPhaseOptimizer(chain.catalog)
        as_int = optimizer.choose_plan(query(1), LEFT_DEEP)
        as_float = optimizer.choose_plan(query(1.0), LEFT_DEEP)
        assert optimizer.cache_stats.subplan_hits == 0
        assert plan_shape_key(as_int) != plan_shape_key(as_float)

    def test_join_order_in_the_query_is_part_of_the_full_cell(self, star):
        flipped = Query(
            relations=star.query.relations, joins=list(reversed(star.query.joins))
        )
        optimizer = TwoPhaseOptimizer(star.catalog)
        optimizer.choose_plan(star.query, LEFT_DEEP)
        optimizer.choose_plan(flipped, LEFT_DEEP)
        full = frozenset(star.query.relations)
        full_cells = [key for key in optimizer.caches.subplans if key[1] == full]
        assert len(full_cells) == 2
        assert {key[2] for key in full_cells} == {
            tuple(star.query.joins),
            tuple(flipped.joins),
        }

    def test_reordered_joins_pick_their_own_primary_predicate(self, catalog):
        from repro.optimizer import JoinPredicate

        on_a = JoinPredicate("r1", "a", "r2", "b2")
        on_b = JoinPredicate("r1", "b1", "r2", "c2")
        optimizer = TwoPhaseOptimizer(catalog)
        reference = TwoPhaseOptimizer(catalog, fast_path=False)
        keys = []
        for joins in ([on_a, on_b], [on_b, on_a]):
            query = Query(relations=["r1", "r2"], joins=joins)
            plan = optimizer.choose_plan(query, LEFT_DEEP)
            keys.append(plan_shape_key(plan))
            assert keys[-1] == plan_shape_key(reference.choose_plan(query, LEFT_DEEP))
        assert keys[0] != keys[1]  # the first predicate is the join's own

    def test_modes_and_spaces_never_share_cells(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        reference = TwoPhaseOptimizer(star.catalog, fast_path=False)
        for mode in (*OptimizerMode, *OptimizerMode):
            assert plan_shape_key(
                optimizer.choose_plan(star.query, mode)
            ) == plan_shape_key(reference.choose_plan(star.query, mode))
        assert optimizer.cache_stats.subplan_hits == len(OptimizerMode)

    def test_uncached_objective_and_plain_cost_functions_are_never_shared(
        self, chain
    ):
        caches = OptimizerCaches()
        objective = ParcostObjective(chain.catalog)
        assert objective.memo_key is None
        plain = lambda plan: estimate_plan(plan, chain.catalog).seqcost()  # noqa: E731
        for cost in (objective, plain):
            enumerate_space(chain.query, chain.catalog, cost, caches=caches)
        assert not caches.subplans
        assert caches.stats.subplan_hits == caches.stats.subplan_misses == 0

    def test_unhashable_literal_is_planned_unshared(self, chain):
        from repro.executor import col, eq, lit

        query = Query(
            relations=["s1"], selections={"s1": eq(col("s1_r"), lit([1, 2]))}
        )
        optimizer = TwoPhaseOptimizer(chain.catalog)
        plan = optimizer.choose_plan(query, LEFT_DEEP)
        assert isinstance(plan, SeqScanNode)
        assert not optimizer.caches.subplans

    def test_caches_follow_the_catalog_they_were_filled_under(self, chain, star):
        caches = OptimizerCaches()
        caches.sync(chain.catalog)
        caches.parcost_elapsed[("sig",)] = 1.0
        caches.sync(chain.catalog)
        assert caches.parcost_elapsed  # same catalog, same epoch: kept
        caches.sync(star.catalog)
        assert not caches.parcost_elapsed


class TestSharedPlansStayIntact:
    """Memo-served plans are shared objects: downstream must not touch them."""

    @staticmethod
    def _snapshot(plan):
        # vars(): a memo hung on a shared plan node would show up here.
        return [
            (
                node.node_id,
                type(node),
                node.label(),
                tuple(id(c) for c in node.children),
                sorted(vars(node)),
            )
            for node in plan.walk()
        ]

    def test_fragmenting_and_estimating_leave_a_shared_plan_alone(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        plan = optimizer.choose_plan(star.query, LEFT_DEEP)
        before = self._snapshot(plan)
        estimates_before = dict(optimizer.caches.node_estimates)
        signatures = []
        for __ in range(2):
            served = optimizer.choose_plan(star.query, LEFT_DEEP)
            assert served is plan
            estimate = estimate_plan(
                served, star.catalog, cache=optimizer.caches.node_estimates
            )
            signatures.append(fragment_plan(served, estimate).signature())
            optimizer.parallelize(served)
            assert self._snapshot(plan) == before
        assert signatures[0] == signatures[1]
        # Every node was already in the memo, and none was re-estimated.
        assert optimizer.caches.node_estimates.keys() == estimates_before.keys()
        for node_id, node_estimate in estimates_before.items():
            assert optimizer.caches.node_estimates[node_id] is node_estimate

    def test_projection_goes_on_top_of_the_shared_plan(self, chain):
        projected = Query(
            relations=chain.query.relations,
            joins=chain.query.joins,
            projection=("s1_r",),
        )
        optimizer = TwoPhaseOptimizer(chain.catalog)
        bare = optimizer.choose_plan(chain.query, LEFT_DEEP)
        top = optimizer.choose_plan(projected, LEFT_DEEP)
        assert optimizer.cache_stats.subplan_hits == 1
        assert top.children == (bare,)
        assert optimizer.choose_plan(chain.query, LEFT_DEEP) is bare


class TestNodeEstimateMemoIsBounded:
    @pytest.mark.parametrize("mode", list(OptimizerMode))
    def test_only_nodes_of_best_plans_are_kept(self, star, mode):
        optimizer = TwoPhaseOptimizer(star.catalog)
        optimizer.choose_plan(star.query, mode)
        caches = optimizer.caches
        assert caches.subplans
        assert set(caches.node_estimates) == _reachable_ids(caches)
        assert caches.stats.candidates > len(caches.subplans)  # losers existed
        # The subtree memo shadows the estimates: reused subplans only,
        # each entry covering exactly its own subtree.
        assert caches.subtrees
        assert caches.subtrees.keys() <= caches.node_estimates.keys()
        by_id = {
            node.node_id: node
            for __, plan in caches.subplans.values()
            for node in plan.walk()
        }
        for node_id, subtree in caches.subtrees.items():
            assert list(subtree.by_node) == [n.node_id for n in by_id[node_id].walk()]

    def test_cold_search_counters_are_pinned(self):
        """One fixed cold search, counter for counter.

        A "pure speed" change that alters pruning, signature sharing or
        the hit/miss accounting moves one of these before it moves a
        benchmark table.

        Re-pinned when the bound moved in front of construction.  What
        the search considers and what the bound rejects did not move
        (``candidates`` 2,696, ``pruned`` 2,519, ``costed`` 177,
        ``parcost_hits`` 128, ``parcost_misses`` 49 — the pre-bound is
        the old bound to rounding); what is *estimated* did:
        ``estimate_misses`` 4,488 -> 177, the own nodes of the costed
        candidates only (one hash join or scan each: every merge join
        and its two sorts is pruned unbuilt), and ``estimate_hits``
        21,504 -> 1,218, the reused nodes under those 177.

        The optimize_bushy benchmark's other shapes are pinned beside it:
        star7 at seed 1 and chain8 at both seeds, unchanged when the
        search moved from frozensets to bitmasks.
        """
        star = partial(star_join, 7, fact_rows=400, dimension_rows=80)
        chain = partial(chain_join, 8, rows_per_relation=300)
        pinned = {
            "star7/seed0": (star(seed=0), (2696, 2519, 177, 128, 49, 1218, 177)),
            "star7/seed1": (star(seed=1), (2696, 2508, 188, 151, 37, 1324, 188)),
            "chain8/seed0": (chain(seed=0), (512, 473, 39, 15, 24, 196, 39)),
            "chain8/seed1": (chain(seed=1), (512, 473, 39, 15, 24, 196, 39)),
        }
        names = (
            "candidates", "pruned", "costed", "parcost_hits", "parcost_misses",
            "estimate_hits", "estimate_misses",
        )
        for label, (schema, expected) in pinned.items():
            optimizer = TwoPhaseOptimizer(schema.catalog)
            optimizer.choose_plan(schema.query, OptimizerMode.BUSHY_PAR)
            assert _search_counters(optimizer) == dict(zip(names, expected)), label

    def test_cold_seqcost_search_counters_are_pinned(self):
        """The ``LEFT_DEEP_SEQ`` twin: ``seqcost`` is its own bound.

        Before, a seqcost search had no bound and costed all 1,373
        candidates; now it builds the 177 within ``PRUNE_MARGIN`` of
        their cell's best and chooses the same plan at the same cost.
        """
        schema = star_join(7, fact_rows=400, dimension_rows=80, seed=0)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        plan = optimizer.choose_plan(schema.query, LEFT_DEEP)
        assert _search_counters(optimizer) == {
            "candidates": 1373,
            "pruned": 1196,
            "costed": 177,
            "parcost_hits": 0,
            "parcost_misses": 0,
            "estimate_hits": 1218,
            "estimate_misses": 177,
        }
        reference = TwoPhaseOptimizer(schema.catalog, fast_path=False)
        exhaustive = reference.choose_plan(schema.query, LEFT_DEEP)
        assert plan_shape_key(plan) == plan_shape_key(exhaustive)
        (cost,) = [
            cost for cost, best in optimizer.caches.subplans.values() if best is plan
        ]
        # The float the unbounded search settled this cell at (a memo-
        # composed sum: ulps off a fresh estimate of the same plan).
        assert cost.hex() == "0x1.989aaa66d8722p-1"

    def test_estimates_of_kept_nodes_are_the_uncached_ones(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        plan = optimizer.choose_plan(star.query, OptimizerMode.BUSHY_PAR)
        fresh = estimate_plan(plan, star.catalog)
        for node in plan.walk():
            node_id = node.node_id
            assert optimizer.caches.node_estimates[node_id] == fresh.by_node[node_id]

    def test_seqcost_counts_nodes_reused_and_computed(self, chain):
        optimizer = TwoPhaseOptimizer(chain.catalog)
        optimizer.choose_plan(chain.query, LEFT_DEEP)
        stats = optimizer.cache_stats
        # Scans are computed once; every join candidate reuses its two
        # subplans' nodes and computes only its own.
        assert stats.estimate_hits > 0
        assert stats.estimate_misses >= stats.costed


class TestTieBreaking:
    def test_lazy_key_picks_the_least_key_among_equal_costs(self):
        from itertools import permutations

        scans = [SeqScanNode(name) for name in ("s3", "s1", "s2")]
        for order in permutations(scans):
            incumbent = _Incumbent(lambda plan: 1.0, None)
            for scan in order:
                incumbent.offer(scan)
            assert incumbent.plan.table == "s1"

    def test_cheaper_always_beats_a_smaller_key(self):
        costs = {"s1": 2.0, "s2": 1.0, "s3": 2.0}
        incumbent = _Incumbent(lambda plan: costs[plan.table], None)
        for name in ("s3", "s1", "s2", "s1"):
            incumbent.offer(SeqScanNode(name))
        assert incumbent.plan.table == "s2"

    @pytest.mark.parametrize("space", ["left-deep", "right-deep"])
    def test_deep_splits_are_the_legal_subset_of_all_splits(self, space):
        index = _JoinIndex(Query(relations=list("abcde")))
        full = (1 << 5) - 1
        everything = range(full + 1)
        legal = set()
        for left, right in index.splits(full, "bushy", everything):
            for outer, inner in ((left, right), (right, left)):
                if (inner if space == "left-deep" else outer).bit_count() == 1:
                    legal.add((outer, inner))
        generated = index.splits(full, space, everything)
        assert len(generated) == 5 == len(legal)
        assert set(generated) == legal
        # Sorted order: the single relation's name ascends.
        singles = [inner if space == "left-deep" else outer for outer, inner in generated]
        assert [index.rels(bit) for bit in singles] == [{name} for name in "abcde"]

    @pytest.mark.parametrize("space", ["bushy", "left-deep", "right-deep"])
    def test_splits_come_in_the_frozenset_order(self, space):
        """Every split of every cell, with every cell settled and with
        half of them, in the order of the frozenset reference (a bushy
        partition once, the side holding the first relation first)."""
        index = _JoinIndex(Query(relations=list("fbdeac")))
        full = (1 << 6) - 1
        half = set(range(0, full + 1, 2)) | set(index.bits.values())
        for settled in (range(full + 1), half):
            for mask in range(1, full + 1):
                if mask.bit_count() < 2:
                    continue
                subset = index.rels(mask)
                walk = _ref_partitions(subset) if space == "bushy" else _ref_splits(subset, space)
                expected = [
                    (outer, inner)
                    for outer, inner in walk
                    if sum(map(index.bits.get, outer)) in settled
                    and sum(map(index.bits.get, inner)) in settled
                ]
                generated = [
                    (index.rels(outer), index.rels(inner))
                    for outer, inner in index.splits(mask, space, settled)
                ]
                assert generated == expected


# -- the rows a cell offers ----------------------------------------------------------


def _relations(plan) -> frozenset:
    return frozenset(n.table for n in plan.walk() if hasattr(n, "table"))


def _describe(bound, recipe) -> tuple:
    """A row as the seam sees it: the bound to the last bit, then the
    plan's shape, or the recipe's method, sides and predicates."""
    if isinstance(recipe, PlanNode):
        return bound.hex(), plan_shape_key(recipe)
    outer, inner, predicates, outer_rels, method = recipe
    return (
        bound.hex(), method, _relations(outer), _relations(inner),
        tuple(predicates), outer_rels,
    )


def _reference_rows(query, catalog, cost, space, methods, settled):
    """Each cell's rows as the frozenset search offered them, in its cell
    order, joining the sub-plans the search under test ``settled``."""
    allow_cross = not _ref_connected(query, frozenset(query.relations))
    pre_bound = getattr(cost, "pre_bound", None)
    names = sorted(query.relations)
    cells = [frozenset((name,)) for name in query.relations] + [
        frozenset(combo)
        for size in range(2, len(names) + 1)
        for combo in combinations(names, size)
        if allow_cross or _ref_connected(query, frozenset(combo))
    ]
    for subset in cells:
        rows = []
        if len(subset) == 1:
            (name,) = subset
            rows = [(0.0, path) for path in access_paths(query, name, catalog)]
        for outer_set, inner_set in _ref_splits(subset, space) if len(subset) > 1 else ():
            if outer_set not in settled or inner_set not in settled:
                continue
            predicates = _ref_between(query, outer_set, inner_set)
            if not predicates and not allow_cross:
                continue
            join = (settled[outer_set], settled[inner_set], predicates, outer_set)
            if pre_bound is None:
                rows += [(0.0, c) for c in join_candidates(*join, methods=methods)]
                continue
            sums = partial(
                subtree_sums, catalog=catalog, machine=cost.machine,
                cache=cost.caches.node_estimates,
            )
            outer, outer_seq, outer_ios = sums(join[0])
            inner, inner_seq, inner_ios = sums(join[1])
            seq, ios = outer_seq + inner_seq, outer_ios + inner_ios
            for method, own in _ref_own_costs(outer, inner, predicates, outer_set, methods):
                rows.append((pre_bound(seq + own, ios), (*join, method)))
        rows.sort(key=itemgetter(0))
        yield [_describe(bound, recipe) for bound, recipe in rows]


def _check_row_order(query, catalog, space, methods, monkeypatch) -> int:
    """Bounded parcost, bounded seqcost and unbounded: every cell offers
    the reference's rows in the reference's order.  Returns the rows."""
    checked = 0
    for objective, bounded in (
        (ParcostObjective, True), (SeqcostObjective, True), (ParcostObjective, False)
    ):
        caches = OptimizerCaches()
        cost = objective(catalog, machine=paper_machine(), caches=caches)
        if not bounded:
            cost.pre_bound = None
        offered, settled = [], {}
        real = _Incumbent.offer_bounded

        def offer_bounded(self, rows):
            rows = list(rows)
            real(self, rows)
            offered.append([_describe(bound, recipe) for bound, recipe in rows])
            if self.plan is not None:
                settled[_relations(self.plan)] = self.plan

        with monkeypatch.context() as patch:
            patch.setattr(_Incumbent, "offer_bounded", offer_bounded)
            enumerate_space(query, catalog, cost, space=space, methods=methods, caches=caches)
        expected = list(_reference_rows(query, catalog, cost, space, methods, settled))
        assert offered == expected
        checked += sum(map(len, offered))
    return checked


class TestRowOrder:
    """What the bitmask search offers ``_Incumbent.offer_bounded``, cell
    by cell, is what the frozenset search offered: the same rows, the
    same bounds to the last bit, in the same order — so node ids,
    counters and every tie settle as they did."""

    @pytest.mark.parametrize("label", [label for label, __ in WORKLOADS])
    @pytest.mark.parametrize("space", SPACES)
    def test_corpus_workloads(self, label, space, monkeypatch):
        schema = dict(WORKLOADS)[label]()
        assert _check_row_order(
            schema.query, schema.catalog, space, JOIN_METHODS, monkeypatch
        )

    @pytest.mark.parametrize("label", OFF_BENCHMARK)
    def test_off_benchmark_shapes(self, catalog, label, monkeypatch):
        query, space, methods, __ = OFF_BENCHMARK[label]
        assert _check_row_order(query, catalog, space, methods, monkeypatch)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(40))
    def test_random_schemas(self, seed, monkeypatch):
        schema = random_join_schema(seed)
        for space in SPACES:
            assert _check_row_order(
                schema.query, schema.catalog, space, JOIN_METHODS, monkeypatch
            )
