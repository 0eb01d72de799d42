"""The query memo and the fragment graphs kept on memoized plans.

A repeated query is one lookup of ``OptimizerCaches.queries`` and a
memoized plan's :class:`~repro.plans.fragments.FragmentGraph` is kept
on its root's subtree entry.  Both are exact: they hand back the
objects an earlier call built, never a different plan, and they do no
work the counters could tell apart — the oracle is the reference search
(``fast_path=False``), a plain-dict cut and the pinned counters of the
benchmark's ``serve_queries`` stream.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.core.ids import id_scope
from repro.errors import OptimizerError
from repro.executor import col, eq, lit
from repro.optimizer import (
    JoinPredicate,
    OptimizerMode,
    Query,
    TwoPhaseOptimizer,
    plan_shape_key,
)
from repro.plans import fragment_plan
from repro.plans.costing import estimate_plan
from repro.plans.nodes import ProjectNode, SeqScanNode
from repro.workloads.queries import chain_join

LEFT_DEEP = OptimizerMode.LEFT_DEEP_SEQ
E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def chain():
    return chain_join(3, rows_per_relation=300, seed=0)


@pytest.fixture
def fresh_chain():
    """A chain schema of its own, for tests that change the catalog."""
    return chain_join(3, rows_per_relation=60, seed=1)


@pytest.fixture(scope="module")
def e2e():
    """The benchmark's workload module (it imports its siblings by name)."""
    sys.path.insert(0, str(E2E))
    try:
        return importlib.import_module("e2e_workloads")
    finally:
        sys.path.remove(str(E2E))


def _copy(query: Query, **changes) -> Query:
    """A structurally equal, freshly built query, with ``changes`` applied."""
    fields = dict(
        relations=list(query.relations),
        joins=list(query.joins),
        selections=dict(query.selections),
        projection=query.projection,
    )
    fields.update(changes)
    return Query(**fields)


class TestQueryMemo:
    def test_a_repeat_and_an_equal_fresh_query_get_the_identical_plan(self, chain):
        optimizer = TwoPhaseOptimizer(chain.catalog)
        projected = _copy(chain.query, projection=("s1_r",))
        for query in (chain.query, projected):
            first = optimizer.choose_plan(query, LEFT_DEEP)
            hits = optimizer.cache_stats.subplan_hits
            assert optimizer.choose_plan(query, LEFT_DEEP) is first
            assert optimizer.choose_plan(_copy(query), LEFT_DEEP) is first
            assert optimizer.cache_stats.subplan_hits == hits + 2
        assert isinstance(first, ProjectNode)
        assert len(optimizer.caches.queries) == 2

    @pytest.mark.parametrize("variant", ["projection", "literal", "join-order"])
    def test_what_differs_gets_its_own_entry(self, chain, variant):
        base = chain.query

        def selecting(value):
            return _copy(base, selections={"s1": eq(col("s1_r"), lit(value))})

        pair = {
            "projection": (
                _copy(base, projection=("s1_r",)),
                _copy(base, projection=("s2_r", "s1_r")),
            ),
            "literal": (selecting(1), selecting(1.0)),  # equal, rendered apart
            "join-order": (base, _copy(base, joins=list(reversed(base.joins)))),
        }[variant]
        optimizer = TwoPhaseOptimizer(chain.catalog)
        reference = TwoPhaseOptimizer(chain.catalog, fast_path=False)
        plans = [optimizer.choose_plan(query, LEFT_DEEP) for query in pair]
        assert len(optimizer.caches.queries) == 2
        assert plans[0] is not plans[1]
        for query, plan in zip(pair, plans):
            assert plan_shape_key(plan) == plan_shape_key(
                reference.choose_plan(query, LEFT_DEEP)
            )
        if variant == "literal":
            assert plan_shape_key(plans[0]) != plan_shape_key(plans[1])

    def test_an_unhashable_literal_still_plans(self, chain):
        query = Query(
            relations=["s1"], selections={"s1": eq(col("s1_r"), lit([1, 2]))}
        )
        optimizer = TwoPhaseOptimizer(chain.catalog)
        first = optimizer.choose_plan(query, LEFT_DEEP)
        second = optimizer.choose_plan(query, LEFT_DEEP)
        assert isinstance(first, SeqScanNode) and isinstance(second, SeqScanNode)
        assert second is not first
        assert not optimizer.caches.queries
        assert not optimizer.caches.subplans

    def test_a_malformed_query_raises_after_a_well_formed_one_was_memoized(
        self, chain
    ):
        optimizer = TwoPhaseOptimizer(chain.catalog)
        optimizer.choose_plan(chain.query, LEFT_DEEP)
        known = dict(optimizer.caches.queries)
        bad = _copy(
            chain.query,
            joins=[*chain.query.joins[:-1], JoinPredicate("s2", "nope", "s3", "s3_l")],
        )
        for __ in range(2):
            with pytest.raises(OptimizerError):
                optimizer.choose_plan(bad, LEFT_DEEP)
        assert optimizer.caches.queries == known

    @pytest.mark.parametrize("change", ["set_stats", "add_index", "create_table"])
    def test_a_catalog_change_empties_the_memo(self, fresh_chain, change):
        catalog = fresh_chain.catalog
        optimizer = TwoPhaseOptimizer(catalog)
        before = optimizer.choose_plan(fresh_chain.query, LEFT_DEEP)
        assert optimizer.caches.queries
        s1 = catalog.table("s1")
        if change == "set_stats":
            catalog.set_stats("s1", s1.stats)
        elif change == "add_index":
            catalog.add_index("s1", "s1_r_idx", "s1_r", object())
        else:
            catalog.create_table("s4", s1.schema, s1.heap)
        optimizer.caches.sync(catalog)
        assert not optimizer.caches.queries
        misses = optimizer.cache_stats.subplan_misses
        after = optimizer.choose_plan(fresh_chain.query, LEFT_DEEP)
        assert after is not before
        assert optimizer.cache_stats.subplan_misses > misses
        assert plan_shape_key(after) == plan_shape_key(before)
        assert optimizer.choose_plan(fresh_chain.query, LEFT_DEEP) is after

    def test_a_full_serve_queries_stream_does_the_counted_work_it_always_did(
        self, e2e
    ):
        """Seed 0, full scale: what the stream costs the optimizer, pinned.

        The counters were recorded before the query memo existed; a
        query-memo hit counts the one ``subplan_hits`` a full-cell hit
        counted, so not one of them moved.
        """
        with id_scope():
            stream = e2e.build_serve_queries(0, 1.0)
        fragments = 0
        with id_scope():
            for __, tenant, query, __ in stream.items:
                optimizer = stream.optimizers[tenant]
                plan = optimizer.choose_plan(query, LEFT_DEEP)
                estimate = estimate_plan(
                    plan,
                    optimizer.catalog,
                    machine=optimizer.machine,
                    cache=optimizer.caches.node_estimates,
                )
                fragments += len(fragment_plan(plan, estimate))
        stats = {t: o.cache_stats.as_dict() for t, o in stream.optimizers.items()}
        zero = {"parcost_hits": 0, "parcost_misses": 0}
        assert stats == {
            "wide": {
                "candidates": 583, "pruned": 390, "costed": 193, **zero,
                "estimate_hits": 1272, "estimate_misses": 193,
                "subplan_hits": 487, "subplan_misses": 69,
            },
            "narrow": {
                "candidates": 127, "pruned": 100, "costed": 27, **zero,
                "estimate_hits": 100, "estimate_misses": 27,
                "subplan_hits": 273, "subplan_misses": 27,
            },
        }
        assert fragments == 2290
        distinct = {(tuple(q.relations), tuple(q.joins)) for __, __, q, __ in stream.items}
        assert sum(len(o.caches.queries) for o in stream.optimizers.values()) == len(
            distinct
        )


def _graph_fields(graph):
    """Every field of a graph and its fragments, by value and identity."""
    return (
        id(graph.plan),
        len(graph.fragments),
        [
            (
                sorted(vars(f)),
                f.fragment_id,
                id(f.root),
                [id(n) for n in f.nodes],
                sorted(f.depends_on),
                f.seq_time.hex(),
                f.io_count.hex(),
                f.io_pattern,
                float(f.memory_bytes).hex(),
            )
            for f in graph.fragments
        ],
    )


class TestSharedGraphs:
    def test_serving_leaves_every_cached_graph_untouched(self, e2e):
        with id_scope():
            stream = e2e.build_serve_queries(0, 0.05)
        with id_scope():
            for __, tenant, query, __ in stream.items:
                optimizer = stream.optimizers[tenant]
                plan = optimizer.choose_plan(query, LEFT_DEEP)
                estimate = estimate_plan(
                    plan,
                    optimizer.catalog,
                    machine=optimizer.machine,
                    cache=optimizer.caches.node_estimates,
                )
                fragment_plan(plan, estimate)
        graphs = [
            entry.graph
            for optimizer in stream.optimizers.values()
            for entry in optimizer.caches.subtrees.values()
            if entry.graph is not None
        ]
        assert graphs
        before = [_graph_fields(graph) for graph in graphs]
        # The benchmark's own pass: plan, fragment, wire, submit, serve.
        served = e2e.run(e2e.WORKLOADS["serve_queries"], stream)
        assert served.extra["fragments"] > 0
        assert [_graph_fields(graph) for graph in graphs] == before
