"""Tests for plan enumeration and the DP search."""

import pytest

from repro.errors import OptimizerError
from repro.executor import between
from repro.optimizer import (
    JoinPredicate,
    Query,
    access_paths,
    enumerate_all_bushy,
    enumerate_space,
)
from repro.plans import (
    IndexScanNode,
    SeqScanNode,
    count_joins,
    estimate_plan,
    is_bushy,
    is_left_deep,
    is_right_deep,
)


def seqcost_fn(catalog):
    return lambda plan: estimate_plan(plan, catalog).seqcost()


class TestAccessPaths:
    def test_seqscan_always_offered(self, catalog):
        q = Query(relations=["r2"])
        paths = access_paths(q, "r2", catalog)
        assert len(paths) == 1
        assert isinstance(paths[0], SeqScanNode)

    def test_index_path_offered_when_bounded(self, catalog):
        q = Query(relations=["r1"], selections={"r1": between("a", 0, 10)})
        paths = access_paths(q, "r1", catalog)
        kinds = {type(p) for p in paths}
        assert kinds == {SeqScanNode, IndexScanNode}
        idx = next(p for p in paths if isinstance(p, IndexScanNode))
        assert (idx.low, idx.high) == (0, 10)

    def test_no_index_path_without_bounds(self, catalog):
        q = Query(relations=["r1"], selections={"r1": between("b1", 0, 10)})
        paths = access_paths(q, "r1", catalog)
        assert all(isinstance(p, SeqScanNode) for p in paths)


class TestEnumerateSpace:
    def test_left_deep_space_yields_left_deep(self, catalog, chain_query):
        plan = enumerate_space(
            chain_query, catalog, seqcost_fn(catalog), space="left-deep"
        )
        assert is_left_deep(plan)
        assert count_joins(plan) == 2
        leaves = {n.table for n in plan.walk() if not n.children}
        assert leaves == {"r1", "r2", "r3"}

    def test_right_deep_space_yields_right_deep(self, catalog, chain_query):
        plan = enumerate_space(
            chain_query, catalog, seqcost_fn(catalog), space="right-deep"
        )
        assert is_right_deep(plan)
        assert count_joins(plan) == 2

    def test_all_three_spaces_agree_on_answers(self, catalog, chain_query):
        cost = seqcost_fn(catalog)
        counts = set()
        for space in ("left-deep", "right-deep", "bushy"):
            plan = enumerate_space(chain_query, catalog, cost, space=space)
            counts.add(len(plan.to_operator(catalog).run()))
        assert len(counts) == 1

    def test_bushy_at_least_as_good_as_either_deep_space(self, catalog, chain_query):
        cost = seqcost_fn(catalog)
        bushy = cost(enumerate_space(chain_query, catalog, cost, space="bushy"))
        for space in ("left-deep", "right-deep"):
            deep = cost(enumerate_space(chain_query, catalog, cost, space=space))
            assert bushy <= deep + 1e-12

    def test_bushy_at_least_as_good_as_left_deep(self, catalog, chain_query):
        cost = seqcost_fn(catalog)
        ld = enumerate_space(chain_query, catalog, cost, space="left-deep")
        bushy = enumerate_space(chain_query, catalog, cost, space="bushy")
        assert cost(bushy) <= cost(ld) + 1e-12

    def test_plans_execute_identically(self, catalog, chain_query):
        cost = seqcost_fn(catalog)
        results = set()
        for space in ("left-deep", "bushy"):
            plan = enumerate_space(chain_query, catalog, cost, space=space)
            results.add(len(plan.to_operator(catalog).run()))
        assert len(results) == 1

    def test_projection_applied(self, catalog, chain_query):
        chain_query.projection = ("a", "d3")
        plan = enumerate_space(
            chain_query, catalog, seqcost_fn(catalog), space="bushy"
        )
        op = plan.to_operator(catalog).open()
        assert op.schema.names() == ("a", "d3")
        op.close()

    def test_single_relation_query(self, catalog):
        q = Query(relations=["r1"], selections={"r1": between("a", 0, 5)})
        plan = enumerate_space(q, catalog, seqcost_fn(catalog))
        assert {n.table for n in plan.walk() if not n.children} == {"r1"}

    def test_unknown_space_rejected(self, catalog, chain_query):
        with pytest.raises(OptimizerError):
            enumerate_space(
                chain_query, catalog, seqcost_fn(catalog), space="zigzag"
            )

    def test_cross_product_when_unavoidable(self, catalog):
        q = Query(relations=["r1", "r3"])  # no join predicate
        plan = enumerate_space(q, catalog, seqcost_fn(catalog))
        assert count_joins(plan) == 1

    def test_restricted_methods(self, catalog, chain_query):
        from repro.plans import HashJoinNode

        plan = enumerate_space(
            chain_query, catalog, seqcost_fn(catalog), methods=("hash",)
        )
        joins = [
            n for n in plan.walk() if count_joins(n) > 0 and n.children
        ]
        assert all(
            isinstance(n, HashJoinNode)
            for n in plan.walk()
            if type(n).__name__.endswith("JoinNode")
        )


class TestExhaustiveEnumeration:
    def test_yields_multiple_shapes(self, catalog, chain_query):
        plans = list(enumerate_all_bushy(chain_query, catalog))
        assert len(plans) > 4
        assert any(is_left_deep(p) for p in plans)

    def test_three_way_has_no_bushy_shape(self, catalog, chain_query):
        # 3 relations cannot produce a bushy tree: both sides of some
        # join would need 2+ relations.
        plans = list(enumerate_all_bushy(chain_query, catalog))
        assert all(not is_bushy(p) for p in plans)

    def test_cap_enforced(self, catalog):
        q = Query(relations=[f"r{i}" for i in range(1, 9)])
        with pytest.raises(OptimizerError):
            list(enumerate_all_bushy(q, catalog))

    def test_all_plans_agree_on_result(self, catalog, chain_query):
        plans = list(enumerate_all_bushy(chain_query, catalog))
        counts = {len(p.to_operator(catalog).run()) for p in plans[:6]}
        assert len(counts) == 1
