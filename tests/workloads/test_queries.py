"""Tests for the multi-join query workloads."""

import pytest

from repro.errors import ConfigError
from repro.optimizer import OptimizerMode, TwoPhaseOptimizer
from repro.optimizer.enumeration import _JoinIndex
from repro.workloads import chain_join, star_join


class TestChainJoin:
    def test_builds_valid_query(self):
        schema = chain_join(3, rows_per_relation=100)
        schema.query.validate(schema.catalog)
        assert len(schema.relation_names) == 3
        assert len(schema.query.joins) == 2

    def test_chain_is_connected(self):
        schema = chain_join(4, rows_per_relation=80)
        index = _JoinIndex(schema.query)
        assert index.connected(sum(index.bits[name] for name in schema.relation_names))

    def test_optimizable_and_runnable(self):
        schema = chain_join(3, rows_per_relation=100)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        result = optimizer.optimize(schema.query, mode=OptimizerMode.LEFT_DEEP_SEQ)
        rows = result.plan.to_operator(schema.catalog).run()
        assert isinstance(rows, list)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            chain_join(1)

    def test_first_relation_has_index(self):
        schema = chain_join(3, rows_per_relation=100)
        indexes = schema.catalog.table("s1").indexes.values()
        assert any(entry.column == "s1_l" for entry in indexes)


class TestStarJoin:
    def test_builds_valid_query(self):
        schema = star_join(3, fact_rows=200, dimension_rows=50)
        schema.query.validate(schema.catalog)
        assert schema.relation_names[0] == "fact"
        assert len(schema.query.joins) == 3

    def test_all_joins_touch_fact(self):
        schema = star_join(2, fact_rows=100, dimension_rows=40)
        for join in schema.query.joins:
            assert "fact" in (join.left_rel, join.right_rel)

    def test_optimizable(self):
        schema = star_join(2, fact_rows=150, dimension_rows=40)
        optimizer = TwoPhaseOptimizer(schema.catalog)
        result = optimizer.optimize(schema.query, mode=OptimizerMode.BUSHY_SEQ)
        assert result.predicted_elapsed > 0

    def test_minimum_dimensions(self):
        with pytest.raises(ConfigError):
            star_join(0)
