"""Tests for Query validation and the enumerator's join-graph index."""

import pytest

from repro.errors import OptimizerError
from repro.executor import between
from repro.optimizer import JoinPredicate, Query
from repro.optimizer.enumeration import _JoinIndex


class TestValidation:
    def test_valid_query(self, catalog, chain_query):
        chain_query.validate(catalog)  # no raise

    def test_empty_rejected(self, catalog):
        with pytest.raises(OptimizerError):
            Query(relations=[]).validate(catalog)

    def test_duplicate_relation_rejected(self, catalog):
        with pytest.raises(OptimizerError):
            Query(relations=["r1", "r1"]).validate(catalog)

    def test_join_on_foreign_relation_rejected(self, catalog):
        q = Query(
            relations=["r1", "r2"],
            joins=[JoinPredicate("r1", "b1", "r9", "x")],
        )
        with pytest.raises(OptimizerError):
            q.validate(catalog)

    def test_join_on_wrong_column_rejected(self, catalog):
        q = Query(
            relations=["r1", "r2"],
            joins=[JoinPredicate("r1", "c2", "r2", "b2")],  # c2 is r2's
        )
        with pytest.raises(OptimizerError):
            q.validate(catalog)

    def test_selection_on_foreign_relation_rejected(self, catalog):
        q = Query(relations=["r1"], selections={"r2": between("b2", 0, 1)})
        with pytest.raises(OptimizerError):
            q.validate(catalog)


class TestJoinGraph:
    """The enumerator's bitmask index over the chain r1 - r2 - r3."""

    @staticmethod
    def _index(query):
        index = _JoinIndex(query)
        return index, lambda *rels: sum(index.bits[r] for r in rels)

    def test_joins_between(self, chain_query):
        index, mask = self._index(chain_query)
        found = index.between(mask("r1"), mask("r2"))
        assert len(found) == 1
        assert found[0].left_col == "b1"
        assert index.between(mask("r1"), mask("r3")) == []
        assert len(index.between(mask("r1", "r2"), mask("r3"))) == 1

    def test_connectivity(self, chain_query):
        index, mask = self._index(chain_query)
        assert index.connected(mask("r1", "r2", "r3"))
        assert index.connected(mask("r1", "r2"))
        assert not index.connected(mask("r1", "r3"))
        assert index.connected(mask("r1"))

    def test_oriented(self):
        join = JoinPredicate("r1", "b1", "r2", "b2")
        assert join.oriented(frozenset(["r1"])) == ("b1", "b2")
        assert join.oriented(frozenset(["r2"])) == ("b2", "b1")

    def test_connects(self):
        """A predicate joins its two relations whichever side is named first."""
        query = Query(relations=["r1", "r2", "r3"], joins=[JoinPredicate("r1", "b1", "r2", "b2")])
        index, mask = self._index(query)
        (join,) = query.joins
        assert index.between(mask("r1"), mask("r2")) == [join]
        assert index.between(mask("r2"), mask("r1")) == [join]
        assert index.between(mask("r1"), mask("r3")) == []
