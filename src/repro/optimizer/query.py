"""Query specifications and the join graph.

A :class:`Query` is a select-project-join block: base relations,
equi-join predicates between pairs of them, per-relation selection
predicates and an optional final projection.  Column names must be
unique across the relations of one query (the workload generator
guarantees this), which keeps join schemas flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from ..catalog.catalog import Catalog
from ..errors import OptimizerError
from ..executor.expressions import Expression


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_rel.left_col = right_rel.right_col``."""

    left_rel: str
    left_col: str
    right_rel: str
    right_col: str

    def connects(self, a: frozenset[str], b: frozenset[str]) -> bool:
        """Does this predicate join relation sets ``a`` and ``b``?"""
        return (self.left_rel in a and self.right_rel in b) or (
            self.left_rel in b and self.right_rel in a
        )

    def oriented(self, outer: frozenset[str]) -> tuple[str, str]:
        """(outer column, inner column) given which side is the outer."""
        if self.left_rel in outer:
            return self.left_col, self.right_col
        return self.right_col, self.left_col

    def __repr__(self) -> str:
        return f"{self.left_rel}.{self.left_col} = {self.right_rel}.{self.right_col}"


@dataclass
class Query:
    """A select-project-join query block.

    Attributes:
        relations: base relation names, in no particular order.
        joins: equi-join predicates.
        selections: per-relation selection predicates (pushed down to
            the scans by the optimizer).
        projection: optional output column list.
    """

    relations: list[str]
    joins: list[JoinPredicate] = field(default_factory=list)
    selections: dict[str, Expression] = field(default_factory=dict)
    projection: tuple[str, ...] | None = None

    def validate(self, catalog: Catalog) -> None:
        """Check the query is well-formed against ``catalog``.

        Raises:
            OptimizerError: on unknown relations/columns, duplicate
                column names across relations, or join predicates that
                reference relations outside the query.
        """
        if not self.relations:
            raise OptimizerError("a query needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise OptimizerError("duplicate relation in query")
        seen: dict[str, str] = {}
        for rel in self.relations:
            schema = catalog.table(rel).schema
            for column in schema.names():
                if column in seen:
                    raise OptimizerError(
                        f"column {column!r} appears in both {seen[column]!r} "
                        f"and {rel!r}; query columns must be unique"
                    )
                seen[column] = rel
        rels = set(self.relations)
        for join in self.joins:
            if join.left_rel not in rels or join.right_rel not in rels:
                raise OptimizerError(f"join {join!r} references unknown relation")
            if seen.get(join.left_col) != join.left_rel:
                raise OptimizerError(f"{join.left_col!r} is not a column of {join.left_rel!r}")
            if seen.get(join.right_col) != join.right_rel:
                raise OptimizerError(f"{join.right_col!r} is not a column of {join.right_rel!r}")
        for rel in self.selections:
            if rel not in rels:
                raise OptimizerError(f"selection on unknown relation {rel!r}")

    def joins_between(
        self, a: Iterable[str], b: Iterable[str]
    ) -> list[JoinPredicate]:
        """All join predicates connecting relation sets ``a`` and ``b``."""
        fa, fb = frozenset(a), frozenset(b)
        return [j for j in self.joins if j.connects(fa, fb)]

    def join_index(self) -> "JoinGraph":
        """A precomputed :class:`JoinGraph` over this query.

        The DP in :func:`~repro.optimizer.enumeration.enumerate_space`
        calls :meth:`joins_between` and :meth:`is_connected` once per
        subset split, which scans ``self.joins`` every time.  The index
        answers both from per-relation adjacency plus a per-subset
        connectivity memo.  It is a snapshot: mutating the query after
        building the index is not reflected.
        """
        return JoinGraph(self)

    def is_connected(self, subset: frozenset[str]) -> bool:
        """Is the join graph restricted to ``subset`` connected?"""
        if len(subset) <= 1:
            return True
        remaining = set(subset)
        frontier = {next(iter(subset))}
        remaining -= frontier
        while frontier and remaining:
            reachable = set()
            for join in self.joins:
                if join.left_rel in frontier and join.right_rel in remaining:
                    reachable.add(join.right_rel)
                if join.right_rel in frontier and join.left_rel in remaining:
                    reachable.add(join.left_rel)
            frontier = reachable
            remaining -= reachable
        return not remaining


class JoinGraph:
    """Precomputed adjacency view of one query's join graph.

    Answers the two questions the enumeration DP hammers —
    :meth:`joins_between` and :meth:`is_connected` — without rescanning
    ``query.joins``.  Results are exactly those of the
    :class:`Query` methods: predicate lists come back in ``query.joins``
    order (the enumerator's choice of primary predicate, and therefore
    the chosen plan, must not depend on which path built the list).
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        #: relation -> set of directly joined relations.
        self.adjacency: dict[str, set[str]] = {r: set() for r in query.relations}
        #: unordered relation pair -> [(position in query.joins, predicate)].
        self._by_pair: dict[frozenset[str], list[tuple[int, JoinPredicate]]] = {}
        for position, join in enumerate(query.joins):
            self.adjacency.setdefault(join.left_rel, set()).add(join.right_rel)
            self.adjacency.setdefault(join.right_rel, set()).add(join.left_rel)
            pair = frozenset((join.left_rel, join.right_rel))
            self._by_pair.setdefault(pair, []).append((position, join))
        self._connected: dict[frozenset[str], bool] = {}

    def joins_between(
        self, a: frozenset[str], b: frozenset[str]
    ) -> list[JoinPredicate]:
        """Predicates connecting ``a`` and ``b``, in ``query.joins`` order.

        Symmetric in its arguments — which side is the outer only
        matters to :meth:`JoinPredicate.oriented` — so the DP asks once
        per 2-partition, not once per orientation.
        """
        found: list[tuple[int, JoinPredicate]] = []
        for ra in a:
            for rb in self.adjacency.get(ra, ()):
                if rb in b:
                    found.extend(self._by_pair[frozenset((ra, rb))])
        found.sort(key=itemgetter(0))  # positions are unique
        return [join for __, join in found]

    def is_connected(self, subset: frozenset[str]) -> bool:
        """Memoized connectivity of the join graph restricted to ``subset``."""
        cached = self._connected.get(subset)
        if cached is not None:
            return cached
        if len(subset) <= 1:
            result = True
        else:
            remaining = set(subset)
            start = next(iter(subset))
            frontier = {start}
            remaining.discard(start)
            while frontier and remaining:
                reachable = set()
                for rel in frontier:
                    reachable |= self.adjacency.get(rel, set()) & remaining
                frontier = reachable
                remaining -= reachable
            result = not remaining
        self._connected[subset] = result
        return result
