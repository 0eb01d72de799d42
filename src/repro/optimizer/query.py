"""Query specifications.

A :class:`Query` is a select-project-join block: base relations,
equi-join predicates between pairs of them, per-relation selection
predicates and an optional final projection.  Column names must be
unique across the relations of one query (the workload generator
guarantees this), which keeps join schemas flat.  The join graph the
enumerator searches is indexed over bitmasks next to it, in
:mod:`repro.optimizer.enumeration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
