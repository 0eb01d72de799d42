"""Pipelined glue operators: Filter, Project, Limit, Materialize, RowSource.

``Materialize`` is the one *blocking* operator here: it drains its child
completely on open.  The plan layer marks the edge below a Materialize
as a blocking edge, which is what splits plans into fragments.
"""

from __future__ import annotations

from typing import Sequence

from ...catalog.schema import Row, Schema
from ...errors import PlanError
from ..expressions import BoundExpression, Expression
from ..iterator import Operator


class Filter(Operator):
    """Keep only rows satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        super().__init__((child,))
        self.predicate = predicate
        self._bound: BoundExpression | None = None

    def _open(self) -> None:
        self.schema = self.children[0].schema
        assert self.schema is not None
        self._bound = self.predicate.bind(self.schema)

    def _next(self) -> Row | None:
        assert self._bound is not None
        while True:
            row = self.children[0].next_row()
            if row is None:
                return None
            if self._bound(row):
                return row

    def __repr__(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(Operator):
    """Project (and reorder) columns by name, optionally renaming.

    Args:
        child: input operator.
        column_names: input column names to keep, in output order.
        output_names: optional new names (one per kept column) — SQL
            ``AS`` aliases.
    """

    def __init__(
        self,
        child: Operator,
        column_names: Sequence[str],
        *,
        output_names: Sequence[str] | None = None,
    ) -> None:
        super().__init__((child,))
        if not column_names:
            raise PlanError("projection needs at least one column")
        self.column_names = tuple(column_names)
        if output_names is not None and len(output_names) != len(column_names):
            raise PlanError("one output name per projected column required")
        self.output_names = tuple(output_names) if output_names else None
        self._positions: tuple[int, ...] = ()

    def _open(self) -> None:
        child_schema = self.children[0].schema
        assert child_schema is not None
        projected = child_schema.project(self.column_names)
        if self.output_names:
            from ...catalog.schema import Column, Schema

            projected = Schema(
                [
                    Column(new, col.type)
                    for new, col in zip(self.output_names, projected.columns)
                ]
            )
        self.schema = projected
        self._positions = tuple(
            child_schema.index_of(name) for name in self.column_names
        )

    def _next(self) -> Row | None:
        row = self.children[0].next_row()
        if row is None:
            return None
        return tuple(row[i] for i in self._positions)

    def __repr__(self) -> str:
        return f"Project({', '.join(self.column_names)})"


class Limit(Operator):
    """Stop after ``n`` rows."""

    def __init__(self, child: Operator, n: int) -> None:
        super().__init__((child,))
        if n < 0:
            raise PlanError("limit must be non-negative")
        self.n = n
        self._emitted = 0

    def _open(self) -> None:
        self.schema = self.children[0].schema
        self._emitted = 0

    def _next(self) -> Row | None:
        if self._emitted >= self.n:
            return None
        row = self.children[0].next_row()
        if row is None:
            return None
        self._emitted += 1
        return row

    def __repr__(self) -> str:
        return f"Limit({self.n})"


class Materialize(Operator):
    """Drain the child on open; replay from memory (blocking edge).

    A rewound Materialize replays its buffer without re-running the
    child, which is what makes it the cheap inner of a nest-loop join.
    """

    def __init__(self, child: Operator) -> None:
        # The child is managed manually: a buffered reopen must not
        # reopen (and so re-run) the child, so it is not registered in
        # ``children`` for the automatic lifecycle.
        super().__init__(())
        self.child = child
        self._buffer: list[Row] | None = None
        self._child_schema: Schema | None = None
        self._pos = 0

    def _open(self) -> None:
        if self._buffer is None:
            self.child.open()
            self._child_schema = self.child.schema
            self._buffer = [row for row in self.child]
            self.child.close()
        self.schema = self._child_schema
        self._pos = 0

    def _next(self) -> Row | None:
        assert self._buffer is not None
        if self._pos >= len(self._buffer):
            return None
        row = self._buffer[self._pos]
        self._pos += 1
        return row

    def __repr__(self) -> str:
        return "Materialize"


class RowSource(Operator):
    """An operator over in-memory rows (tests and intermediate results)."""

    def __init__(self, schema: Schema, rows: Sequence[Row]) -> None:
        super().__init__()
        self._schema = schema
        self._rows = [schema.validate_row(r) for r in rows]
        self._pos = 0

    def _open(self) -> None:
        self.schema = self._schema
        self._pos = 0

    def _next(self) -> Row | None:
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def __repr__(self) -> str:
        return f"RowSource({len(self._rows)} rows)"
