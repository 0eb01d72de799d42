"""Join operators: nest-loop, merge join and hash join.

Blocking behaviour (which determines plan fragments, Section 2.1):

* **NestLoopJoin** — fully pipelined on the outer; the inner is
  restarted per outer row (wrap it in Materialize unless it is cheap).
* **MergeJoin** — pipelined when its inputs arrive sorted; a Sort
  beneath it is the blocking edge, not the join itself.
* **HashJoin** — the *build* (inner) edge is blocking: the inner is
  drained into the hash table on open; the probe (outer) edge pipelines.
"""

from __future__ import annotations

from collections import defaultdict

from ...catalog.schema import Row, Schema
from ..expressions import BoundExpression, Expression
from ..iterator import Operator


def _join_schema(left: Schema, right: Schema) -> Schema:
    try:
        return left.concat(right)
    except Exception:
        return left.concat(right, prefixes=("l", "r"))


class NestLoopJoin(Operator):
    """Tuple nested-loops join with an arbitrary join predicate.

    The inner child is rewound for every outer row, so give it a
    Materialize (or an index scan) unless it is trivially small.
    A None predicate yields the cross product.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        predicate: Expression | None = None,
    ) -> None:
        super().__init__((outer, inner))
        self.predicate = predicate
        self._bound: BoundExpression | None = None
        self._outer_row: Row | None = None

    def _open(self) -> None:
        outer_schema = self.children[0].schema
        inner_schema = self.children[1].schema
        assert outer_schema is not None and inner_schema is not None
        self.schema = _join_schema(outer_schema, inner_schema)
        self._bound = (
            self.predicate.bind(self.schema) if self.predicate else None
        )
        self._outer_row = self.children[0].next_row()

    def _next(self) -> Row | None:
        while self._outer_row is not None:
            inner_row = self.children[1].next_row()
            if inner_row is None:
                self._outer_row = self.children[0].next_row()
                if self._outer_row is None:
                    return None
                self.children[1].rewind()
                continue
            joined = self._outer_row + inner_row
            if self._bound is None or self._bound(joined):
                return joined
        return None

    def __repr__(self) -> str:
        return f"NestLoopJoin({self.predicate!r})"


class MergeJoin(Operator):
    """Equi-join over inputs sorted on the join columns.

    Args:
        outer / inner: children, each sorted ascending on its join column.
        outer_column / inner_column: join column names in each child.

    Duplicate keys on both sides produce the full cross product of the
    matching groups.  NULL keys never match.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_column: str,
        inner_column: str,
    ) -> None:
        super().__init__((outer, inner))
        self.outer_column = outer_column
        self.inner_column = inner_column
        self._outer_pos = -1
        self._inner_pos = -1
        self._outer_row: Row | None = None
        self._inner_group: list[Row] = []
        self._group_index = 0
        self._pending_inner: Row | None = None

    def _open(self) -> None:
        outer_schema = self.children[0].schema
        inner_schema = self.children[1].schema
        assert outer_schema is not None and inner_schema is not None
        self.schema = _join_schema(outer_schema, inner_schema)
        self._outer_pos = outer_schema.index_of(self.outer_column)
        self._inner_pos = inner_schema.index_of(self.inner_column)
        self._outer_row = self._next_outer_nonnull()
        self._pending_inner = self._next_inner_nonnull()
        self._inner_group = []
        self._group_index = 0

    def _next_outer_nonnull(self) -> Row | None:
        while True:
            row = self.children[0].next_row()
            if row is None or row[self._outer_pos] is not None:
                return row

    def _next_inner_nonnull(self) -> Row | None:
        while True:
            row = self.children[1].next_row()
            if row is None or row[self._inner_pos] is not None:
                return row

    def _load_group(self, key) -> None:
        """Collect all inner rows equal to ``key`` into the group buffer."""
        self._inner_group = []
        while (
            self._pending_inner is not None
            and self._pending_inner[self._inner_pos] == key
        ):
            self._inner_group.append(self._pending_inner)
            self._pending_inner = self._next_inner_nonnull()
        self._group_index = 0

    def _next(self) -> Row | None:
        while self._outer_row is not None:
            key = self._outer_row[self._outer_pos]
            if self._group_index < len(self._inner_group):
                # Continue emitting the current group.
                joined = self._outer_row + self._inner_group[self._group_index]
                self._group_index += 1
                return joined
            if self._inner_group and self._group_index >= len(self._inner_group):
                # Group exhausted for this outer row; advance the outer.
                next_outer = self._next_outer_nonnull()
                if (
                    next_outer is not None
                    and next_outer[self._outer_pos] == key
                ):
                    # Same key: replay the group.
                    self._outer_row = next_outer
                    self._group_index = 0
                    continue
                self._outer_row = next_outer
                self._inner_group = []
                continue
            # No group loaded yet: advance the inner to the outer's key.
            while (
                self._pending_inner is not None
                and self._pending_inner[self._inner_pos] < key
            ):
                self._pending_inner = self._next_inner_nonnull()
            if (
                self._pending_inner is not None
                and self._pending_inner[self._inner_pos] == key
            ):
                self._load_group(key)
                continue
            # No inner match; advance the outer.
            self._outer_row = self._next_outer_nonnull()
            self._inner_group = []
        return None

    def __repr__(self) -> str:
        return f"MergeJoin({self.outer_column} = {self.inner_column})"


class HashJoin(Operator):
    """Classic hash join; builds on the inner, probes with the outer.

    The build edge is the blocking edge ("one operation must wait for
    the other to finish producing all the tuples").  NULL keys never
    match.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_column: str,
        inner_column: str,
    ) -> None:
        super().__init__((outer, inner))
        self.outer_column = outer_column
        self.inner_column = inner_column
        self._table: dict | None = None
        self._outer_pos = -1
        self._current_matches: list[Row] = []
        self._match_index = 0
        self._outer_row: Row | None = None

    def _open(self) -> None:
        outer_schema = self.children[0].schema
        inner_schema = self.children[1].schema
        assert outer_schema is not None and inner_schema is not None
        self.schema = _join_schema(outer_schema, inner_schema)
        self._outer_pos = outer_schema.index_of(self.outer_column)
        inner_pos = inner_schema.index_of(self.inner_column)
        # Build phase: drain the inner completely.
        table: dict = defaultdict(list)
        for row in self.children[1]:
            key = row[inner_pos]
            if key is not None:
                table[key].append(row)
        self._table = dict(table)
        self._current_matches = []
        self._match_index = 0
        self._outer_row = None

    def _next(self) -> Row | None:
        assert self._table is not None
        while True:
            if self._match_index < len(self._current_matches):
                assert self._outer_row is not None
                joined = self._outer_row + self._current_matches[self._match_index]
                self._match_index += 1
                return joined
            self._outer_row = self.children[0].next_row()
            if self._outer_row is None:
                return None
            key = self._outer_row[self._outer_pos]
            self._current_matches = (
                self._table.get(key, []) if key is not None else []
            )
            self._match_index = 0

    def _close(self) -> None:
        self._table = None

    def __repr__(self) -> str:
        return f"HashJoin({self.outer_column} = {self.inner_column})"
