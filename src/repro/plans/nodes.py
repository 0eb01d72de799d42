"""Sequential plan trees.

"In XPRS, a sequential plan is represented as a binary tree of the
basic relational operations, e.g., sequential scan, index scan, nestloop
join, mergejoin and hashjoin" (Section 2.1).  These nodes are the
*compile-time* representation: the optimizer builds them, the fragmenter
cuts them at blocking edges, and :meth:`PlanNode.to_operator` lowers
them onto the executor.

Each node declares which of its child edges are **blocking**: "edges
between two operations where one operation must wait for the other to
finish producing all the tuples before it can proceed".  Blocking edges
are what decompose a plan into fragments (tasks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..catalog.catalog import Catalog
from ..catalog.schema import Schema
from ..core.ids import node_ids as _node_ids
from ..errors import PlanError
from ..executor import operators as ops
from ..executor.expressions import Expression
from ..executor.iterator import Operator


class PlanNode:
    """Base class for sequential plan nodes.

    Attributes:
        children: child plan nodes (0 for scans, 1 or 2 otherwise).
        node_id: unique id, assigned at construction (used by the
            fragmenter to name cut points).
    """

    #: Indices into ``children`` whose edges are blocking.
    BLOCKING_EDGES: tuple[int, ...] = ()

    def _init_node(self, *children: "PlanNode") -> None:
        self.children = tuple(children)
        self.node_id = _node_ids()

    def blocking_children(self) -> tuple[int, ...]:
        """Indices of children whose edges are blocking (Section 2.1)."""
        return self.BLOCKING_EDGES

    def output_schema(self, catalog: Catalog) -> Schema:
        """The schema of this node's output rows."""
        raise NotImplementedError

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        """Lower this subtree to an executor operator tree."""
        raise NotImplementedError

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        """A readable multi-line rendering of the subtree."""
        parts = ["  " * indent + self.label()]
        blocking = set(self.blocking_children())
        for i, child in enumerate(self.children):
            rendered = child.pretty(indent + 1)
            if i in blocking:
                first, *rest = rendered.split("\n")
                rendered = "\n".join([first + " [blocking]", *rest])
            parts.append(rendered)
        return "\n".join(parts)

    def label(self) -> str:
        """A one-line description used in plan renderings."""
        return type(self).__name__

    def __repr__(self) -> str:
        return self.label()


# ---------------------------------------------------------------------------
# scans


@dataclass(eq=False)
class SeqScanNode(PlanNode):
    """Sequential scan of a base relation with an optional predicate."""

    table: str
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        self._init_node()

    def output_schema(self, catalog: Catalog) -> Schema:
        return catalog.table(self.table).schema

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        heap = catalog.table(self.table).heap
        return ops.SeqScan(heap, self.predicate, charge_io=charge_io)

    def label(self) -> str:
        if self.predicate is not None:
            return f"SeqScan({self.table}, {self.predicate!r})"
        return f"SeqScan({self.table})"


@dataclass(eq=False)
class IndexScanNode(PlanNode):
    """B+tree index scan with a key range and optional residual filter."""

    table: str
    index_name: str
    low: Any = None
    high: Any = None
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        self._init_node()

    def output_schema(self, catalog: Catalog) -> Schema:
        return catalog.table(self.table).schema

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        entry = catalog.table(self.table)
        index_entry = entry.indexes.get(self.index_name)
        if index_entry is None:
            raise PlanError(
                f"no index {self.index_name!r} on table {self.table!r}"
            )
        return ops.IndexScan(
            entry.heap,
            index_entry.index,
            low=self.low,
            high=self.high,
            predicate=self.predicate,
            charge_io=charge_io,
        )

    def label(self) -> str:
        return f"IndexScan({self.table}.{self.index_name}, [{self.low!r}, {self.high!r}])"


# ---------------------------------------------------------------------------
# unary operators


@dataclass(eq=False)
class FilterNode(PlanNode):
    """Residual selection (pipelined)."""

    child: PlanNode
    predicate: Expression

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Filter(
            self.child.to_operator(catalog, charge_io=charge_io), self.predicate
        )

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass(eq=False)
class ProjectNode(PlanNode):
    """Column projection (pipelined), optionally renaming (SQL AS)."""

    child: PlanNode
    columns: tuple[str, ...]
    output_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        projected = self.child.output_schema(catalog).project(self.columns)
        if self.output_names:
            from ..catalog.schema import Column

            projected = Schema(
                [
                    Column(new, column.type)
                    for new, column in zip(self.output_names, projected.columns)
                ]
            )
        return projected

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Project(
            self.child.to_operator(catalog, charge_io=charge_io),
            self.columns,
            output_names=self.output_names,
        )

    def label(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass(eq=False)
class SortNode(PlanNode):
    """Sort — blocking on its input."""

    child: PlanNode
    columns: tuple[str, ...]
    descending: tuple[bool, ...] | None = None

    BLOCKING_EDGES = (0,)

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Sort(
            self.child.to_operator(catalog, charge_io=charge_io),
            self.columns,
            descending=self.descending,
        )

    def label(self) -> str:
        return f"Sort({', '.join(self.columns)})"


@dataclass(eq=False)
class LimitNode(PlanNode):
    """Stop after n rows (pipelined)."""

    child: PlanNode
    n: int

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Limit(self.child.to_operator(catalog, charge_io=charge_io), self.n)

    def label(self) -> str:
        return f"Limit({self.n})"


@dataclass(eq=False)
class MaterializeNode(PlanNode):
    """Materialization — blocking on its input."""

    child: PlanNode

    BLOCKING_EDGES = (0,)

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Materialize(self.child.to_operator(catalog, charge_io=charge_io))


@dataclass(eq=False)
class AggregateNode(PlanNode):
    """Aggregation — blocking on its input."""

    child: PlanNode
    aggregates: tuple[ops.AggregateSpec, ...]
    group_by: tuple[str, ...] = ()

    BLOCKING_EDGES = (0,)

    def __post_init__(self) -> None:
        self._init_node(self.child)

    def output_schema(self, catalog: Catalog) -> Schema:
        op = ops.Aggregate(
            _SchemaProbe(self.child.output_schema(catalog)),
            self.aggregates,
            group_by=self.group_by,
        )
        op.open()
        schema = op.schema
        op.close()
        assert schema is not None
        return schema

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.Aggregate(
            self.child.to_operator(catalog, charge_io=charge_io),
            self.aggregates,
            group_by=self.group_by,
        )

    def label(self) -> str:
        return f"Aggregate({', '.join(a.output_name for a in self.aggregates)})"


class _SchemaProbe(ops.RowSource):
    """An empty RowSource used only to compute derived schemas."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema, [])


# ---------------------------------------------------------------------------
# joins


@dataclass(eq=False)
class NestLoopJoinNode(PlanNode):
    """Nested loops; the inner is wrapped in Materialize when lowered
    unless it is an index scan (re-scannable cheaply).

    The materialized inner makes the inner edge blocking.
    """

    outer: PlanNode
    inner: PlanNode
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        self._init_node(self.outer, self.inner)

    def blocking_children(self) -> tuple[int, ...]:
        if isinstance(self.inner, IndexScanNode):
            return ()
        return (1,)

    def output_schema(self, catalog: Catalog) -> Schema:
        left = self.outer.output_schema(catalog)
        right = self.inner.output_schema(catalog)
        try:
            return left.concat(right)
        except Exception:
            return left.concat(right, prefixes=("l", "r"))

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        inner_op = self.inner.to_operator(catalog, charge_io=charge_io)
        if not isinstance(self.inner, IndexScanNode):
            inner_op = ops.Materialize(inner_op)
        return ops.NestLoopJoin(
            self.outer.to_operator(catalog, charge_io=charge_io),
            inner_op,
            self.predicate,
        )

    def label(self) -> str:
        return f"NestLoopJoin({self.predicate!r})"


@dataclass(eq=False)
class MergeJoinNode(PlanNode):
    """Merge join over sorted inputs (not itself blocking; any Sort
    below it carries the blocking edge)."""

    outer: PlanNode
    inner: PlanNode
    outer_column: str
    inner_column: str

    def __post_init__(self) -> None:
        self._init_node(self.outer, self.inner)

    def output_schema(self, catalog: Catalog) -> Schema:
        left = self.outer.output_schema(catalog)
        right = self.inner.output_schema(catalog)
        try:
            return left.concat(right)
        except Exception:
            return left.concat(right, prefixes=("l", "r"))

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.MergeJoin(
            self.outer.to_operator(catalog, charge_io=charge_io),
            self.inner.to_operator(catalog, charge_io=charge_io),
            self.outer_column,
            self.inner_column,
        )

    def label(self) -> str:
        return f"MergeJoin({self.outer_column} = {self.inner_column})"


@dataclass(eq=False)
class HashJoinNode(PlanNode):
    """Hash join; the build (inner) edge is blocking."""

    outer: PlanNode
    inner: PlanNode
    outer_column: str
    inner_column: str

    BLOCKING_EDGES = (1,)

    def __post_init__(self) -> None:
        self._init_node(self.outer, self.inner)

    def output_schema(self, catalog: Catalog) -> Schema:
        left = self.outer.output_schema(catalog)
        right = self.inner.output_schema(catalog)
        try:
            return left.concat(right)
        except Exception:
            return left.concat(right, prefixes=("l", "r"))

    def to_operator(self, catalog: Catalog, *, charge_io: bool = True) -> Operator:
        return ops.HashJoin(
            self.outer.to_operator(catalog, charge_io=charge_io),
            self.inner.to_operator(catalog, charge_io=charge_io),
            self.outer_column,
            self.inner_column,
        )

    def label(self) -> str:
        return f"HashJoin({self.outer_column} = {self.inner_column})"


# ---------------------------------------------------------------------------
# shape predicates (used by the optimizer and tests)


def is_left_deep(plan: PlanNode) -> bool:
    """True when no join's inner subtree itself contains a join."""
    join_types = (NestLoopJoinNode, MergeJoinNode, HashJoinNode)
    for node in plan.walk():
        if isinstance(node, join_types):
            inner = node.children[1]
            if any(isinstance(d, join_types) for d in inner.walk()):
                return False
    return True


def is_right_deep(plan: PlanNode) -> bool:
    """True when no join's *outer* subtree contains a join.

    Right-deep trees chain hash joins through their probe inputs, so
    all builds can run first and the probes pipeline — the shape
    [SCHN90] found superior given sufficient memory.
    """
    join_types = (NestLoopJoinNode, MergeJoinNode, HashJoinNode)
    for node in plan.walk():
        if isinstance(node, join_types):
            outer = node.children[0]
            if any(isinstance(d, join_types) for d in outer.walk()):
                return False
    return True


def is_bushy(plan: PlanNode) -> bool:
    """True when some join joins the results of two joins."""
    join_types = (NestLoopJoinNode, MergeJoinNode, HashJoinNode)

    def has_join(node: PlanNode) -> bool:
        return any(isinstance(d, join_types) for d in node.walk())

    for node in plan.walk():
        if isinstance(node, join_types):
            if has_join(node.children[0]) and has_join(node.children[1]):
                return True
    return False


def count_joins(plan: PlanNode) -> int:
    """Number of join nodes in the plan."""
    join_types = (NestLoopJoinNode, MergeJoinNode, HashJoinNode)
    return sum(1 for node in plan.walk() if isinstance(node, join_types))
