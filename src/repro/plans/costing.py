"""Sequential cost estimation for plan trees.

"Using the cost estimation methods in conventional query optimization,
we can estimate the sequential execution time of each task i, T_i.  We
can also estimate the number of i/o's of each task i, D_i.  Thus, we can
estimate the i/o rate of each task i as C_i = D_i / T_i" (Section 4).

This module is that conventional layer.  :func:`estimate_plan` walks a
plan tree and produces, per node, its output cardinality, the io
requests it issues itself, the io access pattern and its CPU time.  The
fragmenter aggregates those into per-task ``(T_i, D_i, C_i)`` profiles;
``seqcost`` sums them into the classic scalar plan cost.

The CPU constants default to values backsolved from the paper's
measurements (r_min sequential scans run at ~5 ios/second, r_max at
~70 ios/second on disks with a 97 ios/second sequential rate); the
calibration bench re-derives them against the real executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from weakref import ref

from ..catalog.catalog import Catalog
from ..catalog.statistics import ColumnStats, RelationStats
from ..config import MachineConfig, paper_machine
from ..errors import OptimizerError
from ..executor.expressions import (
    Expression,
    column_bounds,
    conjuncts,
    equality_columns,
)
from . import nodes as pn

#: IO access patterns a plan node can exhibit.
SEQUENTIAL = "sequential"
RANDOM = "random"


@dataclass(frozen=True)
class CostModel:
    """CPU-time constants (seconds) for the sequential cost model."""

    cpu_page_time: float = 0.004
    cpu_tuple_time: float = 0.0003
    cpu_index_probe_time: float = 0.0001
    cpu_hash_build_time: float = 0.0002
    cpu_hash_probe_time: float = 0.0001
    cpu_compare_time: float = 0.00005
    cpu_output_time: float = 0.00005


@dataclass(slots=True)
class NodeEstimate:
    """Estimated behaviour of one plan node (excluding its children).

    Attributes:
        rows: output cardinality.
        ios: io requests issued by this node itself.
        io_pattern: SEQUENTIAL, RANDOM or None (no io).
        cpu_time: CPU seconds spent by this node itself.
        memory_bytes: working memory this node pins while running
            (hash table, sort buffer, materialization buffer).
        avg_row_bytes: estimated width of one output row.
        column_stats: propagated per-column statistics of the output.
    """

    rows: float
    ios: float = 0.0
    io_pattern: str | None = None
    cpu_time: float = 0.0
    memory_bytes: float = 0.0
    avg_row_bytes: float = 0.0
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)


@dataclass
class PlanEstimate:
    """Estimates for every node of one plan, and a weak ``memo`` reference to
    the :class:`EstimateMemo` they came from (whose clear outdates them)."""

    plan: pn.PlanNode
    by_node: dict[int, NodeEstimate]
    machine: MachineConfig
    memo: "ref[EstimateMemo] | None" = field(default=None, compare=False, repr=False)

    def node(self, node: pn.PlanNode) -> NodeEstimate:
        """The estimate of one plan node."""
        return self.by_node[node.node_id]

    @property
    def output_rows(self) -> float:
        return self.by_node[self.plan.node_id].rows

    # -- aggregate costs ---------------------------------------------------------

    def io_time(self, estimate: NodeEstimate) -> float:
        """Sequential-execution io time of one node's requests."""
        if not estimate.ios:
            return 0.0
        disk = self.machine.disk
        if estimate.io_pattern == SEQUENTIAL:
            return estimate.ios / disk.seq_ios_per_sec
        return estimate.ios / disk.random_ios_per_sec

    def total_ios(self) -> float:
        """Total io requests across the plan."""
        return sum(e.ios for e in self.by_node.values())

    def total_cpu_time(self) -> float:
        """Total CPU seconds across the plan."""
        return sum(e.cpu_time for e in self.by_node.values())

    def total_io_time(self) -> float:
        """Total sequential-execution io seconds across the plan."""
        return sum(self.io_time(e) for e in self.by_node.values())

    def total_memory(self) -> float:
        """Working memory the whole plan would pin if run as one task."""
        return sum(e.memory_bytes for e in self.by_node.values())

    def seqcost(self) -> float:
        """Estimated sequential elapsed time of the whole plan (seconds).

        Sequential execution interleaves io and cpu in one process, so
        the two components add.  One pass over the nodes, but the same
        two left-to-right sums as ``total_cpu_time() + total_io_time()``
        bit for bit (a node without io adds 0.0 there, nothing here):
        the search compares these floats exactly, so the order of the
        additions is part of the contract.
        """
        disk = self.machine.disk
        cpu = io = 0.0
        for estimate in self.by_node.values():
            cpu += estimate.cpu_time
            if estimate.ios:
                if estimate.io_pattern == SEQUENTIAL:
                    io += estimate.ios / disk.seq_ios_per_sec
                else:
                    io += estimate.ios / disk.random_ios_per_sec
        return cpu + io


#: The cost model ``estimate_plan`` uses when handed none (frozen, shared).
_DEFAULT_COSTS = CostModel()


class Subtree:
    """What the memo keeps for a node reused as a whole subtree.

    Attributes:
        by_node: the subtree's estimates in preorder — what a cache hit
            on its root copies into a :class:`PlanEstimate`.
        fragments: its :class:`~repro.plans.fragments.FragmentSummary`,
            filled in by the fragmenter on first use.
        sums: its ``(seqcost, total_ios)``, folded once by
            :func:`subtree_sums` — what a join over it is bounded from.
    """

    __slots__ = ("by_node", "fragments", "sums")

    def __init__(self, by_node: dict[int, NodeEstimate]) -> None:
        self.by_node = by_node
        self.fragments = None
        self.sums: tuple[float, float] | None = None


class EstimateMemo(dict):
    """``estimate_plan``'s ``cache`` with a subtree memo beside it.

    The dict itself maps ``node_id`` to :class:`NodeEstimate`.
    ``subtrees`` holds a :class:`Subtree` for every memoized node that
    has been met again as the root of a cached subplan; its keys are
    always a subset of the dict's, because the two are only ever
    dropped together (:meth:`forget`, :meth:`clear`).
    """

    __slots__ = ("subtrees", "__weakref__")

    def __init__(self) -> None:
        super().__init__()
        self.subtrees: dict[int, Subtree] = {}

    def forget(self, node_ids) -> None:
        """Drop these nodes' estimates and the subtrees shadowing them."""
        for node_id in node_ids:
            del self[node_id]
            self.subtrees.pop(node_id, None)

    def clear(self) -> None:
        super().clear()
        self.subtrees.clear()


# -- node-free cost rules --------------------------------------------------------
#
# What a join, sort or filter costs, from its inputs' estimates alone.
# The estimator's ``_visit_*`` methods and the search's pre-bound
# (:func:`repro.optimizer.enumeration.join_costs`) both call these, so a
# candidate join is priced before any node of it exists.


def equijoin_rows(outer: NodeEstimate, inner: NodeEstimate, outer_col: str, inner_col: str) -> float:
    """Output cardinality of the equi-join ``outer_col = inner_col``."""
    left = outer.column_stats.get(outer_col)
    right = inner.column_stats.get(inner_col)
    distinct = max(left.n_distinct if left else 1, right.n_distinct if right else 1, 1)
    return outer.rows * inner.rows / distinct


def filter_cpu(rows: float, cost: CostModel) -> float:
    """CPU seconds of a filter over ``rows`` input rows."""
    return rows * cost.cpu_tuple_time


def sort_cpu(rows: float, cost: CostModel) -> float:
    """CPU seconds of sorting ``rows`` rows."""
    n = max(rows, 1.0)
    return n * log2(n + 1) * cost.cpu_compare_time


def nest_loop_cpu(outer: float, inner: float, rows_out: float, cost: CostModel) -> float:
    """CPU seconds of nested loops over ``outer`` x ``inner`` rows."""
    return outer * inner * cost.cpu_tuple_time + rows_out * cost.cpu_output_time


def merge_join_cpu(outer: float, inner: float, rows_out: float, cost: CostModel) -> float:
    """CPU seconds of merging sorted inputs of ``outer`` and ``inner`` rows."""
    return (outer + inner) * cost.cpu_compare_time + rows_out * cost.cpu_output_time


def hash_join_cpu(outer: float, inner: float, rows_out: float, cost: CostModel) -> float:
    """CPU seconds of building on ``inner`` rows and probing with ``outer``."""
    return (
        inner * cost.cpu_hash_build_time
        + outer * cost.cpu_hash_probe_time
        + rows_out * cost.cpu_output_time
    )


def subtree_sums(
    plan: pn.PlanNode,
    catalog: Catalog,
    *,
    cost_model: CostModel | None,
    machine: MachineConfig,
    cache: EstimateMemo,
) -> tuple[NodeEstimate, float, float]:
    """``plan``'s root estimate, ``seqcost()`` and ``total_ios()`` through ``cache``.

    The two folds run once per memoized subtree and stay on its
    :class:`Subtree` entry: a settled DP cell hands them to every join
    the search considers over it.
    """
    entry = cache.subtrees.get(plan.node_id)
    if entry is None or entry.sums is None:
        estimator = _Estimator(catalog, cost_model or _DEFAULT_COSTS, machine, cache)
        estimator.visit(plan)
        entry = estimator.subtree(plan)
        estimate = PlanEstimate(plan, entry.by_node, machine)
        entry.sums = (estimate.seqcost(), estimate.total_ios())
    return (cache[plan.node_id], *entry.sums)


def estimate_plan(
    plan: pn.PlanNode,
    catalog: Catalog,
    *,
    cost_model: CostModel | None = None,
    machine: MachineConfig | None = None,
    cache: dict[int, NodeEstimate] | None = None,
) -> PlanEstimate:
    """Estimate every node of ``plan`` bottom-up.

    Args:
        cache: optional per-node memo keyed by ``node_id``.  The DP
            search reuses subplan *objects* across thousands of
            candidate joins, so with a shared cache only the nodes a
            candidate adds on top are estimated; already-seen subtrees
            are copied out of the memo (one ``dict.update`` each from
            an :class:`EstimateMemo`).  The caller owns the cache and
            must not reuse it across different catalogs, cost models or
            machines (node ids are process-unique, so distinct plans
            never collide, but stale statistics would go unnoticed).
    """
    estimator = _Estimator(
        catalog,
        cost_model or _DEFAULT_COSTS,
        machine or paper_machine(),
        {} if cache is None else cache,
    )
    estimator.visit(plan)
    memo = ref(cache) if isinstance(cache, EstimateMemo) else None
    return PlanEstimate(plan, estimator.out, estimator.machine, memo)


class _Estimator:
    """Bottom-up estimation visitor filling ``out`` through ``cache``."""

    def __init__(
        self,
        catalog: Catalog,
        cost: CostModel,
        machine: MachineConfig,
        cache: dict[int, NodeEstimate],
    ) -> None:
        self.catalog = catalog
        self.cost = cost
        self.machine = machine
        self.cache = cache
        # A plain-dict cache gets a subtree memo that lasts this call.
        self.subtrees: dict[int, Subtree] = getattr(cache, "subtrees", {})
        self.out: dict[int, NodeEstimate] = {}

    def visit(self, node: pn.PlanNode) -> NodeEstimate:
        node_id = node.node_id
        hit = self.cache.get(node_id)
        if hit is not None:
            # A cached root implies every descendant was cached by the
            # same bottom-up pass; copy the whole subtree out so the
            # PlanEstimate covers exactly this plan's nodes.
            self.out.update(self.subtree(node).by_node)
            return hit
        child_estimates = [self.visit(c) for c in node.children]
        method = getattr(self, f"_visit_{type(node).__name__}", None)
        if method is None:
            raise OptimizerError(f"no cost rule for {type(node).__name__}")
        estimate = self.out[node_id] = self.cache[node_id] = method(node, child_estimates)
        return estimate

    def subtree(self, node: pn.PlanNode) -> Subtree:
        """A cached node's memoized subtree, composed on first use.

        Preorder — the node, then each child's subtree, as
        ``node.walk()`` — because ``seqcost()`` sums over it.
        """
        entry = self.subtrees.get(node.node_id)
        if entry is None:
            by_node = {node.node_id: self.cache[node.node_id]}
            for child in node.children:
                by_node.update(self.subtree(child).by_node)
            entry = self.subtrees[node.node_id] = Subtree(by_node)
        return entry

    # -- base stats helpers --------------------------------------------------------

    def _relation_stats(self, table: str) -> RelationStats:
        stats = self.catalog.table(table).stats
        if stats is None:
            raise OptimizerError(f"relation {table!r} has no statistics (run ANALYZE)")
        return stats

    def _predicate_selectivity(
        self, predicate: Expression | None, column_stats: dict[str, ColumnStats]
    ) -> float:
        """Combined selectivity of all conjuncts under independence."""
        if predicate is None:
            return 1.0
        selectivity = 1.0
        for conj in conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conj, column_stats)
        return max(0.0, min(1.0, selectivity))

    def _conjunct_selectivity(
        self, conj: Expression, column_stats: dict[str, ColumnStats]
    ) -> float:
        columns = conj.columns()
        if len(columns) == 1:
            (name,) = columns
            stats = column_stats.get(name)
            if stats is None:
                return 1.0 / 3.0
            low, high = column_bounds(conj, name)
            if low is not None and low == high:
                return stats.selectivity_eq(low)
            if low is not None or high is not None:
                return stats.selectivity_range(low, high)
            return 1.0 / 3.0  # e.g. != literal or opaque shapes
        pair = equality_columns(conj)
        if pair is not None:
            left = column_stats.get(pair[0])
            right = column_stats.get(pair[1])
            distinct = max(
                left.n_distinct if left else 1, right.n_distinct if right else 1, 1
            )
            return 1.0 / distinct
        return 1.0 / 3.0

    @staticmethod
    def _scale_stats(
        column_stats: dict[str, ColumnStats], rows: float
    ) -> dict[str, ColumnStats]:
        """Clamp distinct counts to the (reduced) row count."""
        cap = max(1, int(rows))
        return {
            name: s
            if s.n_distinct <= cap
            else ColumnStats(
                n_distinct=cap,
                min_value=s.min_value,
                max_value=s.max_value,
                null_fraction=s.null_fraction,
                histogram=s.histogram,
            )
            for name, s in column_stats.items()
        }

    # -- scans -----------------------------------------------------------------------

    def _visit_SeqScanNode(self, node: pn.SeqScanNode, _children) -> NodeEstimate:
        stats = self._relation_stats(node.table)
        selectivity = self._predicate_selectivity(node.predicate, stats.columns)
        rows_out = stats.row_count * selectivity
        cpu = (
            stats.page_count * self.cost.cpu_page_time
            + stats.row_count * self.cost.cpu_tuple_time
        )
        return NodeEstimate(
            rows=rows_out,
            ios=float(stats.page_count),
            io_pattern=SEQUENTIAL,
            cpu_time=cpu,
            avg_row_bytes=stats.avg_row_size,
            column_stats=self._scale_stats(stats.columns, rows_out),
        )

    def _visit_IndexScanNode(self, node: pn.IndexScanNode, _children) -> NodeEstimate:
        stats = self._relation_stats(node.table)
        entry = self.catalog.table(node.table).indexes.get(node.index_name)
        if entry is None:
            raise OptimizerError(
                f"no index {node.index_name!r} on table {node.table!r}"
            )
        column = entry.column
        col_stats = stats.columns.get(column)
        if col_stats is None:
            range_sel = 1.0 / 3.0
        elif node.low is not None and node.low == node.high:
            range_sel = col_stats.selectivity_eq(node.low)
        else:
            range_sel = col_stats.selectivity_range(node.low, node.high)
        matches = stats.row_count * range_sel
        residual = self._predicate_selectivity(node.predicate, stats.columns)
        rows_out = matches * residual
        # One heap page io per match; on a clustered index the reads are
        # ordered with the heap, so they are (almost) sequential.
        pattern = SEQUENTIAL if entry.clustered else RANDOM
        cpu = matches * (
            self.cost.cpu_index_probe_time + self.cost.cpu_tuple_time
        )
        return NodeEstimate(
            rows=rows_out,
            ios=matches,
            io_pattern=pattern,
            cpu_time=cpu,
            avg_row_bytes=stats.avg_row_size,
            column_stats=self._scale_stats(stats.columns, rows_out),
        )

    # -- unary -----------------------------------------------------------------------

    def _visit_FilterNode(self, node: pn.FilterNode, children) -> NodeEstimate:
        (child,) = children
        selectivity = self._predicate_selectivity(node.predicate, child.column_stats)
        rows_out = child.rows * selectivity
        return NodeEstimate(
            rows=rows_out,
            cpu_time=filter_cpu(child.rows, self.cost),
            avg_row_bytes=child.avg_row_bytes,
            column_stats=self._scale_stats(child.column_stats, rows_out),
        )

    def _visit_ProjectNode(self, node: pn.ProjectNode, children) -> NodeEstimate:
        (child,) = children
        kept = {
            name: s for name, s in child.column_stats.items() if name in node.columns
        }
        # Projection narrows rows roughly in proportion to the number
        # of columns kept.
        total_columns = max(len(child.column_stats), len(node.columns), 1)
        width = child.avg_row_bytes * len(node.columns) / total_columns
        return NodeEstimate(
            rows=child.rows,
            cpu_time=child.rows * self.cost.cpu_output_time,
            avg_row_bytes=width,
            column_stats=kept,
        )

    def _visit_LimitNode(self, node: pn.LimitNode, children) -> NodeEstimate:
        (child,) = children
        rows_out = min(float(node.n), child.rows)
        return NodeEstimate(
            rows=rows_out,
            cpu_time=rows_out * self.cost.cpu_output_time,
            avg_row_bytes=child.avg_row_bytes,
            column_stats=self._scale_stats(child.column_stats, rows_out),
        )

    def _visit_SortNode(self, node: pn.SortNode, children) -> NodeEstimate:
        (child,) = children
        return NodeEstimate(
            rows=child.rows,
            cpu_time=sort_cpu(child.rows, self.cost),
            memory_bytes=child.rows * child.avg_row_bytes,
            avg_row_bytes=child.avg_row_bytes,
            column_stats=dict(child.column_stats),
        )

    def _visit_MaterializeNode(self, node: pn.MaterializeNode, children) -> NodeEstimate:
        (child,) = children
        return NodeEstimate(
            rows=child.rows,
            cpu_time=child.rows * self.cost.cpu_output_time,
            memory_bytes=child.rows * child.avg_row_bytes,
            avg_row_bytes=child.avg_row_bytes,
            column_stats=dict(child.column_stats),
        )

    def _visit_AggregateNode(self, node: pn.AggregateNode, children) -> NodeEstimate:
        (child,) = children
        if node.group_by:
            groups = 1.0
            for name in node.group_by:
                stats = child.column_stats.get(name)
                groups *= stats.n_distinct if stats else 10
            rows_out = min(groups, child.rows)
        else:
            rows_out = 1.0
        return NodeEstimate(
            rows=rows_out,
            cpu_time=child.rows * self.cost.cpu_tuple_time,
            memory_bytes=rows_out * 32.0,  # accumulator per group
            avg_row_bytes=32.0,
            column_stats={},
        )

    # -- joins -----------------------------------------------------------------------

    def _join(self, outer, inner, rows_out: float, cpu: float, *, holds_inner: bool) -> NodeEstimate:
        """A join's estimate, given its cardinality and its CPU rule's answer."""
        merged = dict(outer.column_stats)
        for name, stats in inner.column_stats.items():
            merged.setdefault(name, stats)
        return NodeEstimate(
            rows=rows_out,
            cpu_time=cpu,
            memory_bytes=inner.rows * inner.avg_row_bytes if holds_inner else 0.0,
            avg_row_bytes=outer.avg_row_bytes + inner.avg_row_bytes,
            column_stats=self._scale_stats(merged, rows_out),
        )

    def _visit_NestLoopJoinNode(self, node: pn.NestLoopJoinNode, children) -> NodeEstimate:
        outer, inner = children
        if node.predicate is None:
            rows_out = outer.rows * inner.rows
        else:
            merged = dict(outer.column_stats)
            merged.update(inner.column_stats)
            selectivity = self._predicate_selectivity(node.predicate, merged)
            rows_out = outer.rows * inner.rows * selectivity
        cpu = nest_loop_cpu(outer.rows, inner.rows, rows_out, self.cost)
        # The lowered nest-loop materializes its inner.
        return self._join(outer, inner, rows_out, cpu, holds_inner=True)

    def _visit_MergeJoinNode(self, node: pn.MergeJoinNode, children) -> NodeEstimate:
        outer, inner = children
        rows_out = equijoin_rows(outer, inner, node.outer_column, node.inner_column)
        cpu = merge_join_cpu(outer.rows, inner.rows, rows_out, self.cost)
        return self._join(outer, inner, rows_out, cpu, holds_inner=False)

    def _visit_HashJoinNode(self, node: pn.HashJoinNode, children) -> NodeEstimate:
        outer, inner = children
        rows_out = equijoin_rows(outer, inner, node.outer_column, node.inner_column)
        cpu = hash_join_cpu(outer.rows, inner.rows, rows_out, self.cost)
        # The hash table holds the whole build (inner) side.
        return self._join(outer, inner, rows_out, cpu, holds_inner=True)


def analyze_table(catalog: Catalog, name: str) -> RelationStats:
    """Scan a relation and (re)compute its statistics — ANALYZE.

    Returns the stats after storing them in the catalog.
    """
    from ..catalog.statistics import build_relation_stats

    entry = catalog.table(name)
    heap = entry.heap
    stats = build_relation_stats(
        (row for __, row in heap.scan()),
        entry.schema.names(),
        page_count=heap.page_count,
        avg_row_size=heap.avg_row_size(),
    )
    catalog.set_stats(name, stats)
    return stats
