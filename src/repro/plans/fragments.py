"""Plan fragmentation: cutting plans into schedulable tasks.

"First, the sequential plans are decomposed into plan fragments, i.e., a
group of operations that do not contain any blocking edges. ... In other
words plan fragments are the maximum pipelineable subgraphs of a
sequential plan.  Plan fragments are used as the units of parallel
execution and are also called tasks" (Section 2.1).

:func:`fragment_plan` walks a plan tree, cuts it at blocking edges and
returns a :class:`FragmentGraph` — fragments plus the precedence
dependencies induced by the blocking edges.  With a
:class:`~repro.plans.costing.PlanEstimate` attached, each fragment
carries the ``(T_i, D_i, C_i)`` profile the scheduler consumes, and
:meth:`FragmentGraph.to_tasks` turns them into named, arrival-stamped,
wired tasks.

The cut itself lives in one function, :func:`_cut`, which composes a
subtree's :class:`FragmentSummary` from its children's.
:func:`fragment_plan` materializes a summary into fragments, cutting
through the subtree memo its ``PlanEstimate`` was made with (the
optimizer's, so a repeated plan is one lookup);
:func:`plan_signature` reads the scheduling signature straight off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.ids import task_ids as _task_ids
from ..core.task import IOPattern, Task
from ..errors import PlanError
from .costing import PlanEstimate, RANDOM, SEQUENTIAL, Subtree
from .nodes import PlanNode


@dataclass
class Fragment:
    """A maximal pipelineable subgraph of a plan.

    Attributes:
        fragment_id: index within its FragmentGraph.
        root: the topmost plan node of the fragment (the one whose
            output crosses a blocking edge or is the plan's result).
        nodes: every plan node in the fragment.
        depends_on: fragment ids that must complete before this one can
            start (the child sides of this fragment's blocking edges).
    """

    fragment_id: int
    root: PlanNode
    nodes: list[PlanNode] = field(default_factory=list)
    depends_on: set[int] = field(default_factory=set)
    # Filled in by profile():
    seq_time: float = 0.0
    io_count: float = 0.0
    io_pattern: IOPattern = IOPattern.SEQUENTIAL
    memory_bytes: float = 0.0

    @property
    def io_rate(self) -> float:
        return self.io_count / self.seq_time if self.seq_time > 0 else 0.0

    def to_task(self, *, name: str | None = None) -> Task:
        """The scheduler-level task for this fragment."""
        if self.seq_time <= 0:
            raise PlanError(
                f"fragment {self.fragment_id} has no cost profile; "
                "fragment the plan with a PlanEstimate"
            )
        return Task(
            name=name or f"frag{self.fragment_id}({self.root.label()})",
            seq_time=self.seq_time,
            io_count=self.io_count,
            io_pattern=self.io_pattern,
            memory_bytes=self.memory_bytes,
            payload=self,
        )

    def __repr__(self) -> str:
        return (
            f"Fragment({self.fragment_id}, root={self.root.label()}, "
            f"{len(self.nodes)} nodes, deps={sorted(self.depends_on)})"
        )


@dataclass
class FragmentGraph:
    """The fragments of one plan plus their precedence DAG."""

    plan: PlanNode
    fragments: list[Fragment]

    def __len__(self) -> int:
        return len(self.fragments)

    @property
    def root_fragment(self) -> Fragment:
        """The fragment containing the plan root (always fragment 0)."""
        return self.fragments[0]

    def fragment_of(self, node: PlanNode) -> Fragment:
        """The fragment containing ``node``."""
        for fragment in self.fragments:
            if any(n.node_id == node.node_id for n in fragment.nodes):
                return fragment
        raise PlanError(f"node {node!r} not in any fragment")

    def ready(self, completed: set[int]) -> list[Fragment]:
        """Fragments whose dependencies are all in ``completed``."""
        return [
            f
            for f in self.fragments
            if f.fragment_id not in completed and f.depends_on <= completed
        ]

    def topological_order(self) -> list[Fragment]:
        """Dependencies-first ordering (raises on cycles, which cannot
        occur for tree plans but is checked anyway)."""
        order: list[Fragment] = []
        completed: set[int] = set()
        remaining = {f.fragment_id for f in self.fragments}
        while remaining:
            batch = [f for f in self.ready(completed) if f.fragment_id in remaining]
            if not batch:
                raise PlanError("fragment dependency cycle")
            for fragment in batch:
                order.append(fragment)
                completed.add(fragment.fragment_id)
                remaining.discard(fragment.fragment_id)
        return order

    def signature(self) -> tuple:
        """Canonical scheduling signature of this fragment set.

        The tuple captures everything the scheduling simulation can
        observe about the fragments — each fragment's ``(T, D, pattern,
        memory)`` profile plus the dependency shape, each dependency
        counted from the fragment's own index so that a subplan's rows
        read the same wherever it sits in a larger plan — and nothing
        else (no node ids, no task ids, no plan object
        identity).  Fragment ids are assigned by a deterministic
        tree traversal, so two structurally equivalent plans produce
        equal signatures, which is what lets ``parcost`` share one
        simulation across equivalent subplans (the optimizer fast
        path).  Fragments must be profiled (built with a PlanEstimate).
        """
        for fragment in self.fragments:
            if fragment.seq_time <= 0:
                raise PlanError(
                    f"fragment {fragment.fragment_id} has no cost profile; "
                    "signatures need a PlanEstimate-backed fragmentation"
                )
        return tuple(
            (
                f.seq_time,
                f.io_count,
                f.io_pattern.value,
                f.memory_bytes,
                tuple(sorted(d - f.fragment_id for d in f.depends_on)),
            )
            for f in self.fragments
        )

    def to_tasks(self, name: str | None = None, arrival_time: float = 0.0) -> list[Task]:
        """Scheduler tasks for every fragment, wired with the
        order-dependencies induced by the blocking edges.

        The one place a plan's fragments become tasks: with ``name``
        they are named ``{name}/frag{i}`` (a query in a pool of
        queries), and every task arrives at ``arrival_time``.
        """
        return signature_tasks(
            self.signature(), self.fragments, name=name, arrival_time=arrival_time
        )


class FragmentSummary(NamedTuple):
    """How a subtree fragments, in a form its parent can extend.

    The subtree's root sits in a fragment that is still *open* — the
    parent may pipeline into it; everything under a blocking edge is
    *closed* and final.  Locally the open fragment is number 0 and
    ``closed[j]`` is number ``j + 1``; dependencies are counted from
    the dependent fragment's own number, so composing summaries is
    concatenation.  Every float sum keeps the order
    :func:`fragment_plan` always used — an open fragment is re-summed
    left to right over its items, a closed one keeps the profile it was
    closed with — because the search compares the costs exactly.

    Attributes:
        open: the open fragment's nodes in pipeline (pre-)order, each
            as ``(node, cpu, io_time, ios, memory, io_pattern)``.
        waits: the open fragment's dependencies.
        closed: one signature row per closed fragment, in id order.
        closed_items: per closed fragment, the ``open`` it had.
    """

    open: tuple
    waits: tuple[int, ...]
    closed: tuple
    closed_items: tuple


def _cut(
    node: PlanNode, estimate: PlanEstimate | None, subtrees: dict[int, Subtree]
) -> FragmentSummary:
    """Summarize ``node``'s subtree — the one place a plan is cut.

    A blocking child edge closes the child's open fragment; any other
    edge pipelines the child into this node's.  ``subtrees`` is the
    estimator's subtree memo: a node it holds keeps its summary there,
    so only nodes above memoized subplans are ever visited.
    """
    entry = subtrees.get(node.node_id)
    if entry is not None and entry.fragments is not None:
        return entry.fragments
    if estimate is None:
        item = (node, 0.0, 0.0, 0.0, 0.0, None)
    else:
        e = estimate.by_node[node.node_id]
        item = (node, e.cpu_time, estimate.io_time(e), e.ios, e.memory_bytes, e.io_pattern)
    open_: tuple = (item,)
    waits: tuple[int, ...] = ()
    closed: tuple = ()
    closed_items: tuple = ()
    blocking = node.blocking_children()
    for i, child in enumerate(node.children):
        below = _cut(child, estimate, subtrees)
        shift = len(closed)
        if i in blocking:
            waits += (shift + 1,)
            closed += ((*_profile(below.open), below.waits), *below.closed)
            closed_items += (below.open, *below.closed_items)
        else:
            open_ += below.open
            waits += tuple([shift + d for d in below.waits]) if shift else below.waits
            closed += below.closed
            closed_items += below.closed_items
    summary = FragmentSummary(open_, waits, closed, closed_items)
    if entry is not None:
        entry.fragments = summary
    return summary


def _profile(items: tuple) -> tuple[float, float, str, float]:
    """One fragment's ``(T, D, pattern, memory)`` from its nodes' items.

    Working memory (hash tables, sort buffers) is charged to the
    fragment containing the consuming node — the table must be resident
    while that fragment runs.  IO pattern by majority of io volume.
    """
    cpu = io_time = ios = seq_ios = random_ios = memory = 0.0
    for __, node_cpu, node_io_time, node_ios, node_memory, pattern in items:
        cpu += node_cpu
        io_time += node_io_time
        ios += node_ios
        memory += node_memory
        if pattern == SEQUENTIAL:
            seq_ios += node_ios
        elif pattern == RANDOM:
            random_ios += node_ios
    return (
        max(cpu + io_time, 1e-9),
        ios,
        RANDOM if random_ios > seq_ios else SEQUENTIAL,
        memory,
    )


def _signature(summary: FragmentSummary) -> tuple:
    return ((*_profile(summary.open), summary.waits), *summary.closed)


def plan_signature(
    plan: PlanNode, estimate: PlanEstimate, subtrees: dict[int, Subtree] | None = None
) -> tuple:
    """``fragment_plan(plan, estimate).signature()`` without the fragments."""
    return _signature(_cut(plan, estimate, {} if subtrees is None else subtrees))


def signature_tasks(
    signature: tuple,
    fragments: list[Fragment] | None = None,
    *,
    name: str | None = None,
    arrival_time: float = 0.0,
) -> list[Task]:
    """Scheduler tasks for a signature's rows, dependencies wired.

    One task id is drawn per fragment, in fragment order, before any
    task is built, so every ``depends_on`` is set at construction.
    With ``fragments`` each task carries its fragment as payload and,
    without ``name``, is named after it.
    """
    ids = [_task_ids() for __ in signature]
    tasks = []
    for i, (seq_time, io_count, pattern, memory, deps) in enumerate(signature):
        fragment = fragments[i] if fragments is not None else None
        if name is not None:
            label = f"{name}/frag{i}"
        else:
            label = f"frag{i}({fragment.root.label()})" if fragment else f"frag{i}"
        tasks.append(
            Task(
                name=label,
                seq_time=seq_time,
                io_count=io_count,
                io_pattern=IOPattern(pattern),
                arrival_time=arrival_time,
                depends_on=frozenset([ids[i + d] for d in deps]),
                memory_bytes=memory,
                task_id=ids[i],
                payload=fragment,
            )
        )
    return tasks


def fragment_plan(
    plan: PlanNode, estimate: PlanEstimate | None = None
) -> FragmentGraph:
    """Cut ``plan`` at its blocking edges.

    With ``estimate`` supplied, each fragment gets its ``(T_i, D_i)``
    profile: the sum of its nodes' CPU and io costs, io pattern by
    majority of io volume.  It cuts through the estimate's subtree memo.
    """
    memo = estimate.memo() if estimate is not None and estimate.memo else None
    summary = _cut(plan, estimate, {} if memo is None else memo.subtrees)
    fragments = []
    for row, items in zip(_signature(summary), (summary.open, *summary.closed_items)):
        seq_time, io_count, pattern, memory, deps = row
        fragment = Fragment(
            fragment_id=len(fragments),
            root=items[0][0],
            nodes=[item[0] for item in items],
            depends_on={len(fragments) + d for d in deps},
        )
        if estimate is not None:
            fragment.seq_time = seq_time
            fragment.io_count = io_count
            fragment.io_pattern = IOPattern(pattern)
            fragment.memory_bytes = memory
        fragments.append(fragment)
    return FragmentGraph(plan=plan, fragments=fragments)
