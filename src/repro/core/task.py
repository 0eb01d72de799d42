"""The scheduler's task model.

A *task* is a plan fragment: "the maximum pipelineable subgraphs of a
sequential plan ... used as the units of parallel execution" (Section
2.1).  For scheduling, all that matters about a task is:

* ``seq_time`` — its sequential execution time ``T_i``;
* ``io_count`` — the number of io requests it issues, ``D_i``;
* its io access pattern (sequential scans vs unclustered-index scans);

from which the io rate ``C_i = D_i / T_i`` follows.  "Our algorithms
only depend on the i/o rate of each task and other details of the
operations in the tasks do not affect the performance" (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from ..errors import SchedulingError
from .ids import task_ids as _task_ids


class IOPattern(Enum):
    """Dominant io access pattern of a task."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True, init=False)
class Task:
    """One schedulable unit of work.

    Attributes:
        name: a human-readable label.
        seq_time: sequential execution time ``T_i`` in seconds.
        io_count: total io requests ``D_i``.
        io_pattern: dominant access pattern when run sequentially.
        arrival_time: when the task becomes known to the scheduler
            (0.0 for a fixed task set; used by the continuous queues).
        depends_on: task ids that must complete before this task is
            *ready* (order-dependencies between fragments of one plan,
            Section 4: "it only needs to check if a task is ready
            before choosing it to execute").
        memory_bytes: working memory the task pins while running (hash
            tables, sort buffers).  The memory-aware scheduler refuses
            to co-run tasks whose combined footprint exceeds the
            machine's work memory — the constraint the paper defers to
            future work.
        task_id: unique id, auto-assigned.
        payload: optional reference to the underlying object (e.g. the
            plan fragment); ignored by the scheduler.
    """

    name: str
    seq_time: float
    io_count: float
    io_pattern: IOPattern = IOPattern.SEQUENTIAL
    arrival_time: float = 0.0
    depends_on: frozenset[int] = frozenset()
    memory_bytes: float = 0.0
    task_id: int = field(default_factory=_task_ids)
    payload: object | None = field(default=None, compare=False, hash=False)

    def __init__(
        self, name: str, seq_time: float, io_count: float,
        io_pattern: IOPattern = IOPattern.SEQUENTIAL, arrival_time: float = 0.0,
        depends_on: frozenset[int] = frozenset(), memory_bytes: float = 0.0,
        task_id: int | None = None, payload: object | None = None,
    ) -> None:
        # Not generated: a frozen dataclass's __init__ pays one
        # object.__setattr__ per field.  As there, the id is drawn first.
        if task_id is None:
            task_id = _task_ids()
        if seq_time <= 0:
            raise SchedulingError(f"task {name!r}: seq_time must be positive")
        if io_count < 0:
            raise SchedulingError(f"task {name!r}: io_count must be >= 0")
        if arrival_time < 0:
            raise SchedulingError(f"task {name!r}: arrival_time must be >= 0")
        if memory_bytes < 0:
            raise SchedulingError(f"task {name!r}: memory_bytes must be >= 0")
        # One store per field keeps the dict sharing the class's keys (a new
        # dict would not); io_rate's cache is filled, as it is nearly always read.
        state = self.__dict__
        state["name"] = name
        state["seq_time"] = seq_time
        state["io_count"] = io_count
        state["io_pattern"] = io_pattern
        state["arrival_time"] = arrival_time
        state["depends_on"] = depends_on
        state["memory_bytes"] = memory_bytes
        state["task_id"] = task_id
        state["payload"] = payload
        state["io_rate"] = io_count / seq_time

    @cached_property
    def io_rate(self) -> float:
        """``C_i = D_i / T_i`` — io requests per second when sequential.

        Cached: the task is frozen and schedulers read the rate in every
        classification, sort key and balance equation.  The cache lives
        in ``__dict__``, is filled at construction and never enters
        eq/hash.
        """
        return self.io_count / self.seq_time

    def with_arrival(self, arrival_time: float) -> "Task":
        """A copy of this task arriving at ``arrival_time`` (fresh task_id)."""
        return self._copy("arrival_time", arrival_time, _task_ids())

    def with_dependencies(self, task_ids) -> "Task":
        """A copy of this task (same task_id) depending on ``task_ids``."""
        return self._copy("depends_on", frozenset(task_ids), self.task_id)

    def with_memory(self, memory_bytes: float) -> "Task":
        """A copy of this task (same task_id) pinning ``memory_bytes``."""
        return self._copy("memory_bytes", memory_bytes, self.task_id)

    def _copy(self, name: str, value, task_id: int) -> "Task":
        """This task with ``name`` set to ``value`` (checked if bounded), as ``task_id``."""
        if name != "depends_on" and value < 0:
            raise SchedulingError(f"task {self.name!r}: {name} must be >= 0")
        state = self.__dict__.copy()
        state[name] = value
        state["task_id"] = task_id
        copy = object.__new__(Task)
        object.__setattr__(copy, "__dict__", state)
        return copy

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, T={self.seq_time:.3g}s, "
            f"C={self.io_rate:.3g} ios/s, {self.io_pattern.value})"
        )


def make_task(
    name: str,
    *,
    io_rate: float,
    seq_time: float,
    io_pattern: IOPattern = IOPattern.SEQUENTIAL,
    arrival_time: float = 0.0,
) -> Task:
    """Build a task from its io *rate* instead of its io count.

    This is how the paper's experiments specify tasks ("we choose the
    i/o rate of the tasks ... randomly chosen in [5, 30)").
    """
    if io_rate < 0:
        raise SchedulingError("io_rate must be >= 0")
    return Task(
        name=name,
        seq_time=seq_time,
        io_count=io_rate * seq_time,
        io_pattern=io_pattern,
        arrival_time=arrival_time,
    )
