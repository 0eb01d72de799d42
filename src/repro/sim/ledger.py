"""The policy-facing half of an engine: one task ledger, one action path.

The paper's master (Section 2) is one loop — consult the scheduler on
arrival and completion, apply what it says.  Both simulators run that
loop over the bookkeeping kept here once: :class:`TaskLedger` knows
which tasks wait, are still to arrive, completed, were shed or were
cancelled, memoizes the *ready* view policies read as
``state.pending``, dispatches ``Start/Adjust/Shed/Cancel``
(:meth:`TaskLedger.apply`) and assembles the :class:`ScheduleResult`.
Each engine's per-run state (``fluid._SimState``,
``micro._MicroEngine``) *is* a ledger, so it is also the
:class:`~repro.core.schedulers.EngineState` the policy sees.  The rules
this encodes — legal actions, the dependency cone of a cancel, consult
timing — are DESIGN.md's "Engine contract".

One identity rule callers lean on: ``waiting`` and ``arrivals`` are
mutated in place and never rebound (the micro event loop holds them as
locals for its finished test).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NoReturn, Sequence

from ..config import MachineConfig
from ..core.schedulers import Action, Adjust, Cancel, Shed, Start
from ..core.task import Task
from ..errors import SimulationError

if TYPE_CHECKING:  # imported lazily: repro.faults imports nothing from sim
    from ..faults.injector import FaultLog


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Trace of one completed task."""

    task: Task
    started_at: float
    finished_at: float
    parallelism_history: tuple[tuple[float, float], ...]

    @property
    def response_time(self) -> float:
        """Completion minus arrival (multi-user metric)."""
        return self.finished_at - self.task.arrival_time

    @property
    def wait_time(self) -> float:
        return self.started_at - self.task.arrival_time


@dataclass(frozen=True, slots=True)
class ShedRecord:
    """Trace of one task dropped by a :class:`~repro.core.schedulers.Shed`."""

    task: Task
    shed_at: float


@dataclass(frozen=True, slots=True)
class CancelRecord:
    """Trace of one task cooperatively cancelled mid-run.

    ``started_at`` is ``None`` when the task was cancelled before it
    ever started (pending or not yet arrived); ``pages_done`` counts
    partial progress in the engine's work unit (pages for the micro
    engine, 0 for the fluid engine).
    """

    task: Task
    cancelled_at: float
    started_at: float | None = None
    pages_done: int = 0
    reason: str = "deadline"


@dataclass
class ScheduleResult:
    """Outcome of one simulated run.

    CPU accounting carries two semantics (see docs/CHECKING.md):

    * **occupancy** — processor-seconds *allocated*: a slave holds its
      processor for its whole lifetime, io-throttled or not.  This is
      the fluid engine's native integral ``∫ Σ xᵢ dt``.
    * **service** — processor-seconds actually *computing* tuples.
      This is the micro engine's native sum of per-page CPU bursts.

    ``cpu_busy`` keeps each engine's historical native semantics
    (occupancy for fluid, service for micro); ``cpu_busy_occupancy``
    and ``cpu_busy_service`` report both quantities from both engines,
    so cross-engine checks compare like with like.
    """

    policy_name: str
    elapsed: float
    records: list[TaskRecord]
    adjustments: int
    cpu_busy: float  # processor-seconds, engine-native semantics
    io_served: float  # io requests served
    machine: MachineConfig
    peak_memory: float = 0.0  # largest co-resident working set (bytes)
    shed_records: list[ShedRecord] = field(default_factory=list)
    #: Fault-injection trace of the run (``None`` = healthy run).
    fault_log: "FaultLog | None" = None
    #: Tasks cooperatively cancelled (deadline kills and their
    #: transitive dependents); never counted in ``records``.
    cancel_records: list[CancelRecord] = field(default_factory=list)
    #: Processor-seconds *allocated* (occupancy semantics).
    cpu_busy_occupancy: float = 0.0
    #: Processor-seconds spent *computing* (service semantics).
    cpu_busy_service: float = 0.0

    @property
    def cpu_utilization(self) -> float:
        denom = self.machine.processors * self.elapsed
        return self.cpu_busy / denom if denom > 0 else 0.0

    @property
    def cpu_utilization_occupancy(self) -> float:
        """Fraction of processor capacity *held* over the run."""
        denom = self.machine.processors * self.elapsed
        return self.cpu_busy_occupancy / denom if denom > 0 else 0.0

    @property
    def cpu_utilization_service(self) -> float:
        """Fraction of processor capacity spent *computing* tuples."""
        denom = self.machine.processors * self.elapsed
        return self.cpu_busy_service / denom if denom > 0 else 0.0

    @property
    def io_utilization(self) -> float:
        denom = self.machine.io_bandwidth * self.elapsed
        return self.io_served / denom if denom > 0 else 0.0

    @property
    def mean_response_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.response_time for r in self.records) / len(self.records)

    def record_for(self, task: Task) -> TaskRecord:
        """The trace record of one task."""
        for record in self.records:
            if record.task.task_id == task.task_id:
                return record
        raise SimulationError(f"no record for {task!r}")


def _bad_degree(action: Start | Adjust) -> NoReturn:
    raise SimulationError(
        f"{action.task!r}: parallelism must be positive, "
        f"not {action.parallelism!r}"
    )


class TaskLedger:
    """Task bookkeeping and action dispatch shared by both engines.

    A subclass is one engine's per-run state.  It owns ``clock`` (this
    class only reads it), supplies ``running`` and
    ``effective_machine`` to complete the ``EngineState`` protocol, and
    implements ``start_task``, ``adjust_task`` and ``cancel_task``.
    Tracing and fault logging stay with the engine.
    """

    # parcost builds one ledger per costed candidate: no instance dict.
    __slots__ = (
        "machine", "clock", "waiting", "arrivals", "completed_ids",
        "cancelled_ids", "records", "shed_records", "cancel_records",
        "_ready", "_dependents",
    )

    def __init__(self, machine: MachineConfig, tasks: Iterable[Task]) -> None:
        self.machine = machine
        self.clock = 0.0
        #: Arrived, not started; in arrival order (ready or not).
        self.waiting: list[Task] = []
        #: Heap of ``(arrival_time, submission index, task)``.
        self.arrivals: list[tuple[float, int, Task]] = [
            (t.arrival_time, i, t) for i, t in enumerate(tasks)
        ]
        heapq.heapify(self.arrivals)
        self.completed_ids: set[int] = set()
        self.cancelled_ids: set[int] = set()
        self.records: list[TaskRecord] = []
        self.shed_records: list[ShedRecord] = []
        self.cancel_records: list[CancelRecord] = []
        self._ready: list[Task] | None = None
        #: Reverse dependency index, built at the first cancel (most
        #: runs never cancel; parcost simulates thousands of them).
        self._dependents: dict[int, list[Task]] | None = None

    # -- EngineState protocol ---------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock

    @property
    def pending(self) -> list[Task]:
        """Arrived tasks that are *ready*: all dependencies completed.

        Memoized; policies read it several times per consult and must
        treat it as a read-only snapshot.
        """
        view = self._ready
        if view is None:
            completed = self.completed_ids
            view = self._ready = [
                t for t in self.waiting if t.depends_on <= completed
            ]
        return view

    # -- arrivals -----------------------------------------------------------------

    def admit_due(self, due: float) -> None:
        """Move every arrival stamped ``<= due`` to the waiting list.

        The caller passes ``clock + eps`` with its own engine's eps.
        """
        arrivals = self.arrivals
        while arrivals and arrivals[0][0] <= due:
            self.waiting.append(heapq.heappop(arrivals)[2])
            self._ready = None

    def next_arrival_in(self) -> float | None:
        """Seconds until the next arrival (``None`` = none left)."""
        if not self.arrivals:
            return None
        return max(0.0, self.arrivals[0][0] - self.clock)

    # -- transitions ----------------------------------------------------------------

    def _take(self, task: Task, *, unarrived: bool = False) -> str | None:
        """Remove ``task`` (matched by id) from the waiting list — or,
        with ``unarrived``, from the arrival heap.  Returns where it
        was, ``"waiting"`` or ``"arrivals"``; ``None`` if absent."""
        tid = task.task_id
        waiting = self.waiting
        for i, t in enumerate(waiting):
            if t.task_id == tid:
                del waiting[i]
                self._ready = None
                return "waiting"
        if unarrived:
            arrivals = self.arrivals
            for i, entry in enumerate(arrivals):
                if entry[2].task_id == tid:
                    del arrivals[i]
                    heapq.heapify(arrivals)
                    return "arrivals"
        return None

    def claim(self, task: Task) -> None:
        """Take a waiting task off the ledger: it starts running or is shed."""
        if not self._take(task):
            raise SimulationError(f"{task!r} is not pending")

    def complete(
        self,
        task: Task,
        started_at: float,
        finished_at: float,
        history: Sequence[tuple[float, float]],
    ) -> None:
        """Record a finished task; its dependents may now be ready."""
        self.completed_ids.add(task.task_id)
        # Positional, in field order: cheaper than a keyword call.
        self.records.append(
            TaskRecord(task, started_at, finished_at, tuple(history))
        )
        self._ready = None

    def cancel(
        self,
        task: Task,
        reason: str,
        *,
        started_at: float | None = None,
        pages_done: int = 0,
    ) -> None:
        """Cancel ``task`` and its dependency cone, root first.

        ``started_at`` set means the engine already stopped the task's
        run; otherwise the task must wait or be yet to arrive.  An
        already-cancelled task is left alone.  Each new record is
        handed to :meth:`task_cancelled` before its own cone is taken.
        """
        if task.task_id in self.cancelled_ids:
            return
        where = None
        if started_at is None:
            where = self._take(task, unarrived=True)
            if where is None:
                raise SimulationError(f"{task!r} is neither running nor pending")
        self._record_cancel(
            CancelRecord(task, self.clock, started_at, pages_done, reason), where
        )

    def _record_cancel(self, record: CancelRecord, where: str | None) -> None:
        tid = record.task.task_id
        self.cancelled_ids.add(tid)
        self.cancel_records.append(record)
        self.task_cancelled(record, where)
        dependents = self._dependents
        if dependents is None:
            dependents = self._dependents = {}
            unstarted = self.waiting + [e[2] for e in self.arrivals]
            for t in unstarted:
                for dep in t.depends_on:
                    dependents.setdefault(dep, []).append(t)
        for orphan in dependents.get(tid, ()):
            # Gone if it started, was shed, or an earlier orphan's cone took it.
            where = self._take(orphan, unarrived=True)
            if where is not None:
                self._record_cancel(
                    CancelRecord(orphan, self.clock, reason="dependency"), where
                )

    def task_cancelled(self, record: CancelRecord, where: str | None) -> None:
        """Engine hook: trace/log one cancel.  ``where`` is where the
        ledger held the task (see :meth:`_take`); ``None`` = it ran."""

    # -- the action path ----------------------------------------------------------------

    def apply(self, actions: Iterable[Action]) -> None:
        """Apply one batch of policy actions, in order.

        The policy is never consulted from inside a batch.  A ``Start``
        or ``Adjust`` whose degree is not ``> 0`` (NaN included) raises
        before the action touches anything.
        """
        for action in actions:
            if isinstance(action, Start):
                if not action.parallelism > 0:
                    _bad_degree(action)
                self.start_task(action.task, action.parallelism)
            elif isinstance(action, Adjust):
                if not action.parallelism > 0:
                    _bad_degree(action)
                self.adjust_task(action.task, action.parallelism)
            elif isinstance(action, Shed):
                self.shed_task(action.task)
            elif isinstance(action, Cancel):
                self.cancel_task(action.task, action.reason)
            else:
                raise SimulationError(f"unknown action: {action!r}")

    def start_task(self, task: Task, parallelism: float) -> None:
        """Begin running a waiting task (engines call :meth:`claim`)."""
        raise NotImplementedError

    def adjust_task(self, task: Task, parallelism: float) -> None:
        """Change a running task's degree of parallelism."""
        raise NotImplementedError

    def shed_task(self, task: Task) -> None:
        """Drop a waiting (possibly not-yet-ready) task without running it."""
        self.claim(task)
        self.shed_records.append(ShedRecord(task=task, shed_at=self.clock))

    def cancel_task(self, task: Task, reason: str) -> None:
        """Stop a running task or drop an unstarted one (engines call
        :meth:`cancel`)."""
        raise NotImplementedError

    # -- result ------------------------------------------------------------------------------

    def result(self, policy_name: str, **totals) -> ScheduleResult:
        """The run's :class:`ScheduleResult`; ``totals`` are the
        engine's own integrals (``adjustments``, ``cpu_busy``, …)."""
        return ScheduleResult(
            policy_name=policy_name,
            elapsed=self.clock,
            records=self.records,
            machine=self.machine,
            shed_records=self.shed_records,
            cancel_records=self.cancel_records,
            **totals,
        )
