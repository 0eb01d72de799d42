"""The page-level micro simulator.

Where the fluid engine treats a task as a continuous flow, this engine
simulates every page: slave backends issue page reads to per-disk FIFO
queues (service time depends on the head position, so interleaved
streams *really* seek), then compete for processors to do the per-page
CPU work.  Dynamic parallelism adjustment is the paper's literal
protocols:

* **Page partitioning** (Figure 5) — master signals the slaves; each
  replies with its current page; the master computes ``maxpage`` and the
  new parallelism ``n'``; slaves finish their old ``mod n`` stride up to
  ``maxpage`` and continue past it with a ``mod n'`` stride; new slaves
  start after ``maxpage``.
* **Range partitioning** (Figure 6) — slaves report their remaining key
  intervals; the master repartitions them into ``n'`` interval sets;
  slaves resume on their new intervals (possibly several each).

Each signalling leg costs ``machine.signal_latency`` (tiny on shared
memory — that is the paper's point; the abl3 bench sweeps it).

Workloads are :class:`ScanSpec` objects — synthetic scans with a page
count, a per-page CPU time and an io pattern — which map exactly onto
the scheduler's :class:`~repro.core.task.Task` model.

The policy-facing half — which tasks wait, arrive, completed or were
cancelled, and how ``Start/Adjust/Shed/Cancel`` reach the engine — is
:class:`~repro.sim.ledger.TaskLedger`, shared with the fluid engine;
this file is the event loop, the disks and the protocols.

Four collaborators hook in at named cold sites, each behind one
``is not None`` test: the tracer, the invariant checker, the fault
injector (it arms its own instants on this engine's heap, writes the
per-disk factor and stall lists the page loop reads, and can only crash
a slave, cancel a task or raise ``MasterCrashError``) and the recovery
manager (``Checkpoint.capture`` reads the engine, ``restore`` rebuilds one).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..config import MachineConfig
from ..core.classify import io_service_time
from ..core.schedulers import SchedulingPolicy
from ..core.task import IOPattern, Task
from ..errors import SimulationError
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..parallel.partition import (
    PageAssignment,
    maxpage_round,
    page_assignments,
    repartition_intervals,
)
from ..recovery.checkpoint import Checkpoint
from ..storage.disk import Disk
from .ledger import ScheduleResult, TaskLedger

_EPS = 1e-12
_MAX_EVENTS = 5_000_000

#: Simulated seconds the master waits for an adjustment round before
#: aborting it (recorded as a ``timeout`` event in the fault log; the run
#: continues).  Armed at every round; a round that finished in time
#: makes the timer a no-op.
ADJUST_TIMEOUT = 0.5

# Event tags for the engine's heap entries.  The hot per-page events
# (io completion, cpu completion) are type-tagged tuples dispatched by
# the run loop's jump table; only cold, rare events (protocol legs,
# fault transitions, master ticks, arrivals) carry a callback.  Heap
# ordering never reaches the payload slots: (time, seq) is unique.
_EV_CALL = 0
_EV_IO_DONE = 1
_EV_CPU_DONE = 2

#: Elevator preference order of the disk regimes (lower serves first).
_REGIME_RANK = {"sequential": 0, "almost_sequential": 1, "random": 2}


def _history_occupancy(
    history: Sequence[tuple[float, float]], end: float
) -> float:
    """Processor-seconds *allocated* over one task's lifetime.

    Integrates the declared parallelism history ``[(t, x), ...]`` up to
    ``end`` — the occupancy semantics the fluid engine charges natively
    (a slave holds its processor whether it is computing or waiting on
    io).  Declared allocation, deliberately: a crashed slave's
    processor stays charged until the adjustment protocol re-declares
    the task's width, mirroring how the fluid integral sees it.
    """
    total = 0.0
    for (t0, x), (t1, __) in zip(history, history[1:]):
        total += x * (t1 - t0)
    if history:
        t_last, x_last = history[-1]
        total += x_last * (end - t_last)
    return total


@dataclass(frozen=True)
class ScanSpec:
    """A synthetic scan workload for the micro engine.

    Attributes:
        name: label.
        n_pages: number of pages (= io requests) to process.
        cpu_per_page: CPU seconds to process each page's tuples.
        pattern: SEQUENTIAL pages are striped round-robin and read in
            order (per-disk sequential streams); RANDOM pages are read
            in a scattered block order (every read seeks), modelling an
            unclustered index scan.
        partitioning: "page" (Figure 5 protocol) or "range" (Figure 6).
        arrival_time: when the task enters the system.
    """

    name: str
    n_pages: int
    cpu_per_page: float
    pattern: IOPattern = IOPattern.SEQUENTIAL
    partitioning: str = "page"
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.n_pages < 1:
            raise SimulationError(f"{self.name}: n_pages must be >= 1")
        if self.cpu_per_page < 0:
            raise SimulationError(f"{self.name}: cpu_per_page must be >= 0")
        if self.partitioning not in ("page", "range"):
            raise SimulationError(f"{self.name}: unknown partitioning")

    def seq_time(self, machine: MachineConfig) -> float:
        """``T_i`` — sequential elapsed time (synchronous page cycles)."""
        return self.n_pages * (
            io_service_time(machine, self.pattern) + self.cpu_per_page
        )

    def io_rate(self, machine: MachineConfig) -> float:
        """``C_i = D_i / T_i`` for this scan."""
        return self.n_pages / self.seq_time(machine)

    def to_task(self, machine: MachineConfig) -> Task:
        """The scheduler-level view of this scan."""
        return Task(
            name=self.name,
            seq_time=self.seq_time(machine),
            io_count=float(self.n_pages),
            io_pattern=self.pattern,
            arrival_time=self.arrival_time,
            payload=self,
        )


def spec_for_io_rate(
    name: str,
    machine: MachineConfig,
    *,
    io_rate: float,
    n_pages: int,
    pattern: IOPattern = IOPattern.SEQUENTIAL,
    partitioning: str = "page",
    arrival_time: float = 0.0,
) -> ScanSpec:
    """Build a ScanSpec whose sequential io rate is ``io_rate``.

    This is how the paper's experiments control task boundedness: "We
    adjust the i/o rate of each task by varying the size of tuples" —
    big tuples mean few tuples (little CPU) per page.

    Raises:
        SimulationError: if the rate exceeds what one disk stream can
            physically deliver (e.g. > 60 ios/s sequential, the
            almost-sequential rate).
    """
    svc = io_service_time(machine, pattern)
    if io_rate <= 0:
        raise SimulationError(f"{name}: io_rate must be positive")
    cpu = 1.0 / io_rate - svc
    if cpu < -1e-12:
        raise SimulationError(
            f"{name}: io rate {io_rate} exceeds the disk service rate {1 / svc:.1f}"
        )
    cpu = max(cpu, 0.0)
    return ScanSpec(
        name=name,
        n_pages=n_pages,
        cpu_per_page=cpu,
        pattern=pattern,
        partitioning=partitioning,
        arrival_time=arrival_time,
    )


# ---------------------------------------------------------------------------
# engine internals


@dataclass(eq=False, slots=True)
class _Slave:
    """One slave backend working on one task.

    Slaves are synchronous, like Postgres backends: read a page, then
    process its tuples, then read the next page.  "The time between two
    i/o requests is equal to the time to read a disk page plus the time
    to process all the tuples that reside in the read-in disk page"
    (Section 3).
    """

    slave_id: int
    segments: list[PageAssignment] = field(default_factory=list)
    cursor: int = 0  # next page candidate (page partitioning)
    intervals: list[tuple[int, int]] = field(default_factory=list)  # range mode
    busy: bool = False  # has an in-flight page (io or cpu)
    retired: bool = False
    paused: bool = False  # waiting for repartition (range protocol)
    crashed: bool = False  # killed by fault injection; events are stale
    inflight_page: int | None = None  # page (or key) currently being read

    def next_page(self) -> int | None:
        """Claim the next page under page partitioning."""
        segments = self.segments
        while segments:
            page = segments[0].first_at_or_after(self.cursor)
            if page is not None:
                self.cursor = page + 1
                return page
            segments.pop(0)
        return None

    def next_key(self) -> int | None:
        """Claim the next key under range partitioning."""
        while self.intervals:
            lo, hi = self.intervals[0]
            if lo > hi:
                self.intervals.pop(0)
                continue
            self.intervals[0] = (lo + 1, hi)
            return lo
        return None

    def remaining_intervals(self) -> list[tuple[int, int]]:
        return [(lo, hi) for lo, hi in self.intervals if lo <= hi]


@dataclass(eq=False, slots=True)
class _TaskRun:
    """Engine-internal record of one running task."""

    task: Task
    spec: ScanSpec
    parallelism: int
    started_at: float
    slaves: dict[int, _Slave] = field(default_factory=dict)
    pages_done: int = 0
    next_slave_id: int = 0
    history: list[tuple[float, float]] = field(default_factory=list)
    adjusting: bool = False
    block_base: int = 0  # placement offset on the disks
    adjust_epoch: int = 0  # stale-message guard for the protocol legs
    #: Page -> physical page permutation (identity for sequential
    #: scans, scattered for random ones); owned by the run so the hot
    #: path needs no per-page dict lookup.
    order: list[int] = field(default_factory=list)
    # Hot-path caches of immutable spec fields, set by start_task so
    # the per-page code avoids the run.spec.* attribute chain.
    page_mode: bool = True  # spec.partitioning == "page"
    cpu_per_page: float = 0.0
    n_pages: int = 0
    #: When the in-flight adjustment round's first leg was sent; the
    #: tracer stamps the round's span from here (cold path).
    adjust_started_at: float = 0.0
    #: Per-slave intervals harvested by a Figure-6 collect step, kept so
    #: an aborted round can hand them back (or restart crashed strides).
    harvest: dict[int, list[tuple[int, int]]] | None = None

    @property
    def remaining_seq_time(self) -> float:
        frac = 1.0 - self.pages_done / self.spec.n_pages
        return frac * self.task.seq_time


class MicroSimulator:
    """Discrete-event page-level simulation of the XPRS machine.

    The disks are flattened to the *almost sequential* regime for
    in-order reads: parallel backends always reorder requests slightly,
    so a parallel scan never sees the strictly-sequential rate
    (Section 3: "we at most see the almost sequential read bandwidth").
    Without this, a scan whose stride happens to align with the
    striping would stream every disk at the raw sequential rate and
    the machine's working bandwidth ``B`` would be exceeded.

    Args:
        machine: machine configuration.
        seed: used only to scatter the block order of RANDOM tasks.
        consult_interval: when set, the master additionally consults
            the policy every so many simulated seconds (a master tick),
            not only at start/arrival/completion events.  Lets policies
            adjust mid-task.
        faults: a fault schedule injected into the event loop (disk
            degradation and stalls, slave crashes, dropped/delayed
            protocol messages); ``None`` runs a healthy machine.  An
            adjustment round the faults hang is aborted after
            :data:`ADJUST_TIMEOUT`.
        fault_seed: seeds the injector's crash-target RNG.
        recovery: a :class:`~repro.recovery.RecoveryManager` capturing
            checkpoints at adjustment-round boundaries; ``None`` (the
            default) captures nothing and adds zero per-event work.
        tracer: a :class:`~repro.obs.Tracer` recording task spans,
            adjustment rounds and fault, checkpoint and restore instants
            at virtual time; ``None`` records nothing.  The tracer only
            appends to its own event list, so enabling it cannot perturb
            the schedule.
        invariants: an :class:`~repro.check.InvariantChecker` asserting
            page conservation, clock monotonicity and resource bounds
            at the engine's cold sites; ``None`` (the default) checks
            nothing and adds one ``is not None`` test per cold site.
    """

    def __init__(
        self,
        machine: MachineConfig,
        *,
        seed: int = 0,
        consult_interval: float | None = None,
        faults: FaultSchedule | None = None,
        fault_seed: int = 0,
        recovery=None,
        tracer=None,
        invariants=None,
    ) -> None:
        flattened = replace(
            machine,
            disk=replace(
                machine.disk, seq_ios_per_sec=machine.disk.almost_seq_ios_per_sec
            ),
        )
        if consult_interval is not None and consult_interval <= 0:
            raise SimulationError("consult_interval must be positive")
        self.machine = flattened
        self.seed = seed
        self.consult_interval = consult_interval
        self.faults = faults
        self.fault_seed = fault_seed
        self.recovery = recovery
        self.tracer = tracer
        self.invariants = invariants

    def run(
        self,
        specs: "Sequence[ScanSpec | Task]",
        policy: SchedulingPolicy,
        *,
        resume_from: Checkpoint | None = None,
    ) -> ScheduleResult:
        """Simulate the scan specs under ``policy`` until all complete.

        An item may also be a ready-made :class:`Task` whose
        ``payload`` is its :class:`ScanSpec`; it is used as is (id,
        dependencies and arrival time included), so a caller that
        groups tasks — the serving gate — can drive this engine.

        ``resume_from`` restarts the run from a checkpoint taken by a
        :class:`~repro.recovery.RecoveryManager`: already-completed
        pages stay done, and only each previously-busy slave's single
        in-flight page is re-read.

        Raises:
            MasterCrashError: a ``master-crash`` fault fired; resume
                via :func:`repro.recovery.run_with_recovery`.
        """
        policy.reset()
        injector = (
            FaultInjector(self.faults, seed=self.fault_seed)
            if self.faults is not None
            else None
        )
        tasks = [
            item if isinstance(item, Task) else item.to_task(self.machine)
            for item in specs
        ]
        engine = _MicroEngine(
            self.machine,
            tasks,
            policy,
            seed=self.seed,
            consult_interval=self.consult_interval,
            injector=injector,
            recovery=self.recovery,
            resume_from=resume_from,
            tracer=self.tracer,
            invariants=self.invariants,
        )
        return engine.run()


class _MicroEngine(TaskLedger):
    """One run: the task ledger (so also the policy's EngineState) plus
    the event heap, the disks, the processors and the slave backends."""

    def __init__(
        self,
        machine: MachineConfig,
        tasks: list[Task],
        policy: SchedulingPolicy,
        *,
        seed: int,
        consult_interval: float | None = None,
        injector: FaultInjector | None = None,
        recovery=None,
        resume_from: Checkpoint | None = None,
        tracer=None,
        invariants=None,
    ) -> None:
        import random

        super().__init__(machine, tasks)
        # Tracer (None = disabled).  Emission sites are all off the
        # inner per-page loop and guard with one None check, so a
        # disabled tracer leaves the hot path untouched.
        self.tracer = tracer
        self.seed = seed
        self.policy = policy
        #: Invariant checker (None = disabled).  Same idiom as the
        #: tracer: hooks only on cold sites, one None check each.  Every
        #: engine is one run to it: each attempt of run_with_recovery is
        #: a fresh engine, its clock back at a checkpoint or at zero.
        self.invariants = invariants
        if invariants is not None:
            invariants.new_run()
        #: Heap of (time, seq, tag, payload) — see the _EV_* tags.
        self._events: list[tuple[float, int, int, object]] = []
        self._seq = 0  # heap tiebreaker; incremented inline (hot path)
        self._rng = random.Random(seed)
        # resources
        self._n_disks = machine.disks
        self.disks = [Disk(i, machine.disk) for i in range(machine.disks)]
        self._disk_queues: list[deque[tuple["_TaskRun", _Slave, int, int]]] = [
            deque() for __ in range(machine.disks)
        ]
        self._disk_busy = [False] * machine.disks
        self.free_processors = machine.processors
        self._cpu_queue: deque[tuple["_TaskRun", _Slave, int, int]] = deque()
        self.cpu_busy_time = 0.0
        #: Occupancy accrued by *cancelled* runs (completed runs are
        #: integrated from their records at result build).
        self.occupancy_cancelled = 0.0
        # tasks
        self.runs: dict[int, _TaskRun] = {}
        self.adjustments = 0
        self.peak_memory = 0.0
        self._block_cursor = 0
        self._consult_interval = consult_interval
        #: A batch cancelled a running task: consult once more after it.
        self._reconsult = False
        #: When the one armed policy wake-up fires (None = none armed).
        self._wake_at: float | None = None
        # fault injection
        self.injector = injector
        #: Per-disk bandwidth factor and stall end.  An injector adopts
        #: both lists at attach and writes them only at fault instants.
        self._mult = [1.0] * machine.disks
        self._stall = [0.0] * machine.disks
        #: Measured per-disk health: EWMA of (nominal service time /
        #: observed service time) per served request.  1.0 = healthy.
        self._measured_mult = [1.0] * machine.disks
        self._stall_armed = [False] * machine.disks
        #: RecoveryManager (or None): one attribute check on the cold
        #: checkpoint sites, nothing anywhere near the per-page loop.
        self.recovery = recovery
        self.admit_due(0.0)
        # Restore before arming faults: a resumed clock filters the
        # spent ones.  For fresh runs this ordering is event-identical
        # to arming first — nothing above pushes a heap event.
        if resume_from is not None:
            resume_from.restore(self)
            if tracer is not None:
                tracer.instant(
                    "restore", t=self.clock, track="recovery", cat="recovery"
                )
        if injector is not None:
            injector.attach(self, resumed=resume_from is not None)

    # -- EngineState protocol (the rest is the ledger's) -------------------------

    @property
    def running(self) -> list["_TaskRun"]:
        return list(self.runs.values())

    @property
    def io_count(self) -> int:
        """Requests served so far: the disks' own counters, summed."""
        return sum(disk.counters.total for disk in self.disks)

    @property
    def effective_machine(self) -> MachineConfig:
        """The machine as currently *measured*, not as configured.

        Scales the disk profile by the mean per-disk health estimate so
        ``io_bandwidth`` tracks what the degraded array actually
        delivers; degradation-aware policies recompute balance points
        against this instead of the static ``MachineConfig.B``.
        """
        scale = sum(self._measured_mult) / len(self._measured_mult)
        if abs(scale - 1.0) < 1e-9:
            return self.machine
        return self.machine.with_disk_scale(max(scale, 0.05))

    # -- the master: event plumbing and policy interaction ------------------------------

    def _schedule(self, delay: float, callback) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._events, (self.clock + delay, seq, _EV_CALL, callback)
        )

    def _master_tick(self) -> None:
        if self._finished():
            return
        self._consult()
        # A tick with no round in flight is a round boundary too; with
        # recovery off this is the usual single None check.
        self._maybe_checkpoint()
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_site(self, None, "tick")
        assert self._consult_interval is not None
        self._schedule(self._consult_interval, self._master_tick)

    def _finished(self) -> bool:
        return not (self.runs or self.waiting or self.arrivals)

    def _consult(self) -> None:
        """Ask the policy once, apply its batch, arm its wake-up.

        Never re-entered: nothing a batch does consults the policy.  A
        batch that cancelled a running task freed processors the policy
        has not seen, so it is consulted once more after the batch.
        """
        policy = self.policy
        while True:
            self._reconsult = False
            self.apply(policy.decide(self))
            if not self._reconsult:
                break
        wake = policy.next_wakeup(self.clock)
        if wake is not None and (self._wake_at is None or wake < self._wake_at):
            self._wake_at = wake
            self._schedule(max(0.0, wake - self.clock), lambda: self._wake(wake))

    def _wake(self, at: float) -> None:
        if self._wake_at == at:  # else superseded by an earlier wake
            self._wake_at = None
            self._consult()

    def _arm_arrival(self) -> None:
        # One arrival event at a time: run() arms the first, each
        # firing arms the next.
        if self.arrivals:
            self._schedule(self.next_arrival_in(), self._admit_arrivals)

    def _admit_arrivals(self) -> None:
        self.admit_due(self.clock + _EPS)
        self._arm_arrival()
        self._consult()

    def run(self) -> ScheduleResult:
        self._arm_arrival()
        if self._consult_interval is not None:
            self._schedule(self._consult_interval, self._master_tick)
        self._consult()
        # The event loop is the engine's hot path: per-page events are
        # type-tagged tuples handled inline (no closure allocation, no
        # indirect call), everything rare is a callback.  A page cycle
        # is io done -> processor grant -> cpu done -> next-page claim
        # -> io.  The two event branches only *choose*: ``serve`` is a
        # request to start on its idle, unstalled disk, ``ready`` a page
        # to hand a processor.  The shared tail holds the one inlined
        # disk serve (scaled and health-folded under an injector) and the
        # one processor grant.  Deeper queues, stalls and cold callers go
        # through _dispatch_disk and _slave_next, the general forms of
        # the same steps.  Only this loop assigns the clock.
        events = self._events
        heappop = heapq.heappop
        heappush = heapq.heappush
        cpu_queue = self._cpu_queue
        disk_queues = self._disk_queues
        disk_busy = self._disk_busy
        disks = self.disks
        injector = self.injector
        mult = self._mult
        stall = self._stall
        measured = self._measured_mult
        n_disks = self._n_disks
        # The ledger mutates these three in place and never rebinds
        # them, so the finished test below may hold them as locals.
        runs = self.runs
        waiting = self.waiting
        arrivals = self.arrivals
        clock = self.clock
        for _ in range(_MAX_EVENTS):
            # Stop at the last completion, not at the last armed fault:
            # remaining injector events must not stretch the clock.
            # (Inlined self._finished().)
            if not events or not (runs or waiting or arrivals):
                break
            time, __, tag, payload = heappop(events)
            if time > clock:
                clock = self.clock = time
            elif time < clock - _EPS:
                raise SimulationError("time went backwards")
            serve = ready = None
            if tag == _EV_IO_DONE:
                disk_id = payload[2]
                disk_busy[disk_id] = False
                queue = disk_queues[disk_id]
                if queue:
                    if len(queue) == 1 and (
                        injector is None or stall[disk_id] <= clock + _EPS
                    ):
                        serve = queue.popleft()
                    else:
                        self._dispatch_disk(disk_id)
                if not payload[1].crashed:
                    # FIFO: pages queue only while no processor is
                    # free, and a freed processor drains the queue
                    # first, so a free one means nothing is waiting.
                    if self.free_processors > 0:
                        ready = payload
                    else:
                        cpu_queue.append(payload)
            elif tag == _EV_CPU_DONE:
                self.free_processors += 1
                slave = payload[1]
                # A crashed slave's page dies with it; its replacement
                # re-reads it, so do not count it done here.
                if not slave.crashed:
                    run = payload[0]
                    run.pages_done += 1
                    slave.busy = False
                    slave.inflight_page = None
                    if not (slave.retired or slave.paused):
                        if run.page_mode:
                            # Inlined _Slave.next_page.
                            segments = slave.segments
                            page = None
                            while segments:
                                seg = segments[0]
                                start = slave.cursor
                                if start < seg.lo:
                                    start = seg.lo
                                stride = seg.stride
                                remainder = (start - seg.residue) % stride
                                if remainder:
                                    start += stride - remainder
                                if start <= seg.hi:
                                    page = start
                                    slave.cursor = page + 1
                                    break
                                segments.pop(0)
                        else:
                            page = slave.next_key()
                        if page is None:
                            slave.retired = True
                        else:
                            slave.busy = True
                            slave.inflight_page = page
                            p = run.order[page]
                            disk_id = p % n_disks
                            entry = (
                                run,
                                slave,
                                disk_id,
                                run.block_base + p // n_disks,
                            )
                            if not (disk_busy[disk_id] or disk_queues[disk_id]) and (
                                injector is None or stall[disk_id] <= clock + _EPS
                            ):
                                serve = entry
                            else:
                                disk_queues[disk_id].append(entry)
                                if not disk_busy[disk_id]:
                                    self._dispatch_disk(disk_id)
                    if run.pages_done >= run.n_pages:
                        self._maybe_complete(run)
                # The freed processor goes to the queue head; requests
                # of since-crashed slaves are dropped unserved.
                while cpu_queue:
                    ready = cpu_queue.popleft()
                    if not ready[1].crashed:
                        break
                    ready = None
            else:
                payload()
                continue
            if serve is not None:
                # Inlined Disk.service_time: the same classification,
                # scaling and accounting, no call per page.
                disk_id = serve[2]
                block = serve[3]
                disk = disks[disk_id]
                streams = disk._streams
                counters = disk.counters
                if streams and streams[-1] == block - 1:
                    # Continues the newest stream: sequential, in place.
                    streams[-1] = block
                    counters.sequential += 1
                    service = disk._service_times["sequential"]
                else:
                    regime = "random"
                    index = None
                    window = disk.almost_seq_window
                    for i, pos in enumerate(streams):
                        delta = block - pos
                        if delta == 1:
                            regime = "almost_sequential"
                            index = i
                        elif 0 <= delta <= window and regime == "random":
                            regime = "almost_sequential"
                            index = i
                    if index is None:
                        counters.random += 1
                    else:
                        counters.almost_sequential += 1
                        streams.pop(index)
                    streams.append(block)
                    if len(streams) > disk.stream_memory:
                        streams.pop(0)
                    service = disk._service_times[regime]
                if injector is not None:
                    multiplier = mult[disk_id]
                    if multiplier != 1.0:
                        service = service / multiplier
                        self._observe_disk(disk_id, multiplier)
                    elif measured[disk_id] != 1.0:
                        # A healthy disk at 1.0 is the fold's fixed point.
                        self._observe_disk(disk_id, multiplier)
                disk.busy_time += service
                disk_busy[disk_id] = True
                seq = self._seq
                self._seq = seq + 1
                heappush(events, (clock + service, seq, _EV_IO_DONE, serve))
            if ready is not None:
                self.free_processors -= 1
                duration = ready[0].cpu_per_page
                self.cpu_busy_time += duration
                seq = self._seq
                self._seq = seq + 1
                heappush(events, (clock + duration, seq, _EV_CPU_DONE, ready))
        else:
            progress = ", ".join(
                f"{r.task.name} {r.pages_done}/{r.spec.n_pages}p x={r.parallelism}"
                + (" adjusting" if r.adjusting else "")
                for r in self.runs.values()
            )
            raise SimulationError(
                f"micro simulation exceeded the event budget "
                f"({_MAX_EVENTS} events) at t={self.clock:.3f}s; "
                f"pending={[t.name for t in self.waiting]}; "
                f"running=[{progress or 'none'}]"
            )
        if not self._finished():
            raise SimulationError(
                "micro simulation stalled: "
                f"running={list(self.runs)}, pending={[t.name for t in self.waiting]}"
            )
        elapsed = self.clock
        if injector is not None:
            injector.log.record(elapsed, "done", f"{len(self.records)} tasks complete")
        occupancy = self.occupancy_cancelled + sum(
            _history_occupancy(r.parallelism_history, r.finished_at)
            for r in self.records
        )
        result = self.result(
            self.policy.name,
            adjustments=self.adjustments,
            cpu_busy=self.cpu_busy_time,
            io_served=float(self.io_count),
            peak_memory=self.peak_memory,
            fault_log=injector.log if injector is not None else None,
            cpu_busy_occupancy=occupancy,
            cpu_busy_service=self.cpu_busy_time,
        )
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_end(self, result)
        return result

    # -- task lifecycle ------------------------------------------------------------------

    def _new_run(
        self, task: Task, parallelism: int, started_at: float, block_base: int
    ) -> _TaskRun:
        """Register a run of ``task`` (no slaves yet): a fresh start, or
        one a checkpoint is restoring."""
        spec: ScanSpec = task.payload  # type: ignore[assignment]
        if not isinstance(spec, ScanSpec):
            raise SimulationError(f"{task!r} has no ScanSpec payload")
        run = self.runs[task.task_id] = _TaskRun(
            task=task,
            spec=spec,
            parallelism=parallelism,
            started_at=started_at,
            block_base=block_base,
            order=list(range(spec.n_pages)),
            page_mode=spec.partitioning == "page",
            cpu_per_page=spec.cpu_per_page,
            n_pages=spec.n_pages,
        )
        return run

    def start_task(self, task: Task, parallelism: float) -> None:
        n = max(1, int(round(parallelism)))
        self.claim(task)
        run = self._new_run(task, n, self.clock, self._block_cursor)
        spec = run.spec
        self._block_cursor += math.ceil(spec.n_pages / self.machine.disks) + 10_000
        if spec.pattern == IOPattern.RANDOM:
            self._rng.shuffle(run.order)
        run.history.append((self.clock, float(n)))
        self.peak_memory = max(
            self.peak_memory,
            sum(r.task.memory_bytes for r in self.runs.values()),
        )
        tracer = self.tracer
        if tracer is not None:
            self._instant(
                f"start x={n}", task, "task", {"pages": spec.n_pages, "parallelism": n}
            )
            tracer.counter(
                "running_tasks", t=self.clock, value=float(len(self.runs))
            )
        if run.page_mode:
            for stride in page_assignments(spec.n_pages, n):
                self._spawn_slave(run).segments.append(stride)
        else:
            # More slaves than keys leaves the trailing shares empty:
            # those slaves retire on their first claim.
            for share in repartition_intervals([(0, spec.n_pages - 1)], n):
                self._spawn_slave(run).intervals = share
        self._kick_idle(run)
        self._maybe_checkpoint()
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_site(self, run, "start")

    def _spawn_slave(self, run: _TaskRun) -> _Slave:
        """A fresh, idle slave.  Its id comes from ``next_slave_id`` —
        never one recycled from a retired or crash-replaced slave, which
        would clobber that slot in ``run.slaves`` while the orphaned
        object kept claiming pages."""
        slave = run.slaves[run.next_slave_id] = _Slave(slave_id=run.next_slave_id)
        run.next_slave_id += 1
        return slave

    def _slave_next(self, run: _TaskRun, slave: _Slave) -> None:
        """Move a slave to its next page, or retire it."""
        if slave.retired or slave.busy or slave.paused:
            return
        page = slave.next_page() if run.page_mode else slave.next_key()
        if page is None:
            slave.retired = True
            self._maybe_complete(run)
            return
        slave.busy = True
        slave.inflight_page = page
        # Round-robin striping: sequential block order for sequential
        # scans, scattered (run.order) for random ones.
        p = run.order[page]
        disk_id = p % self._n_disks
        self._disk_queues[disk_id].append(
            (run, slave, disk_id, run.block_base + p // self._n_disks)
        )
        if not self._disk_busy[disk_id]:
            self._dispatch_disk(disk_id)

    def _kick_idle(self, run: _TaskRun) -> None:
        """Lift any range-protocol pause and move every idle live slave
        to its next page, in slave-id order (``run.slaves`` only ever
        grows, by increasing id)."""
        for slave in run.slaves.values():
            slave.paused = False
            if not slave.retired and not slave.busy:
                self._slave_next(run, slave)

    def _maybe_complete(self, run: _TaskRun) -> None:
        if run.pages_done < run.spec.n_pages:
            return  # pages still out (run() checks this before calling)
        if run.task.task_id not in self.runs:
            return
        if run.pages_done > run.spec.n_pages:
            raise SimulationError(
                f"{run.task.name}: processed {run.pages_done} of "
                f"{run.spec.n_pages} pages — page conservation violated"
            )
        if all(s.retired for s in run.slaves.values()):
            del self.runs[run.task.task_id]
            self.complete(run.task, run.started_at, self.clock, run.history)
            tracer = self.tracer
            if tracer is not None:
                tracer.span(
                    run.task.name,
                    t=run.started_at,
                    dur=self.clock - run.started_at,
                    track=f"task:{run.task.name}",
                    cat="task",
                    args={
                        "pages": run.pages_done,
                        "adjustments": len(run.history) - 1,
                    },
                )
                tracer.counter(
                    "running_tasks",
                    t=self.clock,
                    value=float(len(self.runs)),
                )
            invariants = self.invariants
            if invariants is not None:
                invariants.micro_site(self, run, "complete")
            self._consult()
            self._maybe_checkpoint()

    # -- disks --------------------------------------------------------------------------------

    def _dispatch_disk(self, disk_id: int) -> None:
        """Serve the queued request costing the least head movement.

        Real disks (and the paper's measured bandwidths) batch the
        dominant sequential stream instead of seeking on every request:
        among queued requests we pick the one whose block classifies
        best against the current head position (sequential beats
        almost-sequential beats random), FIFO within a class.  This is
        a simple SCAN/elevator policy.

        The scan stops at the first sequential request (rank 0 cannot
        be beaten, and FIFO-within-class means the first hit wins).

        ``run`` inlines the single request on an unstalled disk; this is
        the general serve.  A healthy machine's factor is 1.0, the fold's
        fixed point, so no injector test is needed here.
        """
        if self._disk_busy[disk_id]:
            return
        queue = self._disk_queues[disk_id]
        if not queue:
            return
        until = self._stall[disk_id]
        if until > self.clock + _EPS:
            # Frozen: dispatch nothing, resume once when the stall ends.
            if not self._stall_armed[disk_id]:
                self._stall_armed[disk_id] = True

                def resume() -> None:
                    self._stall_armed[disk_id] = False
                    self._dispatch_disk(disk_id)

                self._schedule(until - self.clock, resume)
            return
        disk = self.disks[disk_id]
        match = disk._match
        best_rank = 3
        best_index = 0
        for i, entry in enumerate(queue):
            rank = _REGIME_RANK[match(entry[3])[0]]
            if rank < best_rank:
                best_index = i
                if rank == 0:
                    break
                best_rank = rank
        entry = queue[best_index]
        del queue[best_index]
        self._disk_busy[disk_id] = True
        multiplier = self._mult[disk_id]
        service = disk.service_time(entry[3], multiplier=multiplier)
        self._observe_disk(disk_id, multiplier)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._events, (self.clock + service, seq, _EV_IO_DONE, entry)
        )

    def _observe_disk(self, disk_id: int, multiplier: float) -> None:
        """The one health fold: a served request's ratio into its disk's EWMA."""
        old = self._measured_mult[disk_id]
        self._measured_mult[disk_id] = 0.7 * old + 0.3 * multiplier

    # -- dynamic adjustment (Figures 5 and 6) -------------------------------------------------------

    def adjust_task(self, task: Task, parallelism: float) -> None:
        run = self.runs.get(task.task_id)
        if run is None:
            raise SimulationError(f"{task!r} is not running")
        n_new = max(1, int(round(parallelism)))
        if n_new == run.parallelism or run.adjusting:
            return
        run.adjusting = True
        run.adjust_started_at = self.clock
        self.adjustments += 1
        epoch = run.adjust_epoch
        delta = self.machine.signal_latency
        # Leg 1: master -> slaves (signal); leg 2: slaves -> master
        # (curpage / intervals); leg 3: master -> slaves (maxpage + n').
        if run.spec.partitioning == "page":
            self._send(2 * delta, lambda: self._collect_maxpage(run, n_new, epoch))
        else:
            self._send(2 * delta, lambda: self._collect_intervals(run, n_new, epoch))
        self._schedule(ADJUST_TIMEOUT, lambda: self._adjust_deadline(run, epoch))

    def _send(self, delay: float, callback) -> None:
        """One protocol leg; the injector may drop or delay it."""
        if self.injector is not None:
            fate, extra = self.injector.message_fate(self.clock)
            if fate == "drop":
                return  # never delivered; the round hangs until timeout
            delay += extra
        self._schedule(delay, callback)

    def _stale(self, run: _TaskRun, epoch: int) -> bool:
        """Is a protocol leg from an aborted (timed-out) round arriving?"""
        return not run.adjusting or run.adjust_epoch != epoch

    def _collect_maxpage(self, run: _TaskRun, n_new: int, epoch: int) -> None:
        """Figure 5: compute maxpage from slave cursors, broadcast."""
        if self._stale(run, epoch):
            return
        # Retired slaves report their *final* cursor: a stride that
        # already ran to completion must keep its pages claimed, or the
        # new strides would re-cover (double-process) them.
        cursors = [s.cursor for s in run.slaves.values()]
        maxpage = max(cursors) if cursors else run.spec.n_pages
        delta = self.machine.signal_latency
        self._send(
            delta, lambda: self._apply_page_adjustment(run, n_new, maxpage, epoch)
        )

    def _apply_page_adjustment(
        self, run: _TaskRun, n_new: int, maxpage: int, epoch: int
    ) -> None:
        if self._stale(run, epoch):
            return
        # Slaves keep reading between reporting curpage and receiving
        # maxpage (the paper assumes that window is negligible; a
        # delayed leg makes it real).  The switch must not place the
        # boundary below any slave's current position, or the new
        # strides would re-cover pages processed during the window.
        live = [s for s in run.slaves.values() if not s.retired]
        maxpage, strides = maxpage_round(
            [s.segments for s in live],
            [maxpage] + [s.cursor for s in run.slaves.values()],
            run.spec.n_pages,
            n_new,
        )
        for slave, segments in zip(self._owners(run, len(strides)), strides):
            slave.segments = segments
        self._finish_round(run, n_new, "page", {"maxpage": maxpage})

    def _collect_intervals(self, run: _TaskRun, n_new: int, epoch: int) -> None:
        """Figure 6: gather remaining intervals, repartition, resume."""
        if self._stale(run, epoch):
            return
        harvest: dict[int, list[tuple[int, int]]] = {}
        remaining: list[tuple[int, int]] = []
        for slave in run.slaves.values():
            if slave.retired:
                continue
            got = slave.remaining_intervals()
            harvest[slave.slave_id] = got
            remaining.extend(got)
            slave.intervals = []
            slave.paused = True
        run.harvest = harvest
        delta = self.machine.signal_latency
        self._send(
            delta,
            lambda: self._apply_range_adjustment(run, n_new, remaining, epoch),
        )

    def _apply_range_adjustment(
        self,
        run: _TaskRun,
        n_new: int,
        remaining: list[tuple[int, int]],
        epoch: int,
    ) -> None:
        if self._stale(run, epoch):
            return
        run.harvest = None
        # Near-equal shares of the remaining keys; a slave may receive
        # several intervals (the paper allows this).  A crash
        # replacement spawned mid-round was never harvested: extending
        # keeps its re-read singleton alongside the new share instead
        # of overwriting (losing) it.
        shares = repartition_intervals(remaining, n_new)
        for share, slave in zip(shares, self._owners(run, n_new)):
            slave.intervals.extend(share)
        keys = sum(hi - lo + 1 for lo, hi in remaining)
        self._finish_round(run, n_new, "range", {"keys": keys})

    def _owners(self, run: _TaskRun, positions: int) -> list[_Slave]:
        """The slaves a round deals to, by position: the survivors in
        slave-id order, then fresh slaves up to ``positions``.  New
        strides or shares go to the first n'; survivors beyond n'
        finish what they still hold and retire."""
        owners = [s for s in run.slaves.values() if not s.retired]
        while len(owners) < positions:
            owners.append(self._spawn_slave(run))
        return owners

    def _finish_round(
        self, run: _TaskRun, n_new: int, kind: str, detail: dict
    ) -> None:
        """What both apply steps end with: slaves resume on their new
        assignment, the run is declared ``n_new`` wide, and the round
        boundary is offered to every collaborator."""
        self._kick_idle(run)
        run.parallelism = n_new
        run.adjust_epoch += 1
        run.adjusting = False
        run.history.append((self.clock, float(n_new)))
        tracer = self.tracer
        if tracer is not None:
            tracer.span(
                f"adjust({kind}) x={n_new}",
                t=run.adjust_started_at,
                dur=self.clock - run.adjust_started_at,
                track=f"task:{run.task.name}",
                cat="adjust",
                args={"n_new": n_new, **detail},
            )
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_site(self, run, "adjust")
        self._maybe_complete(run)
        self._maybe_checkpoint()

    def _adjust_deadline(self, run: _TaskRun, epoch: int) -> None:
        """Abort a hung adjustment round instead of wedging the run.

        Harvested range intervals are handed back to their owners —
        or restarted on fresh slaves when the owner crashed mid-round —
        so page conservation survives the abort.  The policy is consulted
        again, but with two tasks running INTER-WITH-ADJ decides nothing:
        an aborted shrink leaves the pair above N until a completion.
        """
        if self._stale(run, epoch) or run.task.task_id not in self.runs:
            return  # the round completed (or the task did) in time
        run.adjust_epoch += 1
        run.adjusting = False
        if self.injector is not None:
            log = self.injector.log
            log.adjust_timeouts += 1
            log.adjust_aborts += 1
            log.record(
                self.clock,
                "timeout",
                f"adjustment of {run.task.name!r} timed out after "
                f"{ADJUST_TIMEOUT:g}s; aborted",
            )
        if self.tracer is not None:
            self._instant("adjust:abort", run.task, "adjust", {"timeout": ADJUST_TIMEOUT})
        harvest, run.harvest = run.harvest, None
        for slave_id, intervals in sorted((harvest or {}).items()):
            if not intervals:
                continue
            owner = run.slaves.get(slave_id)
            if owner is None or owner.retired:
                # The stride's owner died mid-round: restart it on a
                # fresh slave so its keys are not lost.
                owner = self._spawn_slave(run)
            owner.intervals.extend(intervals)
        self._kick_idle(run)
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_site(self, run, "abort")
        self._maybe_complete(run)
        self._consult()

    # -- crashes, cancellation and the collaborators' hooks --------------------------

    def _reread(self, run: _TaskRun, slave: _Slave, page: int) -> None:
        """Put a page whose read never completed — its reader crashed,
        or a checkpoint was cut mid-read — at the head of ``slave``'s
        work as a singleton stride / interval.  After the re-read a
        page-mode cursor lands back on the position it held, so the
        stride resumes in place."""
        if self.injector is not None:
            self.injector.log.pages_reread += 1
        if run.page_mode:
            slave.segments.insert(
                0, PageAssignment(lo=page, hi=page, stride=1, residue=0)
            )
            slave.cursor = 0
        else:
            slave.intervals.insert(0, (page, page))

    def _crash_slave(self, run: _TaskRun, slave: _Slave) -> None:
        """Kill one slave; the master restarts its stride so no page is lost.

        The crashed slave's unclaimed pages (and its in-flight page,
        which never completed) move to a fresh replacement slave.  Any
        events still referencing the dead slave are ignored when they
        fire, and its queued request is dropped here, unserved.
        """
        injector = self.injector
        assert injector is not None
        slave.crashed = True
        slave.retired = True
        self._purge_crashed()
        injector.log.crashes += 1
        injector.log.record(
            self.clock,
            "crash",
            f"{run.task.name}: slave {slave.slave_id} died"
            + (
                f" holding page {slave.inflight_page}"
                if slave.busy and slave.inflight_page is not None
                else ""
            ),
        )
        if self.tracer is not None:
            self._instant(
                f"crash slave {slave.slave_id}",
                run.task,
                "fault",
                {"slave": slave.slave_id},
            )
        # The replacement inherits whichever the partitioning uses: the
        # stride segments and cursor, or the unclaimed intervals.
        # Intervals already harvested by an in-flight Figure-6 round
        # stay with the master (run.harvest): they are redistributed by
        # the apply step or by the abort path.
        replacement = self._spawn_slave(run)
        replacement.segments, slave.segments = slave.segments, []
        replacement.cursor = slave.cursor
        replacement.intervals, slave.intervals = slave.remaining_intervals(), []
        if slave.busy and slave.inflight_page is not None:
            self._reread(run, replacement, slave.inflight_page)
        self._slave_next(run, replacement)
        invariants = self.invariants
        if invariants is not None:
            invariants.micro_site(self, run, "crash")
        self._maybe_complete(run)

    def _cancel_run(self, run: _TaskRun, reason: str) -> None:
        """Cooperatively cancel a *running* task, releasing everything.

        Slaves are marked crashed+retired, which the event loop treats
        as "drop on sight": in-flight io and cpu completions free their
        disk and processor; their queued requests are purged here,
        unserved.  Bumping the adjustment epoch stales
        any in-flight protocol leg or timeout timer, so a mid-round cancel
        can never wedge (or double-abort) an adjustment round.
        """
        task = run.task
        run.adjust_epoch += 1
        run.adjusting = False
        run.harvest = None
        self.occupancy_cancelled += _history_occupancy(run.history, self.clock)
        for slave in run.slaves.values():
            slave.crashed = True
            slave.retired = True
            slave.paused = False
            slave.segments = []
            slave.intervals = []
        self._purge_crashed()
        del self.runs[task.task_id]
        self.cancel(task, reason, started_at=run.started_at, pages_done=run.pages_done)

    def _purge_crashed(self) -> None:
        """Drop every queued request of a crashed slave, unserved, so
        no dispatch has to filter them."""
        for queue in self._disk_queues:
            if any(entry[1].crashed for entry in queue):
                live = [entry for entry in queue if not entry[1].crashed]
                queue.clear()
                queue.extend(live)

    def cancel_task(self, task: Task, reason: str) -> None:
        run = self.runs.get(task.task_id)
        if run is None:
            self.cancel(task, reason)
        else:
            self._cancel_run(run, reason)
            self._reconsult = True

    def shed_task(self, task: Task) -> None:
        super().shed_task(task)
        if self.tracer is not None:
            self._instant("shed", task, "admission")

    def _instant(self, name: str, task: Task, cat: str, args=None) -> None:
        self.tracer.instant(
            name, t=self.clock, track=f"task:{task.name}", cat=cat, args=args
        )

    def task_cancelled(self, record, where) -> None:
        """Fault-log and trace one of the ledger's new cancel records."""
        if self.injector is not None:
            self.injector.task_cancelled(record, where, self.clock)
        tracer = self.tracer
        if tracer is not None:
            task, reason = record.task, record.reason
            self._instant(f"cancel ({reason})", task, "cancel", {"reason": reason})
            if where is None:  # a run ended: sample before the cone's instants
                tracer.counter(
                    "running_tasks", t=self.clock, value=float(len(self.runs))
                )

    def _maybe_checkpoint(self) -> None:
        """Offer the recovery manager a snapshot at a round boundary.

        Called only on cold paths (task start, adjustment apply, task
        completion); one None check when recovery is off.  Capture is
        skipped while any adjustment round is in flight — a round
        boundary is precisely when no protocol leg is pending.
        """
        recovery = self.recovery
        if recovery is None:
            return
        if any(r.adjusting for r in self.runs.values()):
            return
        checkpoint = recovery.capture(self)
        if checkpoint is not None and self.tracer is not None:
            self.tracer.instant(
                "checkpoint",
                t=self.clock,
                track="recovery",
                cat="recovery",
                args={"pages_done": checkpoint.pages_done},
            )
