"""Checkpoint snapshots of the micro engine's schedule state.

A :class:`Checkpoint` captures everything needed to resume a run
byte-deterministically from an adjustment-round boundary: pages served
per fragment, each slave's stride/interval position, disk head
positions, the balance-relevant accounting sums and the engine's RNG
state.  It deliberately captures *no* event-heap entries: at a round
boundary every live slave is either mid-page (its in-flight page is
re-read on resume, exactly like a crash replacement re-reads a dead
slave's page) or retired, so the heap is reconstructible.

Snapshots are plain frozen dataclasses of ints/floats/tuples, kept in
memory: the recovery manager holds the newest one and a resumed run
takes that object, so no checkpoint is ever serialised.

:meth:`Checkpoint.capture` reads a snapshot off a live engine and
:meth:`Checkpoint.restore` replays one into a freshly constructed
engine.  Both are duck-typed over the micro engine (as
``InvariantChecker.micro_site`` is), so this package imports nothing
from :mod:`repro.sim`; the engine lends its own mechanisms for the
parts that are its business — ``_new_run``, ``_spawn_slave``,
``_reread`` (the in-flight page as a singleton stride / interval, what a
crash replacement does) and ``_kick_idle``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.task import IOPattern
from ..errors import RecoveryError
from ..parallel.partition import PageAssignment

#: The micro engine's arrival tolerance (DESIGN.md, "Engine contract").
_EPS = 1e-12


@dataclass(frozen=True)
class SlaveSnapshot:
    """One slave backend's position at checkpoint time.

    Attributes:
        slave_id: the slave's id within its run.
        cursor: next page candidate (page partitioning).
        segments: ``(lo, hi, stride, residue)`` stride segments.
        intervals: ``(lo, hi)`` key intervals (range partitioning).
        retired: the slave has no more work.
        crashed: the slave was killed by fault injection (kept because
            its final cursor still feeds the maxpage computation).
        inflight: the page (or key) the slave was reading, or ``None``.
            A resumed engine re-reads it — the page never completed in
            the checkpointed world.
    """

    slave_id: int
    cursor: int
    segments: tuple[tuple[int, int, int, int], ...]
    intervals: tuple[tuple[int, int], ...]
    retired: bool
    crashed: bool
    inflight: int | None


@dataclass(frozen=True)
class TaskSnapshot:
    """One running task's schedule state at checkpoint time.

    Tasks are identified by *name* — task ids regenerate on resume —
    so checkpointed workloads must use unique task names (the engine's
    workload generators always do).
    """

    name: str
    parallelism: int
    started_at: float
    pages_done: int
    next_slave_id: int
    block_base: int
    history: tuple[tuple[float, float], ...]
    #: Page -> physical page permutation for RANDOM scans; ``None``
    #: means the identity order (sequential scans), kept out of the
    #: snapshot to keep checkpoints small.
    order: tuple[int, ...] | None
    slaves: tuple[SlaveSnapshot, ...]


@dataclass(frozen=True)
class DiskSnapshot:
    """One disk's head/stream memory and accumulated accounting."""

    streams: tuple[int, ...]
    busy_time: float
    sequential: int
    almost_sequential: int
    random: int


@dataclass(frozen=True)
class RecordSnapshot:
    """One already-completed task's record (replayed into the resume)."""

    name: str
    started_at: float
    finished_at: float
    history: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Checkpoint:
    """A complete resumable snapshot of one micro-engine run."""

    taken_at: float
    seed: int
    rng_state: tuple
    block_cursor: int
    #: Redundant with ``disks`` (the per-regime counters, summed) on
    #: purpose: the engine refuses to resume when the two disagree.
    io_count: int
    cpu_busy_time: float
    adjustments: int
    peak_memory: float
    measured_mult: tuple[float, ...]
    running: tuple[TaskSnapshot, ...]
    completed: tuple[RecordSnapshot, ...]
    disks: tuple[DiskSnapshot, ...]

    @classmethod
    def capture(cls, engine) -> "Checkpoint":
        """Snapshot ``engine``'s schedule state.

        Valid at round boundaries: every live slave is either busy on
        exactly one page (re-read on resume) or retired, and no
        adjustment protocol leg is in flight.
        """
        running = []
        for run in sorted(engine.runs.values(), key=lambda r: r.task.task_id):
            slaves = tuple(
                SlaveSnapshot(
                    slave_id=slave.slave_id,
                    cursor=slave.cursor,
                    segments=tuple(
                        (seg.lo, seg.hi, seg.stride, seg.residue)
                        for seg in slave.segments
                    ),
                    intervals=tuple(slave.intervals),
                    retired=slave.retired,
                    crashed=slave.crashed,
                    inflight=(
                        slave.inflight_page
                        if slave.busy and not slave.crashed
                        else None
                    ),
                )
                for slave in sorted(run.slaves.values(), key=lambda s: s.slave_id)
            )
            running.append(
                TaskSnapshot(
                    name=run.task.name,
                    parallelism=run.parallelism,
                    started_at=run.started_at,
                    pages_done=run.pages_done,
                    next_slave_id=run.next_slave_id,
                    block_base=run.block_base,
                    history=tuple(run.history),
                    order=(
                        tuple(run.order)
                        if run.spec.pattern == IOPattern.RANDOM
                        else None
                    ),
                    slaves=slaves,
                )
            )
        return cls(
            taken_at=engine.clock,
            seed=engine.seed,
            rng_state=engine._rng.getstate(),
            block_cursor=engine._block_cursor,
            io_count=engine.io_count,
            cpu_busy_time=engine.cpu_busy_time,
            adjustments=engine.adjustments,
            peak_memory=engine.peak_memory,
            measured_mult=tuple(engine._measured_mult),
            running=tuple(running),
            completed=tuple(
                RecordSnapshot(
                    name=r.task.name,
                    started_at=r.started_at,
                    finished_at=r.finished_at,
                    history=r.parallelism_history,
                )
                for r in engine.records
            ),
            disks=tuple(
                DiskSnapshot(
                    streams=tuple(d._streams),
                    busy_time=d.busy_time,
                    sequential=d.counters.sequential,
                    almost_sequential=d.counters.almost_sequential,
                    random=d.counters.random,
                )
                for d in engine.disks
            ),
        )

    def restore(self, engine) -> None:
        """Rebuild a just-constructed ``engine``'s state from this
        checkpoint (before its faults are armed).

        Tasks are matched by *name* against the engine's workload.  Each
        slave that was mid-page re-reads its in-flight page through the
        same singleton mechanism a crash replacement uses, so page
        conservation holds across the resume.
        """
        disks = engine.disks
        if len(self.disks) != len(disks) or len(self.measured_mult) != len(disks):
            raise RecoveryError(
                f"checkpoint has {len(self.disks)} disks, machine has "
                f"{len(disks)}"
            )
        engine.clock = self.taken_at
        engine._rng.setstate(self.rng_state)
        engine._block_cursor = self.block_cursor
        engine.cpu_busy_time = self.cpu_busy_time
        engine.adjustments = self.adjustments
        engine.peak_memory = self.peak_memory
        engine._measured_mult = list(self.measured_mult)
        for disk, snap in zip(disks, self.disks):
            disk._streams = list(snap.streams)
            disk.busy_time = snap.busy_time
            disk.counters.sequential = snap.sequential
            disk.counters.almost_sequential = snap.almost_sequential
            disk.counters.random = snap.random
        if self.io_count != engine.io_count:
            raise RecoveryError(
                f"checkpoint io_count {self.io_count} disagrees with its "
                f"per-disk counters, which total {engine.io_count}"
            )
        by_name = {}
        for task in engine.waiting + [e[2] for e in engine.arrivals]:
            if task.name in by_name:
                raise RecoveryError(
                    f"duplicate task name {task.name!r}: checkpoints match "
                    "tasks by name, so names must be unique"
                )
            by_name[task.name] = task

        def adopt(snap, state: str):
            if snap.name not in by_name:
                raise RecoveryError(
                    f"checkpoint records {state} task {snap.name!r} "
                    "missing from this workload"
                )
            task = by_name[snap.name]
            engine._take(task, unarrived=True)
            return task

        for rec in self.completed:
            engine.complete(
                adopt(rec, "completed"), rec.started_at, rec.finished_at, rec.history
            )
        for snap in self.running:
            run = engine._new_run(
                adopt(snap, "running"),
                snap.parallelism,
                snap.started_at,
                snap.block_base,
            )
            run.pages_done = snap.pages_done
            run.history = list(snap.history)
            if snap.order is not None:
                run.order = list(snap.order)
            for s in snap.slaves:
                run.next_slave_id = s.slave_id  # the id the spawn takes
                slave = engine._spawn_slave(run)
                slave.cursor = s.cursor
                slave.retired = s.retired
                slave.crashed = s.crashed
                slave.segments = [PageAssignment(*seg) for seg in s.segments]
                slave.intervals = list(s.intervals)
                if s.inflight is not None:
                    engine._reread(run, slave, s.inflight)
            run.next_slave_id = snap.next_slave_id
        engine.admit_due(engine.clock + _EPS)
        # Kick every idle slave: the previously-busy ones claim their
        # re-read singleton and issue its io at the restored clock.
        for run in sorted(engine.runs.values(), key=lambda r: r.task.task_id):
            engine._kick_idle(run)
        if engine.recovery is not None:
            engine.recovery.restores += 1

    @property
    def pages_done(self) -> int:
        """Pages completed across all running tasks at capture time."""
        return sum(t.pages_done for t in self.running)

