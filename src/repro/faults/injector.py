"""The fault injector: live fault state plus the fault log.

The injector is the bridge between a pure :class:`FaultSchedule` and an
execution engine.  :meth:`FaultInjector.attach` arms every fault's
instants on the engine's event heap (``engine._schedule``); each one
fires back into the handler its fault type named, which logs it, traces
it on ``engine.tracer`` and — for the three kinds that touch the run —
reaches the engine through one mechanism each: crash this slave
(``engine._crash_slave``), cancel this task (``engine.cancel_task`` +
``engine._consult``), raise :class:`~repro.errors.MasterCrashError`.
The engine is duck-typed; nothing here imports :mod:`repro.sim`.  The
injector tracks:

* per disk, the bandwidth factor ``mult`` (the product of the active
  :class:`~repro.faults.schedule.DiskDegradation` windows, in activation
  order) and the stall end ``stall``: the engine's own lists once
  :meth:`attach` adopts them, written only by the handlers, at fault instants;
* which :class:`~repro.faults.schedule.MessageFault` is next in line
  (:meth:`message_fate` consumes them in ``at`` order);
* a seeded RNG used for crash-target picks, so a schedule that says
  "crash *someone*" is still deterministic per seed;
* the :class:`FaultLog` — every injected fault and every tolerance
  action (re-read pages, aborted adjustment rounds) as a timestamped,
  byte-reproducible trace.

One injector serves one engine run.  :meth:`reset` rewinds it so the
same instance can drive a repeat run (the determinism tests do).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import FaultError, MasterCrashError
from .schedule import (
    DiskDegradation,
    DiskStall,
    FaultSchedule,
    MasterCrash,
    QueryDeadline,
    SlaveCrash,
)


@dataclass
class FaultLog:
    """Timestamped trace and counters of one faulted run."""

    events: list[tuple[float, str, str]] = field(default_factory=list)
    degradations: int = 0
    stalls: int = 0
    crashes: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    pages_reread: int = 0
    adjust_timeouts: int = 0
    adjust_aborts: int = 0
    master_crashes: int = 0
    deadline_cancels: int = 0

    def record(self, t: float, kind: str, detail: str) -> None:
        """Append one ``(t, kind, detail)`` event."""
        self.events.append((t, kind, detail))

    @property
    def faults_injected(self) -> int:
        """Total faults that actually fired (not merely scheduled)."""
        return (
            self.degradations
            + self.stalls
            + self.crashes
            + self.messages_dropped
            + self.messages_delayed
            + self.master_crashes
            + self.deadline_cancels
        )

    def to_lines(self) -> list[str]:
        """The event trace as stable, printable lines."""
        return [
            f"t={t:10.3f}  {kind:<8s} {detail}" for t, kind, detail in self.events
        ]


class FaultInjector:
    """Live fault state for one engine run (see the module docstring).

    Args:
        schedule: the fault plan.
        seed: seeds the RNG used for unspecified crash targets.
    """

    def __init__(self, schedule: FaultSchedule, *, seed: int = 0) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise FaultError("injector needs a FaultSchedule")
        self.schedule = schedule
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        """Rewind all live state for a fresh run of the same schedule."""
        self.engine = None
        self.rng = random.Random(self.seed)
        self.log = FaultLog()
        self._active: dict[int, list[DiskDegradation]] = {}
        # Per-disk bandwidth factor and stall end, sized to the disks the
        # schedule names; attach() swaps in the engine's own lists.
        disks = 1 + max((getattr(f, "disk", -1) for f in self.schedule), default=-1)
        self.mult = [1.0] * disks
        self.stall = [0.0] * disks
        self._message_queue = sorted(
            self.schedule.message_faults, key=lambda f: f.at
        )

    # -- arming -------------------------------------------------------------------

    def attach(self, engine, *, resumed: bool) -> None:
        """Arm every scheduled fault on ``engine``'s event heap.

        Delays are relative to the engine's clock (0 on a fresh run,
        the checkpoint time on a ``resumed`` one) and clamp at zero, so
        a window already open at resume time begins immediately; a
        resumed run skips the faults its clock has already spent.
        Rejects a malformed schedule before anything is armed.
        """
        self.schedule.validate_against(engine.machine.disks)
        # The handlers now write the per-disk lists the engine serves by.
        self.mult, self.stall = engine._mult, engine._stall
        self.engine = engine
        now = engine.clock
        for fault in self.schedule:
            if resumed and fault.spent(now):
                continue
            for at, handler in fault.fires(self):
                engine._schedule(
                    max(0.0, at - now),
                    lambda fault=fault, handler=handler: handler(
                        fault, engine.clock
                    ),
                )
        if resumed:
            # A resumed run cannot know which message faults the crashed
            # attempt consumed: every one timed up to the checkpoint is spent.
            self._message_queue = [f for f in self._message_queue if f.at > now]

    def _trace(self, name: str, now: float, track: str, args=None) -> None:
        """One fault instant on the attached engine's tracer, if any."""
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None:
            tracer.instant(name, t=now, track=track, cat="fault", args=args)

    # -- disk degradation ---------------------------------------------------------

    def begin_degradation(self, fault: DiskDegradation, now: float) -> None:
        """Activate a degradation window."""
        self._active.setdefault(fault.disk, []).append(fault)
        self._refresh_mult(fault.disk)
        self.log.degradations += 1
        self.log.record(
            now,
            "degrade",
            f"disk {fault.disk} at {fault.factor:.0%} bandwidth "
            f"for {fault.duration:g}s",
        )
        self._trace(
            f"degrade x{fault.factor:g}",
            now,
            f"disk:{fault.disk}",
            {"factor": fault.factor},
        )

    def end_degradation(self, fault: DiskDegradation, now: float) -> None:
        """Deactivate a degradation window."""
        active = self._active.get(fault.disk, [])
        if fault in active:
            active.remove(fault)
            self._refresh_mult(fault.disk)
            self.log.record(now, "recover", f"disk {fault.disk} back to full bandwidth")
        self._trace("degrade:end", now, f"disk:{fault.disk}")

    def _refresh_mult(self, disk_id: int) -> None:
        """One disk's factor: its active windows' product, in activation order."""
        factor = 1.0
        for fault in self._active[disk_id]:
            factor *= fault.factor
        self.mult[disk_id] = factor

    # -- disk stalls --------------------------------------------------------------

    def begin_stall(self, fault: DiskStall, now: float) -> None:
        """Freeze a disk until the stall's end (a shorter one never shortens it)."""
        self.stall[fault.disk] = max(self.stall[fault.disk], fault.end)
        self.log.stalls += 1
        self.log.record(
            now, "stall", f"disk {fault.disk} frozen for {fault.duration:g}s"
        )
        self._trace(
            f"stall {fault.duration:g}s",
            now,
            f"disk:{fault.disk}",
            {"duration": fault.duration},
        )

    # -- protocol messages --------------------------------------------------------

    def message_fate(self, now: float) -> tuple[str, float]:
        """Fate of the next protocol leg sent at ``now``.

        Consumes at most one pending :class:`MessageFault` whose ``at``
        has passed.  Returns ``("ok", 0.0)``, ``("drop", 0.0)`` or
        ``("delay", extra_seconds)``.
        """
        if self._message_queue and self._message_queue[0].at <= now:
            fault = self._message_queue.pop(0)
            if fault.kind == "drop":
                self.log.messages_dropped += 1
                self.log.record(now, "drop", "protocol message lost")
                return "drop", 0.0
            self.log.messages_delayed += 1
            self.log.record(
                now, "delay", f"protocol message delayed {fault.extra:g}s"
            )
            return "delay", fault.extra
        return "ok", 0.0

    # -- crashes ------------------------------------------------------------------

    def crash_slave(self, fault: SlaveCrash, now: float) -> None:
        """Pick the victim (seeded where the fault leaves it open) and
        have the engine crash it."""
        engine = self.engine
        runs = sorted(engine.runs.values(), key=lambda r: r.task.task_id)
        if fault.task is not None:
            runs = [r for r in runs if r.task.name == fault.task]
        if not runs:
            self.log.record(now, "no-op", "crash fault found no running task")
            return
        run = runs[0] if fault.task is not None else runs[self.rng.randrange(len(runs))]
        active = [
            s
            for s in sorted(run.slaves.values(), key=lambda s: s.slave_id)
            if not s.retired
        ]
        if not active:
            self.log.record(
                now, "no-op", f"{run.task.name}: no live slave to crash"
            )
            return
        if fault.slave_index is not None:
            slave = active[fault.slave_index % len(active)]
        else:
            slave = active[self.rng.randrange(len(active))]
        engine._crash_slave(run, slave)

    def crash_master(self, fault: MasterCrash, now: float) -> None:
        """The whole engine dies: record it and unwind out of its run.

        The caller (typically :func:`repro.recovery.run_with_recovery`)
        restarts from the newest checkpoint.
        """
        recovery = self.engine.recovery
        checkpoint_at = (
            recovery.last_checkpoint_at if recovery is not None else None
        )
        self.log.master_crashes += 1
        error = MasterCrashError(now, checkpoint_at)
        self.log.record(now, "mcrash", str(error))
        self._trace(
            "master crash", now, "recovery", {"checkpoint_at": checkpoint_at}
        )
        raise error

    # -- cooperative cancellation (deadlines) -------------------------------------

    def expire_deadline(self, fault: QueryDeadline, now: float) -> None:
        """A query's deadline passed: cancel it wherever it is.

        Completed queries are left alone (a deadline firing after the
        finish line is a logged no-op); running queries cancel
        cooperatively at this event boundary; queued or not-yet-arrived
        queries are dropped before doing any work.  The policy is
        consulted again unless the task had not even arrived.
        """
        engine = self.engine
        name = fault.task
        if any(record.task.name == name for record in engine.records):
            self.log.record(now, "no-op", f"deadline: {name!r} already complete")
            return
        for arrived, tasks in (
            (True, [run.task for run in engine.runs.values()]),
            (True, engine.waiting),
            (False, [entry[2] for entry in engine.arrivals]),
        ):
            for task in tasks:
                if task.name == name:
                    engine.cancel_task(task, "deadline")
                    if arrived:
                        engine._consult()
                    return
        self.log.record(now, "no-op", f"deadline: no task named {name!r}")

    def task_cancelled(self, record, where: str | None, now: float) -> None:
        """Log one of the engine ledger's new cancel records (whoever
        asked for it: a deadline here, or the policy)."""
        when = {
            None: f"after {record.pages_done} pages",
            "waiting": "before start",
            "arrivals": "before arrival",
        }[where]
        self.log.deadline_cancels += 1
        self.log.record(
            now,
            "cancel",
            f"{record.task.name}: cancelled ({record.reason}) {when}",
        )
