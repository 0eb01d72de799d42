"""The recovery manager and the crash/resume driver.

:class:`RecoveryManager` is the engine-side half: the micro engine
offers it a snapshot at every adjustment-round boundary
(``engine._maybe_checkpoint``) and it keeps the newest one, optionally
rate-limited by ``min_interval`` of virtual time.

:func:`run_with_recovery` is the driver: it runs a faulted workload,
catches each :class:`~repro.errors.MasterCrashError`, and relaunches
the simulation from the newest checkpoint — consuming one scheduled
``master-crash`` per attempt so the same crash cannot fire twice.  With
checkpointing disabled the same driver measures the restart-from-scratch
baseline the recovery benchmark compares against.

Everything is virtual time.  ``lost_work`` is the virtual time between
the resumed-from point and the crash — the work the crash destroyed —
and ``total_elapsed`` charges it on top of the final attempt's clock,
so checkpointed and from-scratch runs are compared on the same axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.schedulers import SchedulingPolicy
from ..errors import MasterCrashError, RecoveryError
from ..faults.schedule import FaultSchedule, MasterCrash
from ..sim.fluid import ScheduleResult
from ..sim.micro import MicroSimulator, ScanSpec
from .checkpoint import Checkpoint

#: Attempts :func:`run_with_recovery` makes before it gives up: a safety
#: valve against schedules that crash faster than the run can progress.
MAX_ATTEMPTS = 16


class RecoveryManager:
    """Keeps the newest :class:`Checkpoint` of one (logical) run.

    Args:
        enabled: when False, :meth:`capture` is a no-op — the manager
            becomes the "restart from scratch" arm of the benchmark.
        min_interval: minimum virtual seconds between captures (0 =
            capture at every round boundary).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        min_interval: float = 0.0,
    ) -> None:
        if min_interval < 0:
            raise RecoveryError("min_interval must be >= 0")
        self.enabled = enabled
        self.min_interval = min_interval
        self.last: Checkpoint | None = None
        self.captures = 0
        self.restores = 0

    @property
    def last_checkpoint_at(self) -> float | None:
        """Virtual time of the newest checkpoint, or ``None``."""
        return self.last.taken_at if self.last is not None else None

    def capture(self, engine) -> Checkpoint | None:
        """Snapshot ``engine`` if enabled and past the rate limit; the
        new checkpoint, or ``None`` when none was taken."""
        if not self.enabled:
            return None
        last = self.last
        if (
            last is not None
            and engine.clock - last.taken_at < self.min_interval
        ):
            return None
        self.last = Checkpoint.capture(engine)
        self.captures += 1
        return self.last


@dataclass
class RecoveryRun:
    """Outcome of one :func:`run_with_recovery` drive.

    Attributes:
        result: the final (completed) attempt's schedule result.
        attempts: total simulation attempts (crashes + 1).
        crashes: master crashes survived.
        lost_work: virtual seconds of re-executed work — for each
            crash, crash time minus the resumed-from time.
        checkpoints: checkpoints captured across all attempts.
        restores: attempts that started from a checkpoint.
        recovery_points: the virtual time each crash resumed from
            (0.0 = from scratch), one entry per crash.
    """

    result: ScheduleResult
    attempts: int
    crashes: int
    lost_work: float
    checkpoints: int
    restores: int
    recovery_points: list[float] = field(default_factory=list)

    @property
    def total_elapsed(self) -> float:
        """Final-attempt clock plus every crash's destroyed work.

        The comparable wall-clock of the whole crash-and-recover story:
        a from-scratch driver re-executes ``[0, crash)`` per crash, a
        checkpointed one only ``[checkpoint, crash)``.
        """
        return self.result.elapsed + self.lost_work


def run_with_recovery(
    simulator: MicroSimulator,
    specs: list[ScanSpec],
    policy: SchedulingPolicy,
    *,
    manager: RecoveryManager | None = None,
) -> RecoveryRun:
    """Drive a faulted run to completion across master crashes.

    Each attempt runs ``simulator`` with the not-yet-consumed
    ``master-crash`` faults; when one fires, it is consumed (a crash
    is a one-shot event — the restarted master does not re-die at the
    same instant) and the next attempt resumes from the manager's
    newest checkpoint — or from scratch when there is none, which is
    exactly the baseline arm when ``manager.enabled`` is False.

    Args:
        simulator: a configured :class:`MicroSimulator`; its fault
            schedule supplies the master crashes.
        specs: the workload.
        policy: the scheduling policy.
        manager: the checkpoint store; defaults to ``simulator.recovery``
            or, failing that, a fresh enabled manager.

    Raises:
        RecoveryError: :data:`MAX_ATTEMPTS` attempts all crashed.
    """
    if manager is None:
        manager = simulator.recovery or RecoveryManager()
    simulator.recovery = manager
    schedule = simulator.faults or FaultSchedule()
    remaining = list(schedule.master_crashes)
    others = tuple(
        f for f in schedule.faults if not isinstance(f, MasterCrash)
    )
    attempts = 0
    crashes = 0
    lost_work = 0.0
    recovery_points: list[float] = []
    for __ in range(MAX_ATTEMPTS):
        simulator.faults = FaultSchedule(others + tuple(remaining))
        attempts += 1
        resume_from = manager.last
        try:
            result = simulator.run(specs, policy, resume_from=resume_from)
        except MasterCrashError as crash:
            crashes += 1
            if remaining:
                remaining.pop(0)
            # Work between the crash and whatever the *next* attempt
            # will resume from is destroyed.  The manager may have
            # captured newer checkpoints during this attempt, so
            # measure against its current newest, not resume_from.
            next_resume = manager.last_checkpoint_at
            start_over = next_resume if next_resume is not None else 0.0
            lost_work += max(0.0, crash.at - start_over)
            recovery_points.append(start_over)
            continue
        return RecoveryRun(
            result=result,
            attempts=attempts,
            crashes=crashes,
            lost_work=lost_work,
            checkpoints=manager.captures,
            restores=manager.restores,
            recovery_points=recovery_points,
        )
    raise RecoveryError(
        f"workload did not complete within {MAX_ATTEMPTS} attempts "
        f"({crashes} master crashes)"
    )
