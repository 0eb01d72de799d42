"""The chaos harness: the page-level simulator under injected faults.

One chaos run takes a mixed scan workload (an IO-bound scan, a
CPU-bound scan and a random-access range scan — the same shape the
paper's experiments stress), runs it healthy to measure a baseline,
then replays it under a :class:`~repro.faults.schedule.FaultSchedule`
with the degradation-aware INTER-WITH-ADJ policy and the hardened
adjustment protocol.  The :class:`ChaosReport` carries both runs, the
fault log and the tolerance verdict:

* every page processed exactly once (the engine raises on violation and
  a task cannot complete with pages missing);
* every adjustment timeout resolved by abort-and-restart — the number
  of aborts equals the number of timeouts, i.e. no round wedged;
* no runtime invariant violated: the faulted arm runs under an
  :class:`~repro.check.InvariantChecker`, across every resume too.

Everything is a pure function of ``(workload, schedule, seed)``, so two
identical invocations print byte-identical reports — the determinism
tests rely on it.

This module imports the simulators and therefore must NOT be imported
from ``repro.faults.__init__`` (the simulators import that package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check.invariants import InvariantChecker
from ..config import MachineConfig, paper_machine
from ..core.schedulers import InterWithAdjPolicy
from ..core.task import IOPattern
from ..errors import FaultError
from ..recovery.manager import RecoveryManager, RecoveryRun, run_with_recovery
from ..sim.fluid import ScheduleResult
from ..sim.micro import MicroSimulator, ScanSpec, spec_for_io_rate
from .injector import FaultLog
from .schedule import (
    FaultSchedule,
    MasterCrash,
    preset_schedule,
    random_schedule,
    with_deadlines,
)

#: Scan shapes of the standard chaos workload: (name, io rate in ios/s,
#: pages at full size, access pattern, partitioning protocol).
_WORKLOAD_SHAPE = (
    ("io0", 55.0, 1500, IOPattern.SEQUENTIAL, "page"),
    ("cpu0", 8.0, 400, IOPattern.SEQUENTIAL, "page"),
    ("rnd0", 20.0, 300, IOPattern.RANDOM, "range"),
)


#: Master-tick period, seconds: the policy needs ticks to notice
#: mid-task bandwidth drift.  Also the checkpoint interval of a run
#: that loses its master.
_TICK = 1.0

#: Names of the chaos workload's tasks: what a crash or deadline fault
#: drawn for it may name.
CHAOS_TASK_NAMES = tuple(shape[0] for shape in _WORKLOAD_SHAPE)

#: Workload seeds a chaos soak runs every schedule against.
SOAK_SEEDS = (0, 1, 2)


def scan_workload(
    machine: MachineConfig, shape, scale: float
) -> list[ScanSpec]:
    """One scan per ``shape`` row, page counts multiplied by ``scale``
    (never below 8).  Shared with the recovery harness."""
    return [
        spec_for_io_rate(
            name,
            machine,
            io_rate=io_rate,
            n_pages=max(int(n_pages * scale), 8),
            pattern=pattern,
            partitioning=partitioning,
        )
        for name, io_rate, n_pages, pattern, partitioning in shape
    ]


def chaos_workload(
    machine: MachineConfig, *, scale: float = 1.0
) -> list[ScanSpec]:
    """The standard three-scan chaos workload, optionally shrunk.

    ``scale`` multiplies every page count (the ``--smoke`` run uses a
    small fraction to stay under a second of wall clock).
    """
    if scale <= 0:
        raise FaultError("scale must be positive")
    return scan_workload(machine, _WORKLOAD_SHAPE, scale)


def random_chaos_schedule(
    seed: int, *, horizon: float, machine: MachineConfig | None = None
) -> FaultSchedule:
    """A seeded random schedule aimed at the chaos workload: its task
    names, the machine's disks.  What ``chaos --random`` replays and
    what every soak schedule starts from."""
    return random_schedule(
        seed,
        horizon=horizon,
        n_disks=(machine or paper_machine()).disks,
        task_names=CHAOS_TASK_NAMES,
    )


@dataclass
class ChaosReport:
    """Outcome of one chaos run (healthy baseline + faulted replay).

    ``recovery`` is set when the schedule contained ``master-crash``
    faults: the faulted arm is then driven by
    :func:`~repro.recovery.manager.run_with_recovery` and ``faulted``
    is the final (completed) attempt's result.  ``violations`` are the
    invariant checker's findings over every attempt of the faulted arm.
    """

    schedule: FaultSchedule
    seed: int
    healthy: ScheduleResult
    faulted: ScheduleResult
    recovery: RecoveryRun | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def log(self) -> FaultLog:
        """The faulted run's fault log."""
        assert self.faulted.fault_log is not None
        return self.faulted.fault_log

    @property
    def slowdown(self) -> float:
        """Faulted elapsed over healthy elapsed."""
        if self.healthy.elapsed <= 0:
            return 1.0
        return self.faulted.elapsed / self.healthy.elapsed

    @property
    def wedged_adjustments(self) -> int:
        """Timed-out rounds that did *not* resolve via abort (want 0)."""
        return self.log.adjust_timeouts - self.log.adjust_aborts

    @property
    def ok(self) -> bool:
        """Did the run tolerate every fault?

        Completion of every task implies page conservation: the engine
        raises on any page processed twice, and a task only completes
        once every page is processed.  Deadline-cancelled tasks are
        accounted explicitly — completed plus cancelled must cover the
        healthy run's task set, so nothing vanishes silently.  On top
        of that, every protocol timeout must have resolved via
        abort-and-restart, and no invariant may have been violated.
        """
        accounted = len(self.faulted.records) + len(
            self.faulted.cancel_records
        )
        return (
            accounted == len(self.healthy.records)
            and self.wedged_adjustments == 0
            and not self.violations
        )

    def to_lines(self) -> list[str]:
        """The report as stable, printable lines."""
        log = self.log
        lines = [
            f"chaos seed={self.seed} faults={len(self.schedule)} scheduled",
            f"healthy elapsed: {self.healthy.elapsed:.4f}s "
            f"({self.healthy.adjustments} adjustments)",
            f"faulted elapsed: {self.faulted.elapsed:.4f}s "
            f"({self.faulted.adjustments} adjustments, "
            f"slowdown {self.slowdown:.2f}x)",
            "fault log:",
            *("  " + line for line in log.to_lines()),
            "counters:",
            f"  faults injected:   {log.faults_injected}",
            f"  degradations:      {log.degradations}",
            f"  stalls:            {log.stalls}",
            f"  slave crashes:     {log.crashes}",
            f"  messages dropped:  {log.messages_dropped}",
            f"  messages delayed:  {log.messages_delayed}",
            f"  pages re-read:     {log.pages_reread}",
            f"  adjust timeouts:   {log.adjust_timeouts}",
            f"  adjust aborts:     {log.adjust_aborts}",
            f"  master crashes:    {log.master_crashes}",
            f"  deadline cancels:  {log.deadline_cancels}",
        ]
        if self.recovery is not None:
            rec = self.recovery
            lines += [
                "recovery:",
                f"  attempts:          {rec.attempts}",
                f"  checkpoints:       {rec.checkpoints}",
                f"  restores:          {rec.restores}",
                f"  lost work:         {rec.lost_work:.4f}s",
            ]
        lines += [f"invariant violated: {v}" for v in self.violations]
        cancelled = len(self.faulted.cancel_records)
        lines.append(
            f"verdict: {'OK' if self.ok else 'FAILED'} "
            f"({len(self.faulted.records)}+{cancelled}/"
            f"{len(self.healthy.records)} tasks, "
            f"{self.wedged_adjustments} wedged adjustments)"
        )
        return lines


def _policy() -> InterWithAdjPolicy:
    return InterWithAdjPolicy(integral=True, degradation_aware=True)


def _healthy(
    machine: MachineConfig, specs: list[ScanSpec], seed: int
) -> ScheduleResult:
    """The fault-free run a chaos replay is judged against."""
    return MicroSimulator(machine, seed=seed, consult_interval=_TICK).run(
        specs, _policy()
    )


def _replay(
    machine: MachineConfig,
    specs: list[ScanSpec],
    seed: int,
    schedule: FaultSchedule,
    healthy: ScheduleResult,
) -> ChaosReport:
    """Replay ``specs`` under ``schedule`` with the invariant checker on."""
    simulator = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=_TICK,
        faults=schedule,
        fault_seed=seed,
        invariants=InvariantChecker(collect=True),
    )
    recovery: RecoveryRun | None = None
    if schedule.master_crashes:
        # Master crashes abort the whole run; drive it to completion
        # through the checkpoint/resume loop.
        recovery = run_with_recovery(
            simulator,
            specs,
            _policy(),
            manager=RecoveryManager(min_interval=_TICK),
        )
        faulted = recovery.result
    else:
        faulted = simulator.run(specs, _policy())
    return ChaosReport(
        schedule=schedule,
        seed=seed,
        healthy=healthy,
        faulted=faulted,
        recovery=recovery,
        violations=simulator.invariants.violations,
    )


def run_chaos(
    *,
    schedule: FaultSchedule | None = None,
    preset: str = "mixed",
    seed: int = 0,
    scale: float = 1.0,
) -> ChaosReport:
    """One chaos run on the paper machine: healthy baseline, then the
    faulted replay.

    Args:
        schedule: explicit fault schedule; ``None`` derives one from
            ``preset`` scaled to the measured healthy elapsed time.
        preset: preset name used when ``schedule`` is ``None``.
        seed: seeds both the workload's random block orders and the
            injector's crash-target picks.
        scale: workload size multiplier (smoke runs shrink it).
    """
    machine = paper_machine()
    specs = chaos_workload(machine, scale=scale)
    healthy = _healthy(machine, specs, seed)
    if schedule is None:
        schedule = preset_schedule(preset, horizon=healthy.elapsed)
    return _replay(machine, specs, seed, schedule, healthy)


@dataclass
class SoakReport:
    """Aggregate verdict of a chaos soak (many schedules × seeds).

    A soak run is the recovery subsystem's endurance test: every run
    must conserve pages (completed + cancelled tasks cover the healthy
    task set), resolve every adjustment timeout and violate no runtime
    invariant — one wedged round or violation anywhere fails the whole
    soak.
    """

    n_schedules: int
    seeds: tuple[int, ...]
    runs: int = 0
    cancels: int = 0
    crashes: int = 0
    restores: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_lines(self) -> list[str]:
        """Render the soak summary block, one counter per line."""
        lines = [
            f"soak: {self.runs} runs "
            f"({self.n_schedules} schedules x seeds {list(self.seeds)})",
            f"  deadline cancels:  {self.cancels}",
            f"  master crashes:    {self.crashes}",
            f"  restores:          {self.restores}",
        ]
        lines.extend(f"  FAILED {failure}" for failure in self.failures)
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'} "
                     f"({len(self.failures)} failures)")
        return lines


def run_soak(
    *,
    n_schedules: int = 25,
    scale: float = 0.2,
) -> SoakReport:
    """Chaos-soak the engine: random fault schedules layered with
    deadline cancellations, every combination checked for conservation
    and wedge-freedom.

    For each of :data:`SOAK_SEEDS`, the workload runs healthy once;
    ``n_schedules`` seeded random schedules are drawn against that
    run's horizon, each layered with one or two
    :class:`~repro.faults.schedule.QueryDeadline` events, and replayed
    against the same healthy baseline, on the paper machine.  Pure
    function of its arguments — a CI soak and a local one disagree only
    if the engine does.
    """
    machine = paper_machine()
    specs = chaos_workload(machine, scale=scale)
    report = SoakReport(n_schedules=n_schedules, seeds=SOAK_SEEDS)
    for seed in SOAK_SEEDS:
        healthy = _healthy(machine, specs, seed)
        horizon = healthy.elapsed
        for index in range(n_schedules):
            schedule = with_deadlines(
                random_chaos_schedule(index, horizon=horizon, machine=machine),
                index,
                horizon=horizon,
                task_names=CHAOS_TASK_NAMES,
            )
            if index % 5 == 0:
                # Every fifth schedule also loses the master mid-run,
                # so the soak exercises checkpointed resume under
                # random fault mixes, not just the curated preset.
                schedule = FaultSchedule(
                    schedule.faults + (MasterCrash(at=0.4 * horizon),)
                )
            run = _replay(machine, specs, seed, schedule, healthy)
            report.runs += 1
            report.cancels += len(run.faulted.cancel_records)
            if run.recovery is not None:
                report.crashes += run.recovery.crashes
                report.restores += run.recovery.restores
            else:
                report.crashes += run.log.master_crashes
            if not run.ok:
                accounted = len(run.faulted.records) + len(
                    run.faulted.cancel_records
                )
                report.failures.append(
                    f"seed={seed} schedule={index}: "
                    f"{accounted}/{len(run.healthy.records)} tasks, "
                    f"{run.wedged_adjustments} wedged, "
                    f"{len(run.violations)} invariant violations"
                    + "".join(f"; {v}" for v in run.violations[:1])
                )
    return report
