"""The recovery benchmark harness: checkpointed resume vs. restart.

One :func:`run_recover` drive answers the PR's headline question: under
a crash-heavy fault schedule, how much elapsed (virtual) time does
checkpoint/resume save over restarting every attempt from scratch?
Both arms run the *same* workload under the *same* schedule through
:func:`~repro.recovery.manager.run_with_recovery`; the only difference
is whether the :class:`~repro.recovery.manager.RecoveryManager` is
enabled.  ``total_elapsed`` charges each crash's destroyed work on top
of the final attempt's clock, so the arms are compared on one axis.

Everything is simulated time — a pure function of ``(seed, scale,
schedule)`` — so two invocations print byte-identical reports and the
CLI ``--smoke`` output can be diffed in CI.

Imports the simulators; keep it out of ``repro.recovery.__init__``'s
eager imports (it is loaded lazily, like the manager).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig, paper_machine
from ..core.schedulers import InterWithAdjPolicy
from ..core.task import IOPattern
from ..errors import RecoveryError
from ..faults.chaos import scan_workload
from ..faults.schedule import FaultSchedule, preset_schedule
from ..sim.fluid import ScheduleResult
from ..sim.micro import MicroSimulator, ScanSpec
from .manager import RecoveryManager, RecoveryRun, run_with_recovery

#: Scan shapes of the recovery workload: smaller than the chaos
#: workload (each crash replays a prefix, so three attempts of the full
#: chaos workload would dominate the benchmark's wall clock).
_WORKLOAD_SHAPE = (
    ("io0", 55.0, 300, IOPattern.SEQUENTIAL, "page"),
    ("cpu0", 8.0, 80, IOPattern.SEQUENTIAL, "page"),
    ("rnd0", 20.0, 60, IOPattern.RANDOM, "range"),
)

#: Master ticks (and thus checkpoint opportunities) per healthy run.
_TICKS = 40
#: Workload size of the smoke run.
SMOKE_SCALE = 0.2


def recover_workload(
    machine: MachineConfig, *, scale: float = 1.0
) -> list[ScanSpec]:
    """The standard three-scan recovery workload, optionally scaled."""
    if scale <= 0:
        raise RecoveryError("scale must be positive")
    return scan_workload(machine, _WORKLOAD_SHAPE, scale)


@dataclass
class RecoverReport:
    """Both arms of one recovery comparison."""

    seed: int
    scale: float
    schedule: FaultSchedule
    healthy: ScheduleResult
    scratch: RecoveryRun
    resumed: RecoveryRun

    @property
    def gain(self) -> float:
        """Fraction of total elapsed time the checkpoints saved."""
        if self.scratch.total_elapsed <= 0:
            return 0.0
        return 1.0 - self.resumed.total_elapsed / self.scratch.total_elapsed

    @property
    def complete(self) -> bool:
        """Did both arms finish every task the healthy run finished?"""
        want = len(self.healthy.records)
        return (
            len(self.scratch.result.records) == want
            and len(self.resumed.result.records) == want
        )

    def to_lines(self) -> list[str]:
        """The comparison as stable, printable lines (virtual time only)."""
        lines = [
            f"recover seed={self.seed} scale={self.scale:g} "
            f"faults={len(self.schedule)} scheduled",
            f"healthy elapsed: {self.healthy.elapsed:.4f}s",
            f"scratch: total {self.scratch.total_elapsed:.4f}s "
            f"(crashes {self.scratch.crashes}, "
            f"lost {self.scratch.lost_work:.4f}s)",
            f"resumed: total {self.resumed.total_elapsed:.4f}s "
            f"(crashes {self.resumed.crashes}, "
            f"checkpoints {self.resumed.checkpoints}, "
            f"restores {self.resumed.restores}, "
            f"lost {self.resumed.lost_work:.4f}s)",
            f"gain: {self.gain * 100.0:.1f}%",
        ]
        return lines


def _drive(
    machine: MachineConfig,
    specs: list[ScanSpec],
    schedule: FaultSchedule,
    *,
    seed: int,
    tick: float,
    enabled: bool,
) -> RecoveryRun:
    simulator = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=tick,
        faults=schedule,
        fault_seed=seed,
    )
    manager = RecoveryManager(enabled=enabled, min_interval=tick)
    return run_with_recovery(
        simulator,
        specs,
        InterWithAdjPolicy(integral=True),
        manager=manager,
    )


def run_recover(
    *,
    seed: int = 0,
    scale: float = 1.0,
    machine: MachineConfig | None = None,
    preset: str = "crash-heavy",
    schedule: FaultSchedule | None = None,
) -> RecoverReport:
    """Run both recovery arms and report the elapsed-time gain.

    Args:
        seed: seeds the workload's random block orders and the
            injector's crash-target picks.
        scale: workload size multiplier (smoke runs shrink it).
        machine: machine configuration (defaults to the paper machine).
        preset: fault-schedule preset scaled to the measured healthy
            elapsed time; used when ``schedule`` is ``None``.
        schedule: explicit fault schedule (overrides ``preset``).
    """
    machine = machine or paper_machine()
    specs = recover_workload(machine, scale=scale)
    healthy = MicroSimulator(machine, seed=seed).run(
        specs, InterWithAdjPolicy(integral=True)
    )
    if schedule is None:
        schedule = preset_schedule(preset, horizon=healthy.elapsed)
    tick = healthy.elapsed / _TICKS
    scratch = _drive(
        machine, specs, schedule, seed=seed, tick=tick, enabled=False
    )
    resumed = _drive(
        machine, specs, schedule, seed=seed, tick=tick, enabled=True
    )
    return RecoverReport(
        seed=seed,
        scale=scale,
        schedule=schedule,
        healthy=healthy,
        scratch=scratch,
        resumed=resumed,
    )


def smoke_lines(*, seed: int = 0) -> list[str]:
    """A quick deterministic recovery run as printable lines.

    Simulated quantities only — byte-stable across runs and machines.
    Appends a ``smoke failed: ...`` line (and the CLI exits non-zero)
    if either arm lost tasks or the checkpoints saved nothing.
    """
    report = run_recover(seed=seed, scale=SMOKE_SCALE)
    lines = report.to_lines()
    if not report.complete:
        lines.append("smoke failed: an arm did not finish every task")
    elif report.resumed.restores == 0:
        lines.append("smoke failed: resume arm never restored")
    elif report.gain <= 0.0:
        lines.append("smoke failed: checkpointed resume saved nothing")
    return lines
