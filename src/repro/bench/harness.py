"""The Figure-7 experiment runner.

Runs the four Section-3 workloads under the three scheduling algorithms
on a chosen engine (the page-level micro simulator by default, or the
fluid engine) and aggregates elapsed times over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Sequence

from ..config import MachineConfig, paper_machine
from ..core.schedulers import POLICIES, SchedulingPolicy
from ..errors import ConfigError
from ..sim.fluid import FluidSimulator, ScheduleResult
from ..sim.micro import MicroSimulator
from ..workloads.mixes import WorkloadConfig, WorkloadKind, generate_specs
from .report import format_bar_chart, format_table

#: The three algorithms of Section 3, in the paper's order.
POLICY_NAMES = tuple(POLICIES)


def make_policies(*, integral: bool = True) -> list[SchedulingPolicy]:
    """Fresh instances of the three Section-3 policies."""
    return [cls(integral=integral) for cls in POLICIES.values()]


@dataclass
class Figure7Cell:
    """All runs of one (workload, policy) pair."""

    workload: WorkloadKind
    policy: str
    elapsed: list[float] = field(default_factory=list)
    adjustments: list[int] = field(default_factory=list)
    cpu_utilization: list[float] = field(default_factory=list)
    io_utilization: list[float] = field(default_factory=list)

    @property
    def mean_elapsed(self) -> float:
        return mean(self.elapsed)


@dataclass
class Figure7Result:
    """The full Figure-7 grid."""

    engine: str
    machine: MachineConfig
    seeds: tuple[int, ...]
    cells: dict[tuple[WorkloadKind, str], Figure7Cell]

    def cell(self, workload: WorkloadKind, policy: str) -> Figure7Cell:
        """The aggregated runs of one (workload, policy) pair."""
        return self.cells[(workload, policy)]

    def win_over_intra(self, workload: WorkloadKind, policy: str) -> float:
        """Mean relative improvement of ``policy`` over INTRA-ONLY."""
        intra = self.cell(workload, "INTRA-ONLY").mean_elapsed
        other = self.cell(workload, policy).mean_elapsed
        return (intra - other) / intra

    def max_win_over_intra(self, workload: WorkloadKind, policy: str) -> float:
        """Best single-seed improvement (the paper reports 'as much as')."""
        intra = self.cell(workload, "INTRA-ONLY").elapsed
        other = self.cell(workload, policy).elapsed
        return max((a - b) / a for a, b in zip(intra, other))

    def to_table(self) -> str:
        """Render the grid as the paper's Figure-7 table."""
        rows = []
        for kind in WorkloadKind:
            row: list[object] = [kind.value]
            for policy in POLICY_NAMES:
                row.append(f"{self.cell(kind, policy).mean_elapsed:8.2f}")
            row.append(f"{self.win_over_intra(kind, 'INTER-WITH-ADJ') * 100:+5.1f}%")
            rows.append(row)
        return format_table(
            ["Workload", *POLICY_NAMES, "WITH-ADJ win"],
            rows,
            title=(
                f"Figure 7 — elapsed time (seconds, mean over "
                f"{len(self.seeds)} seeds, engine={self.engine})"
            ),
        )

    def to_bar_chart(self) -> str:
        """Render the grid as a text bar chart (the Figure-7 figure)."""
        groups = []
        for kind in WorkloadKind:
            series = [
                (policy, self.cell(kind, policy).mean_elapsed)
                for policy in POLICY_NAMES
            ]
            groups.append((kind.value, series))
        return format_bar_chart(
            groups, title="Figure 7 — Experiment Results of Scheduling Algorithms"
        )


def run_figure7(
    *,
    engine: str = "micro",
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    machine: MachineConfig | None = None,
    config: WorkloadConfig | None = None,
    integral: bool = True,
) -> Figure7Result:
    """Run the Figure-7 grid and return the aggregated result.

    Args:
        engine: ``"micro"`` (page-level DES) or ``"fluid"``.
        seeds: workload random seeds; each seed is one full grid run.
        machine: machine configuration (paper machine by default).
        config: workload generator knobs.
        integral: round degrees of parallelism to integers.
    """
    if engine not in ("micro", "fluid"):
        raise ConfigError(f"unknown engine: {engine!r}")
    machine = machine or paper_machine()
    cells: dict[tuple[WorkloadKind, str], Figure7Cell] = {}
    for kind in WorkloadKind:
        for policy_name in POLICY_NAMES:
            cells[(kind, policy_name)] = Figure7Cell(kind, policy_name)
    for seed in seeds:
        for kind in WorkloadKind:
            specs = generate_specs(kind, seed=seed, machine=machine, config=config)
            for policy in make_policies(integral=integral):
                result = _run_engine(engine, machine, specs, policy)
                cell = cells[(kind, policy.name)]
                cell.elapsed.append(result.elapsed)
                cell.adjustments.append(result.adjustments)
                cell.cpu_utilization.append(result.cpu_utilization)
                cell.io_utilization.append(result.io_utilization)
    return Figure7Result(
        engine=engine, machine=machine, seeds=tuple(seeds), cells=cells
    )


def _run_engine(
    engine: str,
    machine: MachineConfig,
    specs,
    policy: SchedulingPolicy,
) -> ScheduleResult:
    if engine == "micro":
        return MicroSimulator(machine).run(list(specs), policy)
    tasks = [spec.to_task(machine) for spec in specs]
    return FluidSimulator(machine).run(tasks, policy)
