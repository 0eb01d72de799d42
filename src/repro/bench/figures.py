"""Data series behind Figures 3-6.

Figures 3 and 4 are analytic diagrams — we regenerate their exact data
(task lines inside the (N, B) box, the balance-point intersection).
Figures 5 and 6 are protocol diagrams — we regenerate the *message
traces* of one adjustment on the micro simulator and on the real
executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig, paper_machine
from ..core.balance import BalancePoint, balance_point
from ..core.classify import classification_line, is_io_bound, max_parallelism
from ..core.task import Task, make_task
from .report import format_table

#: The io rates Figure 3 draws one classification line for.
FIGURE3_IO_RATES = (5.0, 15.0, 25.0, 30.0, 35.0, 45.0, 55.0)
#: Points per Figure-3 line.
FIGURE3_POINTS = 9


@dataclass(frozen=True)
class Figure3Data:
    """Classification lines of a task set inside the (N, B) box."""

    machine: MachineConfig
    lines: list[tuple[Task, list[tuple[float, float]]]]

    def to_table(self) -> str:
        """Render the classification lines as an ASCII table."""
        rows = []
        for task, line in self.lines:
            x_end, y_end = line[-1]
            rows.append(
                (
                    task.name,
                    f"{task.io_rate:.1f}",
                    "IO-bound" if is_io_bound(task, self.machine) else "CPU-bound",
                    f"{max_parallelism(task, self.machine):.2f}",
                    "B wall" if y_end >= self.machine.io_bandwidth - 1e-6 else "N wall",
                )
            )
        return format_table(
            ["Task", "C (ios/s)", "Class", "maxp", "limited by"],
            rows,
            title=(
                f"Figure 3 — IO-bound vs CPU-bound "
                f"(N={self.machine.processors}, B={self.machine.io_bandwidth:.0f}, "
                f"threshold B/N={self.machine.bound_threshold:.0f})"
            ),
        )


def figure3(*, machine: MachineConfig | None = None) -> Figure3Data:
    """The Figure-3 lines for a representative set of io rates."""
    machine = machine or paper_machine()
    lines = []
    for rate in FIGURE3_IO_RATES:
        task = make_task(f"C={rate:g}", io_rate=rate, seq_time=10.0)
        lines.append(
            (task, classification_line(task, machine, points=FIGURE3_POINTS))
        )
    return Figure3Data(machine=machine, lines=lines)


@dataclass(frozen=True)
class Figure4Data:
    """A worked balance point for one IO-bound / CPU-bound pair."""

    machine: MachineConfig
    point: BalancePoint

    def to_table(self) -> str:
        """Render the balance point as an ASCII table."""
        cpu_util, io_util = self.point.utilization(self.machine)
        rows = [
            ("IO-bound task", self.point.task_io.name, f"C={self.point.task_io.io_rate:.1f}"),
            ("CPU-bound task", self.point.task_cpu.name, f"C={self.point.task_cpu.io_rate:.1f}"),
            ("x_io", f"{self.point.x_io:.3f}", "processors"),
            ("x_cpu", f"{self.point.x_cpu:.3f}", "processors"),
            ("total parallelism", f"{self.point.total_parallelism:.3f}", f"of N={self.machine.processors}"),
            ("total io rate", f"{self.point.total_io_rate:.1f}", "ios/s"),
            ("effective bandwidth", f"{self.point.bandwidth:.1f}", "ios/s"),
            ("CPU utilization", f"{cpu_util * 100:.1f}%", ""),
            ("IO utilization", f"{io_util * 100:.1f}%", ""),
        ]
        return format_table(
            ["Quantity", "Value", ""],
            rows,
            title="Figure 4 — the IO-CPU balance point (max utilization point)",
        )


def figure4(
    io_rate_io: float = 55.0,
    io_rate_cpu: float = 10.0,
    *,
    machine: MachineConfig | None = None,
) -> Figure4Data:
    """Solve the Figure-4 balance point for one representative pair."""
    machine = machine or paper_machine()
    fi = make_task(f"io(C={io_rate_io:g})", io_rate=io_rate_io, seq_time=30.0)
    fj = make_task(f"cpu(C={io_rate_cpu:g})", io_rate=io_rate_cpu, seq_time=30.0)
    point = balance_point(fi, fj, machine)
    if point is None:
        raise ValueError("the chosen pair has no balance point")
    return Figure4Data(machine=machine, point=point)
