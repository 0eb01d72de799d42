"""IO-bound / CPU-bound task classification (Section 2.2, Figure 3).

"Suppose that the total disk i/o bandwidth is B (ios/second) and the
total number of processors is N.  We call task f_i IO-bound if
C_i > B/N and CPU-bound if otherwise."

When a task runs with parallelism ``x`` its io rate is ``C_i * x``; the
line ``y = C_i * x`` lives in the rectangle bounded by ``N`` and ``B``.
IO-bound tasks sit above the diagonal and hit the bandwidth wall first
(``maxp = B / C_i``); CPU-bound tasks hit the processor wall
(``maxp = N``).
"""

from __future__ import annotations

from ..config import MachineConfig
from .task import IOPattern, Task

#: Hoisted: an enum member read off its class costs a descriptor call.
_RANDOM = IOPattern.RANDOM


def pattern_bandwidth(machine: MachineConfig, pattern: IOPattern) -> float:
    """Aggregate disk bandwidth available to a task of one io pattern.

    Sequential-io tasks see the almost-sequential bandwidth (the
    paper's working ``B``: parallel backends reorder requests);
    random-io tasks can never exceed the random bandwidth.
    """
    if pattern is _RANDOM:
        return machine.total_random_bandwidth
    return machine.io_bandwidth


def io_service_time(machine: MachineConfig, pattern: IOPattern) -> float:
    """Seconds one io of ``pattern`` takes under the task calibration.

    Sequential io is served at the *almost sequential* rate: "in
    parallel executions, we at most see the almost sequential read
    bandwidth" (Section 3), and tasks here always run in parallel, so a
    task's io rate stays consistent with the working bandwidth ``B``.
    Random io is served at the random rate.  The workload builders and
    both engines calibrate against this one function.
    """
    disk = machine.disk
    if pattern is _RANDOM:
        return 1.0 / disk.random_ios_per_sec
    return 1.0 / disk.almost_seq_ios_per_sec


def is_io_bound(task: Task, machine: MachineConfig) -> bool:
    """``C_i > B/N`` — IO-bound per the paper's definition."""
    return task.io_rate > machine.bound_threshold


def max_parallelism(task: Task, machine: MachineConfig) -> float:
    """``maxp(f_i)`` — the task's maximum useful degree of parallelism.

    IO-bound tasks are limited by bandwidth (``B / C_i``); CPU-bound
    tasks by the processor count (``N``).  The bandwidth wall uses the
    bandwidth matching the task's io pattern.  The value is continuous;
    :func:`repro.core.balance.clamp_parallelism` with ``integral=True``
    floors it to a feasible integral degree.
    """
    return max_parallelism_of(task.io_rate, task.io_pattern, machine)


def max_parallelism_of(
    io_rate: float, pattern: IOPattern, machine: MachineConfig
) -> float:
    """:func:`max_parallelism` of a bare io stream."""
    if io_rate <= 0:
        return float(machine.processors)
    bandwidth = pattern_bandwidth(machine, pattern)
    return min(float(machine.processors), bandwidth / io_rate)


def split_by_bound(
    tasks, machine: MachineConfig
) -> tuple[list[Task], list[Task]]:
    """Partition tasks into (IO-bound ``S_io``, CPU-bound ``S_cpu``)."""
    io_bound: list[Task] = []
    cpu_bound: list[Task] = []
    for task in tasks:
        if is_io_bound(task, machine):
            io_bound.append(task)
        else:
            cpu_bound.append(task)
    return io_bound, cpu_bound


def classification_line(task: Task, machine: MachineConfig, points: int = 20):
    """Sample the Figure-3 line ``y = C_i * x`` inside the (N, B) box.

    Returns ``[(x, io_rate_at_x), ...]`` up to the task's maxp — the
    data behind Figure 3, used by the fig3 bench.
    """
    maxp = max_parallelism(task, machine)
    if points < 2:
        points = 2
    step = maxp / (points - 1)
    return [(i * step, task.io_rate * i * step) for i in range(points)]
