"""The Section-4 recursion ``T_n(S)``, implemented literally.

The paper derives parallel plan cost from this recursive formula::

    T_n(S) = T_i / maxp(f_i) + T_n(S - {f_i})             if f_i runs alone
    T_n(S) = min(T_i/x_1, T_j/x_2) + T_n(S - {f_i,f_j} U {f_ij})
                                                          if f_i, f_j pair up

where ``f_i`` and ``f_j`` are two *ready* tasks chosen by the
scheduling algorithm, ``(x_1, x_2)`` their IO-CPU balance point and
``f_ij`` the remaining part of whichever task survives.

The fluid engine computes the same quantity by explicit simulation;
:func:`elapsed_time_recursion` evaluates the closed recursion directly
(iteratively — each step removes work, so the recursion is a loop).
Property tests pin the two implementations to each other, which is the
strongest internal-consistency check the reproduction has: the formula
in the optimizer and the behaviour of the runtime agree by theorem, not
by luck.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import SchedulingError
from .balance import _realizable_rates, worthwhile_pairing
from .classify import is_io_bound, max_parallelism
from .task import Task


@dataclass
class RecursionStep:
    """One step of the evaluated recursion (for traces and tests)."""

    kind: str  # "pair" or "solo"
    duration: float
    tasks: tuple[str, ...]


def elapsed_time_recursion(
    tasks: list[Task],
    machine: MachineConfig,
    *,
    use_effective_bandwidth: bool = True,
    trace: list[RecursionStep] | None = None,
) -> float:
    """Evaluate ``T_n(S)`` for a set of tasks with dependencies.

    Follows the paper's algorithm exactly: among *ready* tasks, pair
    the most IO-bound with the most CPU-bound at their balance point
    when worthwhile; otherwise run the head task alone at its maximum
    intra-operation parallelism.  Arrival times are not modelled (the
    recursion is a batch cost formula).

    Raises:
        SchedulingError: on dependency cycles.
    """
    remaining: dict[int, Task] = {t.task_id: t for t in tasks}
    completed: set[int] = set()
    elapsed = 0.0
    guard = 0
    while remaining:
        guard += 1
        if guard > 10 * len(tasks) + 100:
            raise SchedulingError("recursion failed to make progress")
        ready = [
            t for t in remaining.values() if t.depends_on <= completed
        ]
        if not ready:
            raise SchedulingError("dependency cycle in task set")
        io_ready = sorted(
            (t for t in ready if is_io_bound(t, machine)),
            key=lambda t: -t.io_rate,
        )
        cpu_ready = sorted(
            (t for t in ready if not is_io_bound(t, machine)),
            key=lambda t: t.io_rate,
        )
        if io_ready and cpu_ready:
            # Like the scheduler, try the most IO-bound task against
            # each CPU-bound candidate in heuristic order until a
            # realizable, worthwhile pairing is found.
            fi = io_ready[0]
            for fj in cpu_ready:
                point = worthwhile_pairing(
                    (fi.seq_time, fi.io_rate, fi.io_pattern),
                    (fj.seq_time, fj.io_rate, fj.io_pattern),
                    machine,
                    use_effective_bandwidth,
                    False,
                )
                if point is not None:
                    break
            if point is not None:
                elapsed += _pair_step(
                    fi,
                    fj,
                    point,
                    machine,
                    use_effective_bandwidth,
                    remaining,
                    completed,
                    trace,
                )
                continue
        # Solo: run the head ready task at maxp to completion.
        task = io_ready[0] if io_ready else cpu_ready[0]
        duration = task.seq_time / max_parallelism(task, machine)
        elapsed += duration
        del remaining[task.task_id]
        completed.add(task.task_id)
        if trace is not None:
            trace.append(RecursionStep("solo", duration, (task.name,)))
    return elapsed


def _pair_step(
    fi: Task,
    fj: Task,
    point,
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    remaining,
    completed,
    trace,
) -> float:
    """Run a pair until the first completes; replace the survivor by
    its remainder ``f_ij`` (the recursion's ``S - {f_i,f_j} U {f_ij}``).
    ``point`` is their balance solution ``(x_io, x_cpu, B)``."""
    io, cpu = (fi, fj) if fi.io_rate > fj.io_rate else (fj, fi)
    x_io, x_cpu, __ = point
    rate_io, rate_cpu = _realizable_rates(
        x_io,
        x_cpu,
        (io.seq_time, io.io_rate, io.io_pattern),
        (cpu.seq_time, cpu.io_rate, cpu.io_pattern),
        machine,
        use_effective_bandwidth,
        False,
    )
    rate_i, rate_j = (rate_io, rate_cpu) if io is fi else (rate_cpu, rate_io)
    time_i = fi.seq_time / rate_i
    time_j = fj.seq_time / rate_j
    duration = min(time_i, time_j)
    if time_i <= time_j:
        finished, survivor, rate_survivor = fi, fj, rate_j
    else:
        finished, survivor, rate_survivor = fj, fi, rate_i
    del remaining[finished.task_id]
    completed.add(finished.task_id)
    leftover = survivor.seq_time - duration * rate_survivor
    if leftover > 1e-12:
        remaining[survivor.task_id] = dataclasses.replace(
            survivor, seq_time=leftover, io_count=survivor.io_rate * leftover
        )
    else:
        del remaining[survivor.task_id]
        completed.add(survivor.task_id)
    if trace is not None:
        trace.append(RecursionStep("pair", duration, (fi.name, fj.name)))
    return duration
