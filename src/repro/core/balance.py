"""IO-CPU balance point calculation (Sections 2.3 and 2.5, Figure 4).

Running task ``f_i`` with parallelism ``x_i`` and ``f_j`` with ``x_j``
puts the system at the point ``(x_i + x_j, C_i x_i + C_j x_j)``.  Full
utilization of both processors and disks means::

    x_i + x_j           = N
    C_i x_i + C_j x_j   = B

whose solution (for ``C_i > C_j``) is::

    x_i = (B - C_j N) / (C_i - C_j)
    x_j = (C_i N - B) / (C_i - C_j)

Both are positive exactly when ``C_i > B/N > C_j`` — one task IO-bound
and the other CPU-bound.  "One IO-bound task plus one CPU-bound task can
always achieve maximum system resource utilization ... it is sufficient
to only run two tasks at a time."

**Effective bandwidth.**  Disks have a sequential and a random
bandwidth; interleaving two sequential streams forces seeks.  The paper
interpolates: with ``r`` the ratio of the smaller io stream to the
larger, ``B = Br + (1 - r)(Bs - Br)``.  (The memo prints the same
expression on both branches of its case split — an obvious typo; the
intended symmetric form uses the min/max ratio, which is what we
implement.)  Because ``B`` depends on ``(x_i, x_j)`` and vice versa, the
corrected balance equation can have several roots; we take the largest
root in ``(0, N)`` by a coarse downward scan followed by bisection (see
:func:`balance_point`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import InfeasibleBalanceError
from .classify import max_parallelism, max_parallelism_of
from .task import IOPattern, Task

#: Bisection controls for refining the corrected balance point's root
#: (the bracket found by the downward scan in :func:`balance_point`).
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-9

#: Memo of :func:`balance_solution`.  The solver is a pure function of
#: the two streams' *(io_rate, io_pattern)* pairs and three numbers of
#: the machine — ``N``, ``B`` and the random bandwidth ``Br``, all that
#: it and :func:`effective_bandwidth` read; ``seq_time`` never enters
#: the balance equations — but costs a ~100-evaluation
#: scan-plus-bisection per call, and engines consult policies with the
#: same rate pairs over and over.  The key holds exactly those numbers
#: (IO-bound stream first, each pattern as "is sequential"): plain
#: floats and bools hash and compare in C, where a ``MachineConfig``
#: or an ``IOPattern`` would run Python-level ``__hash__``/``__eq__``
#: on every consult.  Only the solution floats are stored, so no
#: references leak between tasks.
_POINT_CACHE: dict[tuple, tuple[float, float, float] | None] = {}
_POINT_CACHE_MISS = object()
#: Hoisted: an enum member read off its class costs a descriptor call.
_SEQUENTIAL = IOPattern.SEQUENTIAL


@dataclass(frozen=True)
class BalancePoint:
    """The IO-CPU balance point for a pair of tasks.

    Attributes:
        task_io / task_cpu: the IO-bound and CPU-bound tasks.
        x_io / x_cpu: their (continuous) degrees of parallelism.
        bandwidth: the effective total disk bandwidth ``B`` at the point.
    """

    task_io: Task
    task_cpu: Task
    x_io: float
    x_cpu: float
    bandwidth: float

    @property
    def total_parallelism(self) -> float:
        return self.x_io + self.x_cpu

    @property
    def total_io_rate(self) -> float:
        return self.task_io.io_rate * self.x_io + self.task_cpu.io_rate * self.x_cpu

    def utilization(self, machine: MachineConfig) -> tuple[float, float]:
        """(cpu utilization, io utilization) at this operating point."""
        cpu = self.total_parallelism / machine.processors
        io = self.total_io_rate / self.bandwidth if self.bandwidth else 0.0
        return cpu, io

    def parallelism_of(self, task: Task) -> float:
        """The degree of parallelism this point assigns to ``task``."""
        if task.task_id == self.task_io.task_id:
            return self.x_io
        if task.task_id == self.task_cpu.task_id:
            return self.x_cpu
        raise InfeasibleBalanceError(f"{task!r} is not part of this balance point")


def effective_bandwidth(
    machine: MachineConfig,
    io_rate_a: float,
    io_rate_b: float,
    pattern_a: IOPattern,
    pattern_b: IOPattern,
) -> float:
    """Total disk bandwidth ``B`` when two io streams interleave.

    ``io_rate_a`` / ``io_rate_b`` are the streams' aggregate io rates
    (``C * x``).  Model:

    * two sequential streams — the paper's interpolation
      ``B = Br + (1 - r)(Bs - Br)`` with ``r = min/max`` of the rates;
    * a sequential and a random stream — the sequential stream is
      broken up in proportion to the random stream's share ``1 - a``
      (``a`` = sequential share), giving ``B = Br + a (Bs - Br)``;
    * two random streams — ``B = Br`` (seeks everywhere already).
    """
    bs = machine.io_bandwidth
    br = machine.total_random_bandwidth
    seq_a = pattern_a is _SEQUENTIAL
    seq_b = pattern_b is _SEQUENTIAL
    if not seq_a and not seq_b:
        return br
    total = io_rate_a + io_rate_b
    if total <= 0:
        return bs
    if seq_a and seq_b:
        low, high = (
            (io_rate_a, io_rate_b) if io_rate_a <= io_rate_b else (io_rate_b, io_rate_a)
        )
        ratio = low / high if high > 0 else 0.0
        return br + (1.0 - ratio) * (bs - br)
    seq_share = (io_rate_a if seq_a else io_rate_b) / total
    return br + seq_share * (bs - br)


def effective_bandwidth_mix(
    machine: MachineConfig,
    sequential_rates: list[float],
    random_rate_total: float,
) -> float:
    """Generalize :func:`effective_bandwidth` to any number of streams.

    ``sequential_rates`` holds the per-stream io rates of the sequential
    streams; ``random_rate_total`` the combined rate of all random
    streams.  For two streams the model agrees with the pairwise one to
    within an ulp (the two round in different orders; ROADMAP item 9
    makes them one function): interleaving among sequential streams is
    measured by how much io volume competes with the largest stream
    (``interleave = (total_seq - max) / max``, clipped to [0, 1], which
    is ``min/max`` for two streams), and random io dilutes the
    sequential regime in proportion to its share.
    """
    bs = machine.io_bandwidth
    br = machine.total_random_bandwidth
    # One pass over the positive rates (the fluid engine's rate solve
    # calls this at every re-solve): their left-fold sum, which is
    # what sum() computes on CPython 3.11, and the first largest, which
    # is what max() returns.
    seq_total = 0
    largest = None
    for r in sequential_rates:
        if r > 0:
            seq_total += r
            if largest is None or r > largest:
                largest = r
    total = seq_total + max(random_rate_total, 0.0)
    if total <= 0:
        return bs
    if largest is None:
        return br
    interleave = min(1.0, (seq_total - largest) / largest)
    seq_regime = br + (1.0 - interleave) * (bs - br)
    seq_share = seq_total / total
    return br + seq_share * (seq_regime - br)


def balance_point(
    task_a: Task,
    task_b: Task,
    machine: MachineConfig,
    *,
    use_effective_bandwidth: bool = True,
) -> BalancePoint | None:
    """Solve for the IO-CPU balance point of two tasks.

    Returns None when no balance point exists (both tasks on the same
    side of the ``B/N`` diagonal, or equal io rates).  With
    ``use_effective_bandwidth=False`` the nominal ``B`` is used — the
    paper's uncorrected Section 2.3 calculation (the abl5 ablation).
    """
    solution = balance_solution(
        task_a.io_rate,
        task_a.io_pattern,
        task_b.io_rate,
        task_b.io_pattern,
        machine,
        use_effective_bandwidth,
    )
    if solution is None:
        return None
    task_io, task_cpu = (
        (task_a, task_b) if task_a.io_rate > task_b.io_rate else (task_b, task_a)
    )
    x_io, x_cpu, bandwidth = solution
    return BalancePoint(
        task_io=task_io,
        task_cpu=task_cpu,
        x_io=x_io,
        x_cpu=x_cpu,
        bandwidth=bandwidth,
    )


def balance_solution(
    rate_a: float,
    pattern_a: IOPattern,
    rate_b: float,
    pattern_b: IOPattern,
    machine: MachineConfig,
    use_effective_bandwidth: bool = True,
) -> tuple[float, float, float] | None:
    """:func:`balance_point` on bare io streams: ``(x_io, x_cpu, B)``.

    The stream with the higher rate is the IO-bound one (``x_io``);
    ``None`` when no balance point exists.  Memoized on the rates.
    """
    if not rate_a > rate_b:
        rate_a, pattern_a, rate_b, pattern_b = rate_b, pattern_b, rate_a, pattern_a
    key = (
        rate_a,
        pattern_a is _SEQUENTIAL,
        rate_b,
        pattern_b is _SEQUENTIAL,
        machine.processors,
        machine.io_bandwidth,
        machine.total_random_bandwidth,
        use_effective_bandwidth,
    )
    cached = _POINT_CACHE.get(key, _POINT_CACHE_MISS)
    if cached is _POINT_CACHE_MISS:
        cached = _POINT_CACHE[key] = _solve(
            rate_a, pattern_a, rate_b, pattern_b, machine, use_effective_bandwidth
        )
    return cached


def _solve(
    ci: float,
    pattern_io: IOPattern,
    cj: float,
    pattern_cpu: IOPattern,
    machine: MachineConfig,
    use_effective_bandwidth: bool,
) -> tuple[float, float, float] | None:
    """The balance point of an IO stream ``ci`` and a CPU stream ``cj``."""
    if ci == cj:
        return None
    n = machine.processors

    if not use_effective_bandwidth:
        bandwidth = machine.io_bandwidth
        x_io = (bandwidth - cj * n) / (ci - cj)
        x_cpu = (ci * n - bandwidth) / (ci - cj)
    else:
        # With the bandwidth correction, B itself depends on (x_i, x_j),
        # so the balance equation ``C_i x + C_j (N - x) = B(x)`` can
        # have several solutions (the interleaving dip creates a
        # pessimistic fixed point where both streams are equal).  The
        # operating point we want is the *largest* x_io whose io demand
        # the disks can sustain — that maximizes the progress rate of
        # the scarce io work while the CPU task absorbs the remaining
        # processors.  ``g`` is demand minus bandwidth; we take its
        # largest root in (0, N) by a downward scan plus bisection.
        def overload(x_io: float) -> float:
            x_cpu = n - x_io
            demand_io, demand_cpu = ci * x_io, cj * x_cpu
            b = effective_bandwidth(
                machine, demand_io, demand_cpu, pattern_io, pattern_cpu
            )
            return demand_io + demand_cpu - b

        if overload(0.0) >= 0:
            return None  # even x_io = 0 oversubscribes: no CPU headroom
        if overload(float(n)) <= 0:
            return None  # never disk-limited: the pair is not balanced
        steps = 64
        hi = float(n)
        lo = 0.0
        for k in range(steps, -1, -1):
            x = n * k / steps
            if overload(x) <= 0:
                lo = x
                hi = n * (k + 1) / steps
                break
        for __ in range(_MAX_ITERATIONS):
            mid = (lo + hi) / 2.0
            if overload(mid) <= 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < _TOLERANCE:
                break
        x_io = lo
        x_cpu = n - x_io
        bandwidth = effective_bandwidth(
            machine, ci * x_io, cj * x_cpu, pattern_io, pattern_cpu
        )
    if x_io <= 0 or x_cpu <= 0:
        return None
    return x_io, x_cpu, bandwidth


# ---------------------------------------------------------------------------
# elapsed-time estimates (Section 2.5)


def intra_time(task: Task, machine: MachineConfig) -> float:
    """``T_intra(f_i) = T_i / maxp(f_i)`` — run alone, fully parallel."""
    return task.seq_time / max_parallelism(task, machine)


def inter_time(
    task_a: Task,
    task_b: Task,
    machine: MachineConfig,
    *,
    point: BalancePoint | None = None,
    use_effective_bandwidth: bool = True,
) -> float:
    """``T_inter(f_i, f_j)`` — run the pair at the balance point.

    ``min(T_i/x_i, T_j/x_j) + T_ij / maxp_ij`` where ``T_ij`` is the
    remaining work of the longer task once the shorter finishes and
    ``maxp_ij`` its maximum parallelism running alone.  Returns
    ``inf`` when no balance point exists.
    """
    if point is None:
        point = balance_point(
            task_a, task_b, machine, use_effective_bandwidth=use_effective_bandwidth
        )
    if point is None:
        return float("inf")
    ti, tj = point.task_io, point.task_cpu
    xi, xj = point.x_io, point.x_cpu
    rate_i, rate_j = ti.seq_time / xi, tj.seq_time / xj
    if rate_i > rate_j:
        remaining_task, remaining = ti, ti.seq_time - tj.seq_time * xi / xj
    else:
        remaining_task, remaining = tj, tj.seq_time - ti.seq_time * xj / xi
    remaining = max(0.0, remaining)
    return min(rate_i, rate_j) + remaining / max_parallelism(remaining_task, machine)


def clamp_parallelism(x: float, machine: MachineConfig, *, integral: bool) -> float:
    """Clamp a degree of parallelism into [1, N], optionally integral."""
    x = max(1.0, min(float(machine.processors), x))
    if integral:
        return float(max(1, math.floor(x)))
    return x


def realizable_rates(
    point: BalancePoint,
    machine: MachineConfig,
    *,
    use_effective_bandwidth: bool = True,
    integral: bool = False,
) -> tuple[float, float, float, float]:
    """Progress rates of a pair under real resource semantics.

    The balance point's continuous degrees of parallelism are clamped
    to whole-machine reality (at least one slave each, optionally
    integral); if the clamped allocation oversubscribes the processors
    or disks, both tasks slow proportionally — exactly the execution
    engines' semantics.  Returns ``(rate_io, rate_cpu, x_io, x_cpu)``.
    """
    io, cpu = point.task_io, point.task_cpu
    return _realizable_rates(
        point.x_io,
        point.x_cpu,
        io.io_rate,
        io.io_pattern,
        cpu.io_rate,
        cpu.io_pattern,
        machine,
        use_effective_bandwidth,
        integral,
    )


def _realizable_rates(
    x_io: float,
    x_cpu: float,
    c_io: float,
    pattern_io: IOPattern,
    c_cpu: float,
    pattern_cpu: IOPattern,
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    integral: bool,
) -> tuple[float, float, float, float]:
    """:func:`realizable_rates` on bare floats."""
    xi = clamp_parallelism(x_io, machine, integral=integral)
    xj = clamp_parallelism(x_cpu, machine, integral=integral)
    cpu_scale = min(1.0, machine.processors / (xi + xj))
    demand_io = c_io * xi * cpu_scale
    demand_cpu = c_cpu * xj * cpu_scale
    demand = demand_io + demand_cpu
    if use_effective_bandwidth:
        bandwidth = effective_bandwidth(
            machine, demand_io, demand_cpu, pattern_io, pattern_cpu
        )
    else:
        bandwidth = machine.io_bandwidth
    io_scale = min(1.0, bandwidth / demand) if demand > 0 else 1.0
    return xi * cpu_scale * io_scale, xj * cpu_scale * io_scale, xi, xj


def inter_time_realizable(
    point: BalancePoint,
    machine: MachineConfig,
    *,
    use_effective_bandwidth: bool = True,
    integral: bool = False,
) -> float:
    """``T_inter`` evaluated at the *realizable* (clamped) allocation.

    The continuous :func:`inter_time` can flatter a pairing whose
    balance point sits below one whole slave; this variant prices the
    pairing exactly as the engines would run it, so the worthwhileness
    decision and the execution agree.
    """
    io, cpu = point.task_io, point.task_cpu
    return realizable_time(
        point.x_io,
        point.x_cpu,
        (io.seq_time, io.io_rate, io.io_pattern),
        (cpu.seq_time, cpu.io_rate, cpu.io_pattern),
        machine,
        use_effective_bandwidth,
        integral,
    )


def realizable_time(
    x_io: float,
    x_cpu: float,
    io: tuple[float, float, IOPattern],
    cpu: tuple[float, float, IOPattern],
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    integral: bool,
) -> float:
    """:func:`inter_time_realizable` on bare floats.

    ``io`` and ``cpu`` are the two tasks as ``(seq_time, io_rate,
    io_pattern)``; ``x_io`` / ``x_cpu`` their balance-point degrees.
    """
    t_io, c_io, pattern_io = io
    t_cpu, c_cpu, pattern_cpu = cpu
    rate_i, rate_j, __, __ = _realizable_rates(
        x_io,
        x_cpu,
        c_io,
        pattern_io,
        c_cpu,
        pattern_cpu,
        machine,
        use_effective_bandwidth,
        integral,
    )
    time_i = t_io / rate_i
    time_j = t_cpu / rate_j
    if time_i > time_j:
        remaining = t_io - time_j * rate_i
        maxp = max_parallelism_of(c_io, pattern_io, machine)
    else:
        remaining = t_cpu - time_i * rate_j
        maxp = max_parallelism_of(c_cpu, pattern_cpu, machine)
    remaining = max(0.0, remaining)
    return min(time_i, time_j) + remaining / maxp


def inter_worthwhile(
    task_a: Task,
    task_b: Task,
    machine: MachineConfig,
    *,
    use_effective_bandwidth: bool = True,
) -> bool:
    """Is pairing better than running the two tasks back to back?

    "We need to compare the estimated time of execution using
    inter-operation parallelism ... and the estimated time of execution
    using only intra-operation parallelism and decide whether
    inter-operation parallelism is worthwhile" (Section 2.3).
    """
    paired = inter_time(
        task_a, task_b, machine, use_effective_bandwidth=use_effective_bandwidth
    )
    alone = intra_time(task_a, machine) + intra_time(task_b, machine)
    return paired < alone
