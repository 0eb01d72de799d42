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
implement, for any number of streams: :func:`effective_bandwidth`.)
Because ``B`` depends on ``(x_i, x_j)`` and vice versa, the corrected
balance equation can have several roots; we take the largest root in
``(0, N)`` by a coarse downward scan followed by bisection (see
:func:`balance_point`).

**Progress rates.**  How fast an allocation progresses is one
definition, :func:`throttle`: the policy prices a pairing with it
(:func:`realizable_time`, :func:`worthwhile_pairing`), the Section-4
recursion steps with it and the fluid engine runs with it, so a
pairing is priced exactly as the machine then runs it.  Both seat a
pair's degrees with one definition, :func:`clamp_pair`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..config import MachineConfig
from .classify import max_parallelism, max_parallelism_of
from .task import IOPattern, Task

#: Bisection controls for refining the corrected balance point's root
#: (the bracket found by the downward scan in :func:`balance_point`).
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-9

#: :func:`throttle` leaves a total io demand at or below this
#: unthrottled (the fluid engine's epsilon).
_IDLE_DEMAND = 1e-9

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


def effective_bandwidth(
    machine: MachineConfig,
    sequential_rates: list[float],
    random_rate_total: float,
) -> float:
    """Total disk bandwidth ``B`` when io streams interleave.

    ``sequential_rates`` holds the aggregate io rates (``C * x``) of the
    sequential streams; ``random_rate_total`` the combined rate of all
    random streams.  Interleaving among sequential streams is measured
    by how much io volume competes with the largest stream
    (``interleave = (total_seq - max) / max``, clipped to [0, 1]; for
    two streams that is the paper's ``r = min/max``, giving
    ``B = Br + (1 - r)(Bs - Br)``), and random io dilutes the
    sequential regime in proportion to its share (a sequential and a
    random stream give ``B = Br + a (Bs - Br)`` with ``a`` the
    sequential share).  Only random streams: ``B = Br``; no io:
    ``B = Bs``.
    """
    bs = machine.io_bandwidth
    br = machine.total_random_bandwidth
    # One pass over the positive rates (every rate solve and pricing
    # calls this): their left-fold sum, which is what sum() computes on
    # CPython 3.11, and the first largest, which is what max() returns.
    # Here and in throttle, conditionals stand in for min()/max(): the
    # same values (ties and NaN keep the first argument) without a
    # builtin call.
    seq_total = 0
    largest = None
    for r in sequential_rates:
        if r > 0:
            seq_total += r
            if largest is None or r > largest:
                largest = r
    total = seq_total + (0.0 if random_rate_total < 0.0 else random_rate_total)
    if total <= 0:
        return bs
    if largest is None:
        return br
    interleave = (seq_total - largest) / largest
    if not interleave < 1.0:
        interleave = 1.0
    seq_regime = br + (1.0 - interleave) * (bs - br)
    seq_share = seq_total / total
    return br + seq_share * (seq_regime - br)


def throttle(
    machine: MachineConfig,
    allocations: Sequence[tuple[float, float, bool]],
    use_effective_bandwidth: bool,
) -> tuple[float, float]:
    """``(cpu_scale, io_scale)`` of allocations running together.

    ``allocations`` is a sequence of ``(x, io_rate, sequential)``: a
    degree of parallelism, the io rate of one sequential-second of
    work and whether the stream is sequential.  An allocation
    progresses at ``x * cpu_scale * io_scale`` sequential-seconds per
    second: oversubscribed processors slow every task by
    ``cpu_scale``, and oversubscribed disks by ``io_scale``.

    ``cpu_scale`` belongs in the io *demand*: a CPU-throttled slave
    issues its next read only after the page's tuples are processed,
    so the disks see ``io_rate * x * cpu_scale``.  Folding it in before
    the seq/random split cannot skew the Section-2.3 formula —
    :func:`effective_bandwidth` is invariant under uniform scaling of
    its rates (only the interleave and seq-share *ratios* enter),
    which the repro.check parity tests pin down.  A total demand at or
    below ``_IDLE_DEMAND`` is not throttled; testing ``demand > 0``
    instead gives the same scales, since the bandwidth is at least
    ``Br`` and so ``bandwidth / demand >= 1`` whenever
    ``demand <= 1e-9``.
    """
    total_x = 0.0
    for x, __, __ in allocations:
        total_x += x
    cpu_scale = machine.processors / total_x if total_x > 0 else 1.0
    if not cpu_scale < 1.0:
        cpu_scale = 1.0
    total_demand = 0.0
    seq_rates = []
    random_total = 0.0
    for x, io_rate, sequential in allocations:
        demand = io_rate * x * cpu_scale
        total_demand += demand
        if sequential:
            seq_rates.append(demand)
        else:
            random_total += demand
    if use_effective_bandwidth:
        bandwidth = effective_bandwidth(machine, seq_rates, random_total)
    else:
        bandwidth = machine.io_bandwidth
    io_scale = bandwidth / total_demand if total_demand > _IDLE_DEMAND else 1.0
    if not io_scale < 1.0:
        io_scale = 1.0
    return cpu_scale, io_scale


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
        # processors.  ``overload`` is demand minus bandwidth; we take
        # its largest root in (0, N) by a downward scan plus bisection.
        sequential = (pattern_io is _SEQUENTIAL, pattern_cpu is _SEQUENTIAL)

        def pair_bandwidth(demands: tuple[float, float]) -> float:
            return effective_bandwidth(
                machine,
                [d for d, seq in zip(demands, sequential) if seq],
                sum(d for d, seq in zip(demands, sequential) if not seq),
            )

        def overload(x_io: float) -> float:
            demands = (ci * x_io, cj * (n - x_io))
            return demands[0] + demands[1] - pair_bandwidth(demands)

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
        bandwidth = pair_bandwidth((ci * x_io, cj * x_cpu))
    if x_io <= 0 or x_cpu <= 0:
        return None
    return x_io, x_cpu, bandwidth


# ---------------------------------------------------------------------------
# elapsed-time estimates (Section 2.5)


def intra_time(task: Task, machine: MachineConfig) -> float:
    """``T_intra(f_i) = T_i / maxp(f_i)`` — run alone, fully parallel."""
    return task.seq_time / max_parallelism(task, machine)


def clamp_parallelism(x: float, machine: MachineConfig, *, integral: bool) -> float:
    """Clamp a degree of parallelism into [1, N], optionally integral."""
    x = max(1.0, min(float(machine.processors), x))
    if integral:
        return float(max(1, math.floor(x)))
    return x


def clamp_pair(
    x_io: float, x_cpu: float, machine: MachineConfig, *, integral: bool
) -> tuple[float, float]:
    """A pair's balance-point degrees as it runs: each clamped by
    :func:`clamp_parallelism`, then any excess over ``N`` (a degree
    ``x < 1`` lifted to 1) taken off the larger.  The pricing and every
    policy seat a pair here, so it runs at the degrees it was priced at."""
    n = machine.processors
    x_io = clamp_parallelism(x_io, machine, integral=integral)
    x_cpu = clamp_parallelism(x_cpu, machine, integral=integral)
    if x_io + x_cpu > n:
        x_io, x_cpu = (n - x_cpu, x_cpu) if x_io > x_cpu else (x_io, n - x_io)
    return x_io, x_cpu


def _realizable_rates(
    x_io: float,
    x_cpu: float,
    io: tuple[float, float, IOPattern],
    cpu: tuple[float, float, IOPattern],
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    integral: bool,
) -> tuple[float, float]:
    """Progress rates ``(rate_io, rate_cpu)`` of a pair, its balance-point
    degrees seated by :func:`clamp_pair` and run through :func:`throttle`:
    exactly the fluid engine's rate solve."""
    xi, xj = clamp_pair(x_io, x_cpu, machine, integral=integral)
    cpu_scale, io_scale = throttle(
        machine,
        ((xi, io[1], io[2] is _SEQUENTIAL), (xj, cpu[1], cpu[2] is _SEQUENTIAL)),
        use_effective_bandwidth,
    )
    return xi * cpu_scale * io_scale, xj * cpu_scale * io_scale


def realizable_time(
    x_io: float,
    x_cpu: float,
    io: tuple[float, float, IOPattern],
    cpu: tuple[float, float, IOPattern],
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    integral: bool,
) -> float:
    """``T_inter(f_i, f_j)`` at the *realizable* (clamped) allocation.

    ``min(T_i/r_i, T_j/r_j) + T_ij / maxp_ij``: the pair runs at its
    realizable rates ``r`` until the shorter finishes, then the rest
    ``T_ij`` of the longer runs alone at its maximum parallelism.
    ``io`` and ``cpu`` are the two tasks as ``(seq_time, io_rate,
    io_pattern)``, ``x_io`` / ``x_cpu`` their balance-point degrees.
    """
    t_io, c_io, pattern_io = io
    t_cpu, c_cpu, pattern_cpu = cpu
    rate_i, rate_j = _realizable_rates(
        x_io, x_cpu, io, cpu, machine, use_effective_bandwidth, integral
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


def worthwhile_pairing(
    a: tuple[float, float, IOPattern],
    b: tuple[float, float, IOPattern],
    machine: MachineConfig,
    use_effective_bandwidth: bool,
    integral: bool,
) -> tuple[float, float, float] | None:
    """The balance point of ``a`` and ``b`` if pairing them is worthwhile.

    "We need to compare the estimated time of execution using
    inter-operation parallelism ... and the estimated time of execution
    using only intra-operation parallelism and decide whether
    inter-operation parallelism is worthwhile" (Section 2.3).  ``a`` and
    ``b`` are ``(seq_time, io_rate, io_pattern)``; the pair is priced by
    :func:`realizable_time` at its :func:`balance_solution` and returns
    that solution ``(x_io, x_cpu, B)`` when it beats running the two
    back to back at their maximum parallelism, else ``None``.
    """
    t_a, c_a, pattern_a = a
    t_b, c_b, pattern_b = b
    point = balance_solution(
        c_a, pattern_a, c_b, pattern_b, machine, use_effective_bandwidth
    )
    if point is None:
        return None
    io, cpu = (a, b) if c_a > c_b else (b, a)
    x_io, x_cpu, __ = point
    paired = realizable_time(
        x_io, x_cpu, io, cpu, machine, use_effective_bandwidth, integral
    )
    alone = (
        t_a / max_parallelism_of(c_a, pattern_a, machine)
        + t_b / max_parallelism_of(c_b, pattern_b, machine)
    )
    return point if paired < alone else None
