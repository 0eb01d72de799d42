"""The three scheduling algorithms of Section 3.

* **INTRA-ONLY** — "execute tasks one by one using intra-operation
  parallelism only."
* **INTER-WITHOUT-ADJ** — pair tasks at the IO-CPU balance point, but
  never adjust a running task: on a completion, "simply start the task
  that can get closest to maximum utilization point if executed using
  the currently available processors in parallel with the running task."
* **INTER-WITH-ADJ** — the paper's adaptive algorithm (Section 2.5):
  pair the most IO-bound with the most CPU-bound task at their balance
  point, and *dynamically adjust* the degrees of parallelism on every
  completion to stay at the balance point.

Policies are decision procedures driven by an execution engine (the
fluid simulator, the page-level micro simulator or the real
multiprocessing executor).  On every engine event the policy sees the
engine state and returns Start/Adjust actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..config import MachineConfig
from ..errors import SchedulingError
from .balance import (
    balance_point,
    balance_solution,
    clamp_pair,
    clamp_parallelism as _clamp,
    worthwhile_pairing,
)
from .classify import (
    is_io_bound,
    max_parallelism,
    split_by_bound,
)
from .task import Task

#: Relative change in measured bandwidth that triggers a re-balance of a
#: running pair under ``degradation_aware`` (hysteresis against
#: adjustment churn).
REBALANCE_THRESHOLD = 0.05


@dataclass(frozen=True)
class Start:
    """Begin executing ``task`` with ``parallelism`` slaves."""

    task: Task
    parallelism: float


@dataclass(frozen=True)
class Adjust:
    """Change a *running* task's degree of parallelism."""

    task: Task
    parallelism: float


@dataclass(frozen=True)
class Shed:
    """Drop a *pending* task without running it (admission load-shedding).

    Emitted by the serving layer's admission gate when a submission is
    rejected; the engine removes the task from its pending set and
    records it as shed instead of completed.
    """

    task: Task


@dataclass(frozen=True)
class Cancel:
    """Cooperatively cancel a task, running or not (deadline enforcement).

    Unlike :class:`Shed` (pending only), a Cancel may target a running
    task: the engine stops its slaves at the next event boundary,
    releases disks and processors, and records the task as cancelled —
    never completed.  ``reason`` distinguishes deadline kills from
    transitive dependency cancels in the trace.
    """

    task: Task
    reason: str = "deadline"


Action = Start | Adjust | Shed | Cancel


class RunningTaskView(Protocol):
    """What a policy may observe about a running task."""

    task: Task
    parallelism: float

    @property
    def remaining_seq_time(self) -> float:
        """Estimated sequential-seconds of work left."""
        ...


class EngineState(Protocol):
    """What a policy may observe about the engine."""

    machine: MachineConfig

    #: The machine as currently *measured* (disk degradation folded
    #: in, on the micro engine); equals ``machine`` on a healthy run
    #: and always on the fluid engine.
    effective_machine: MachineConfig

    #: Ids of tasks that already completed (both engines expose this;
    #: the admission gate uses it to count in-flight fragments).
    completed_ids: set[int]

    @property
    def now(self) -> float: ...

    @property
    def running(self) -> Sequence[RunningTaskView]: ...

    @property
    def pending(self) -> Sequence[Task]: ...


class SchedulingPolicy:
    """Base class.  Subclasses override :meth:`decide`."""

    name = "abstract"

    def decide(self, state: EngineState) -> list[Action]:
        """Called at start, on every arrival and on every completion."""
        raise NotImplementedError

    def next_wakeup(self, now: float) -> float | None:
        """Earliest future time the policy wants to be consulted even
        though no completion or arrival is due (``None`` = none).

        Lets a policy hold deferred work — e.g. the serving gate's
        retry backoffs — without the engine declaring a deadlock while
        nothing is running.
        """
        return None

    def reset(self) -> None:
        """Clear internal state before a fresh run."""


def memory_fits(machine: MachineConfig, *tasks: Task) -> bool:
    """Do these tasks' working sets fit in the machine's work memory?

    "We cannot run two hashjoins in parallel unless there is enough
    memory for both hash tables" — the constraint the paper leaves to
    future work, honoured by the memory-aware policies.
    """
    return sum(t.memory_bytes for t in tasks) <= machine.work_memory_bytes


def _remnant(view: RunningTaskView) -> tuple[float, float]:
    """The unfinished part of a running task, priced as a task of its
    own with the same io pattern: ``(seq_time, io_rate)``.

    The rate is what ``Task.io_rate`` of such a task would read,
    ``(C * T) / T``, which is not always ``C`` to the last bit.
    """
    rem = max(view.remaining_seq_time, 1e-12)
    return rem, (view.task.io_rate * rem) / rem


class IntraOnlyPolicy(SchedulingPolicy):
    """One task at a time at its maximum intra-operation parallelism."""

    name = "INTRA-ONLY"

    def __init__(self, *, integral: bool = False) -> None:
        self.integral = integral

    def decide(self, state: EngineState) -> list[Action]:
        if state.running or not state.pending:
            return []
        task = state.pending[0]
        x = _clamp(max_parallelism(task, state.machine), state.machine, integral=self.integral)
        return [Start(task, x)]


class InterWithAdjPolicy(SchedulingPolicy):
    """The paper's adaptive scheduling algorithm (Section 2.5).

    Args:
        integral: round degrees of parallelism down to integers (the
            real system must; the paper's algebra is continuous).
        use_effective_bandwidth: apply the sequential-vs-random
            bandwidth correction when computing balance points.
        pairing: ``"extreme"`` pairs most-IO-bound with most-CPU-bound
            (the paper); ``"fifo"`` pairs arrival-order heads
            (ablation); ``"sjf"`` pairs shortest jobs first — the
            paper's multi-user heuristic "to minimize the response time
            of individual queries instead of the total elapsed time".
        degradation_aware: recompute balance points against the
            engine's *measured* bandwidth (``state.effective_machine``)
            instead of the static ``MachineConfig.B``, and re-balance a
            running pair when the measured bandwidth drifts — e.g. a
            disk degraded by fault injection shifts the balance point
            toward the CPU-bound task.
    """

    name = "INTER-WITH-ADJ"

    def __init__(
        self,
        *,
        integral: bool = False,
        use_effective_bandwidth: bool = True,
        pairing: str = "extreme",
        degradation_aware: bool = False,
    ) -> None:
        if pairing not in ("extreme", "fifo", "sjf"):
            raise SchedulingError(f"unknown pairing strategy: {pairing!r}")
        self.integral = integral
        self.use_effective_bandwidth = use_effective_bandwidth
        self.pairing = pairing
        self.degradation_aware = degradation_aware
        self._solo_until_done: set[int] = set()
        self._last_b: float | None = None

    def reset(self) -> None:
        self._solo_until_done.clear()
        self._last_b = None

    # -- queue views -------------------------------------------------------------

    def _queues(self, state: EngineState) -> tuple[list[Task], list[Task]]:
        io_q, cpu_q = split_by_bound(state.pending, state.machine)
        if self.pairing == "extreme":
            io_q.sort(key=lambda t: -t.io_rate)
            cpu_q.sort(key=lambda t: t.io_rate)
        elif self.pairing == "sjf":
            io_q.sort(key=lambda t: t.seq_time)
            cpu_q.sort(key=lambda t: t.seq_time)
        return io_q, cpu_q

    def _pair_actions(
        self,
        state: EngineState,
        candidate: Task,
        partner: RunningTaskView | None,
    ) -> list[Action] | None:
        """Try to run ``candidate`` against ``partner`` (or a fresh pair).

        Returns None when pairing is not worthwhile.  Decided on floats
        (:func:`~repro.core.balance.balance_solution`,
        :func:`~repro.core.balance.worthwhile_pairing`): no task and no
        balance-point object is built per candidate.
        """
        machine = state.machine
        if partner is None:
            return None
        partner_task = partner.task
        if not memory_fits(machine, candidate, partner_task):
            return None
        effective = self.use_effective_bandwidth
        c_new, pattern_new = candidate.io_rate, candidate.io_pattern
        c_partner, pattern_partner = partner_task.io_rate, partner_task.io_pattern
        point = balance_solution(
            c_new, pattern_new, c_partner, pattern_partner, machine, effective
        )
        if point is None:
            return None
        # Worthwhileness: compare against intra-only for the pair, using
        # the partner's remaining work and the *realizable* allocation
        # (clamped to whole-machine reality), so the decision prices the
        # pairing exactly as the engine will run it.
        rem, c_rem = _remnant(partner)
        new = (candidate.seq_time, c_new, pattern_new)
        rest = (rem, c_rem, pattern_partner)
        if worthwhile_pairing(new, rest, machine, effective, self.integral) is None:
            return None
        x_new, x_partner = self._pair_degrees(machine, point, c_new, c_partner)
        actions: list[Action] = []
        if abs(x_partner - partner.parallelism) > 1e-9:
            actions.append(Adjust(partner_task, x_partner))
        actions.append(Start(candidate, x_new))
        return actions

    def _pair_degrees(
        self, machine: MachineConfig, point: tuple, c_a: float, c_b: float
    ) -> tuple[float, float]:
        """``(x_a, x_b)``: the degrees :func:`clamp_pair` seats io streams
        ``c_a`` and ``c_b`` at, given their balance ``point`` ``(x_io, x_cpu, B)``."""
        x_io, x_cpu = clamp_pair(point[0], point[1], machine, integral=self.integral)
        return (x_io, x_cpu) if c_a > c_b else (x_cpu, x_io)

    def _fresh_pair(
        self, state: EngineState, io_q: list[Task], cpu_q: list[Task]
    ) -> list[Action] | None:
        """Start a new IO/CPU pair from the queues (steps 2-4).

        Candidates are tried in heuristic order; a pair must fit in
        work memory and be worthwhile.
        """
        machine = state.machine
        if not io_q or not cpu_q:
            return None
        for fi in io_q:
            for fj in cpu_q:
                if not memory_fits(machine, fi, fj):
                    continue
                point = worthwhile_pairing(
                    (fi.seq_time, fi.io_rate, fi.io_pattern),
                    (fj.seq_time, fj.io_rate, fj.io_pattern),
                    machine,
                    self.use_effective_bandwidth,
                    self.integral,
                )
                if point is not None:
                    x_i, x_j = self._pair_degrees(machine, point, fi.io_rate, fj.io_rate)
                    return [Start(fi, x_i), Start(fj, x_j)]
            break  # most-IO-bound head found no partner: run it solo
        # Step 4 "otherwise": execute f_i alone to completion, then f_j.
        fi = io_q[0]
        self._solo_until_done.add(fi.task_id)
        x = _clamp(max_parallelism(fi, machine), machine, integral=self.integral)
        return [Start(fi, x)]

    def decide(self, state: EngineState) -> list[Action]:
        if self.degradation_aware:
            eff = state.effective_machine
            if eff.io_bandwidth != state.machine.io_bandwidth:
                state = _MachineOverrideView(state, eff)
        actions = self._decide(state)
        if actions:
            self._last_b = state.machine.io_bandwidth
        return actions

    def _rebalance(self, state: EngineState) -> list[Action]:
        """Re-seat a running pair on the *measured* balance point."""
        machine = state.machine
        b = machine.io_bandwidth
        if (
            self._last_b is not None
            and self._last_b > 0
            and abs(b - self._last_b) / self._last_b <= REBALANCE_THRESHOLD
        ):
            return []
        first, second = state.running
        __, c_first = _remnant(first)
        __, c_second = _remnant(second)
        point = balance_solution(
            c_first,
            first.task.io_pattern,
            c_second,
            second.task.io_pattern,
            machine,
            self.use_effective_bandwidth,
        )
        if point is None:
            return []
        x_first, x_second = self._pair_degrees(machine, point, c_first, c_second)
        actions: list[Action] = []
        for view, x in ((first, x_first), (second, x_second)):
            if abs(x - view.parallelism) > 1e-9:
                actions.append(Adjust(view.task, x))
        # Remember the bandwidth we balanced for even when the clamped
        # allocation came out unchanged, so hysteresis still applies.
        self._last_b = b
        return actions

    def _decide(self, state: EngineState) -> list[Action]:
        machine = state.machine
        if len(state.running) >= 2:
            if self.degradation_aware and len(state.running) == 2:
                return self._rebalance(state)
            return []
        if len(state.running) == 1:
            partner = state.running[0]
            if partner.task.task_id in self._solo_until_done:
                return []
            io_q, cpu_q = self._queues(state)
            opposite = cpu_q if is_io_bound(partner.task, machine) else io_q
            for candidate in opposite:
                actions = self._pair_actions(state, candidate, partner)
                if actions is not None:
                    return actions
            # Step 8 flavour: nothing to pair with — give the lone task
            # its full intra-operation parallelism (this is the dynamic
            # adjustment INTER-WITHOUT-ADJ lacks).
            x = _clamp(
                max_parallelism(partner.task, machine), machine, integral=self.integral
            )
            if abs(x - partner.parallelism) > 1e-9:
                return [Adjust(partner.task, x)]
            return []
        # Nothing running.
        if not state.pending:
            return []
        self._solo_until_done.clear()
        io_q, cpu_q = self._queues(state)
        actions = self._fresh_pair(state, io_q, cpu_q)
        if actions is not None:
            return actions
        # One-sided queue (step 8): intra-operation parallelism only.
        queue = io_q or cpu_q
        task = queue[0]
        x = _clamp(max_parallelism(task, machine), machine, integral=self.integral)
        return [Start(task, x)]


class _MachineOverrideView:
    """EngineState proxy whose ``machine`` is the measured one."""

    def __init__(self, state: EngineState, machine: MachineConfig) -> None:
        self._state = state
        self.machine = machine

    def __getattr__(self, name: str):
        return getattr(self._state, name)


class InterWithoutAdjPolicy(SchedulingPolicy):
    """INTER-WITHOUT-ADJ: pair at the balance point, never adjust.

    "When one task finishes first, no dynamic parallelism adjustment is
    performed.  The master backend will simply start the task that can
    get closest to maximum utilization point if executed using the
    currently available processors in parallel with the running task."
    """

    name = "INTER-WITHOUT-ADJ"

    def __init__(self, *, integral: bool = False) -> None:
        self.integral = integral

    def decide(self, state: EngineState) -> list[Action]:
        machine = state.machine
        if not state.pending:
            return []
        if not state.running:
            # Initial pairing: identical to the adaptive algorithm.
            io_q, cpu_q = split_by_bound(state.pending, machine)
            io_q.sort(key=lambda t: -t.io_rate)
            cpu_q.sort(key=lambda t: t.io_rate)
            if io_q and cpu_q and memory_fits(machine, io_q[0], cpu_q[0]):
                point = balance_point(io_q[0], cpu_q[0], machine)
                if point is not None and min(point.x_io, point.x_cpu) >= 1.0:
                    x_io, x_cpu = clamp_pair(
                        point.x_io, point.x_cpu, machine, integral=self.integral
                    )
                    return [Start(io_q[0], x_io), Start(cpu_q[0], x_cpu)]
            queue = io_q or cpu_q
            task = queue[0]
            x = _clamp(max_parallelism(task, machine), machine, integral=self.integral)
            return [Start(task, x)]
        if len(state.running) >= 2:
            return []
        # One task running at a frozen parallelism: fill the gap with
        # the pending task closest to the maximum utilization point.
        partner = state.running[0]
        available = machine.processors - partner.parallelism
        if available < 1.0 - 1e-9:
            return []
        best: tuple[float, Task, float] | None = None
        for task in state.pending:
            if not memory_fits(machine, task, partner.task):
                continue
            x = min(available, max_parallelism(task, machine))
            x = _clamp(x, machine, integral=self.integral)
            if x > available + 1e-9:
                continue
            distance = self._distance_to_corner(machine, partner, task, x)
            if best is None or distance < best[0]:
                best = (distance, task, x)
        if best is None:
            return []
        __, task, x = best
        return [Start(task, x)]

    @staticmethod
    def _distance_to_corner(
        machine: MachineConfig,
        partner: RunningTaskView,
        task: Task,
        x: float,
    ) -> float:
        """Normalized distance from the operating point to (N, B)."""
        total_x = partner.parallelism + x
        total_io = partner.task.io_rate * partner.parallelism + task.io_rate * x
        dx = (machine.processors - total_x) / machine.processors
        dio = (machine.io_bandwidth - total_io) / machine.io_bandwidth
        # Overshooting the bandwidth is as bad as undershooting.
        return math.hypot(dx, abs(dio))


#: The three policies by paper name, in the order tables and the CLI list them.
POLICIES: dict[str, type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (IntraOnlyPolicy, InterWithoutAdjPolicy, InterWithAdjPolicy)
}


def policy_by_name(name: str, **kwargs) -> SchedulingPolicy:
    """Construct one of the three policies from its paper name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise SchedulingError(f"unknown policy: {name!r}") from None
    return cls(**kwargs)
