"""The fluid-rate execution engine.

Tasks progress as continuous flows: a task running with parallelism
``x`` completes ``x`` sequential-seconds of work per wall second (the
near-linear intra-operation speedup measured in [HONG91]), unless the
processors or the disks are oversubscribed, in which case every task
slows proportionally.  The rate solve is the balance solver's own rate
model, :func:`~repro.core.balance.throttle` over its
:func:`~repro.core.balance.effective_bandwidth`, so a policy prices a
pairing exactly as it then runs and a pair placed at its balance point
runs unthrottled.

The engine drives a :class:`~repro.core.schedulers.SchedulingPolicy` at
every event (start, arrival, completion) and records a full trace:
per-task start/finish times, parallelism history, adjustment count and
resource-utilization integrals.

This is the substrate for the Figure-7 experiment; the page-level
micro simulator (``repro.sim.micro``) cross-checks it with explicit
slave backends and adjustment protocols.  Both keep their tasks in one
:class:`~repro.sim.ledger.TaskLedger` and apply policy actions through
its one dispatch; this file adds the running set and the rate solve.

The event loop is on the optimizer's critical path (``parcost``
simulates it for every costed candidate) and runs once per gate
consult when serving, so the hot structures carry ``__slots__``,
per-task constants are cached at start and per-run ones (the
io-service reciprocals) at set-up, the running view is memoized
between state changes, and the rate solve runs only when the running
set or a parallelism changed.  An event is one walk: the next instant
is a running minimum over the completions, the arrival-heap head and
the wake-up, one pass advances every run and notes whether any ran
out of work, and only then are tasks retired.

Every sum and product happens over the same values in the same order
as the reference loop in ``tests/sim/test_rate_memo.py``, so traces
are byte-identical — the sim corpus pins them to ``float.hex``.  The
sums here are loops, left folds on any interpreter; ``sum()``, which
the reference and the rest of the repo use, is that fold only up to
CPython 3.11.  3.12 made float ``sum()`` compensated
(``sum([0.1, 0.2, 0.3]).hex()`` is ``0x1.3333333333334p-1`` on 3.11.7,
``0x1.3333333333333p-1`` on 3.12.1), and the corpora assume 3.11
(CONTRIBUTING.md, "Interpreter").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MachineConfig
from ..core.balance import throttle
from ..core.classify import io_service_time
from ..core.schedulers import SchedulingPolicy
from ..core.task import IOPattern, Task
from ..errors import SimulationError
from .ledger import ScheduleResult, TaskLedger

#: Safety valve: a run issuing more events than this is considered hung.
_MAX_EVENTS = 1_000_000

_EPS = 1e-9

_SEQUENTIAL = IOPattern.SEQUENTIAL


@dataclass(eq=False, slots=True)
class _Running:
    """Engine-internal record of a running task.

    ``io_rate`` and ``io_pattern`` duplicate the task's values so the
    per-event rate solve reads one attribute instead of re-deriving the
    rate from ``io_count / seq_time`` on every event.
    """

    task: Task
    parallelism: float
    remaining: float  # sequential-seconds of work left
    started_at: float
    history: list[tuple[float, float]] = field(default_factory=list)
    io_rate: float = 0.0
    io_pattern: IOPattern = IOPattern.SEQUENTIAL
    #: CPU share of one sequential-second of this task's work — the
    #: complement of the io-wait share ``io_rate * io_service_time``
    #: under the calibration the workload builders use (see
    #: :func:`~repro.core.classify.io_service_time`).  Cached at start
    #: for the service-semantics CPU integral.
    cpu_frac: float = 0.0

    @property
    def remaining_seq_time(self) -> float:
        return self.remaining


class FluidSimulator:
    """Event-driven fluid simulation of the XPRS machine.

    Args:
        machine: machine configuration (processors, disks, bandwidths).
            The engine runs this machine as configured: faults and
            measured disk health are the micro engine's
            (:mod:`repro.sim.micro`).
        adjustment_overhead: sequential-seconds of work added to a task
            each time its parallelism is adjusted (models the signal
            round trip plus finishing the current page).  Defaults to
            two signal latencies plus one page-processing time.
        tracer: a :class:`~repro.obs.Tracer` recording task spans and
            start/adjust/shed instants at virtual time; ``None``
            records nothing.  Emission sites are per-event, never
            inside the rate solve, and guard with one None check —
            parcost's costing loop is unaffected when tracing is off.
        invariants: an :class:`~repro.check.InvariantChecker` asserting
            clock monotonicity, parallelism bounds and each interval's
            processors at every event; ``None`` (the default) checks
            nothing and adds one ``is not None`` test per event.
    """

    def __init__(
        self,
        machine: MachineConfig,
        *,
        adjustment_overhead: float | None = None,
        tracer=None,
        invariants=None,
    ) -> None:
        self.machine = machine
        if adjustment_overhead is None:
            adjustment_overhead = 2.0 * machine.signal_latency + 0.01
        if adjustment_overhead < 0:
            raise SimulationError("adjustment_overhead must be >= 0")
        self.adjustment_overhead = adjustment_overhead
        self.tracer = tracer
        self.invariants = invariants

    # -- public API -------------------------------------------------------------

    def run(self, tasks: list[Task], policy: SchedulingPolicy) -> ScheduleResult:
        """Simulate ``tasks`` under ``policy`` until all complete."""
        policy.reset()
        state = _SimState(
            self.machine, tasks, self.adjustment_overhead, self.tracer
        )
        # Never rebound during a run (the ledger's identity rule), so
        # the finished test and the arrival horizon read them directly.
        running_map = state.running_map
        waiting = state.waiting
        arrivals = state.arrivals
        decide = policy.decide
        next_wakeup = policy.next_wakeup
        cpu_busy = 0.0
        cpu_service = 0.0
        io_served = 0.0
        peak_memory = 0.0
        invariants = self.invariants
        rates: list[tuple[_Running, float, float, float, float]] = []
        solved = -1  # the state.version ``rates`` was solved at
        for __ in range(_MAX_EVENTS):
            actions = decide(state)
            if actions:
                state.apply(actions)
            # Memory sum is maintained on membership change, with the
            # same summation order a per-event resum would use.
            if state.memory_in_use > peak_memory:
                peak_memory = state.memory_in_use
            if not (running_map or waiting or arrivals):
                break  # a wake-up that outlives the last task is not waited for
            clock = state.clock
            wakeup = next_wakeup(clock)
            # Rates under the current allocation: a pure function of
            # the running set and its parallelisms, so re-solved only
            # when ``state.version`` says one of them moved.
            if state.version != solved:
                rates = self._rates(state)
                solved = state.version
            # Seconds until the next completion, arrival or wake-up, as
            # a running minimum in the order ``min`` over a list of
            # them would take them: ties and signed zeros land alike.
            horizon = None
            for run, rate, _x, _cpu, _io in rates:
                if rate > _EPS:
                    until = run.remaining / rate
                    if horizon is None or until < horizon:
                        horizon = until
            if arrivals:
                until = max(0.0, arrivals[0][0] - clock)
                if horizon is None or until < horizon:
                    horizon = until
            if wakeup is not None:
                wake_in = max(wakeup - clock, _EPS)
                if horizon is None or wake_in < horizon:
                    horizon = wake_in
            if horizon is None:
                if running_map:
                    # Unfinished running tasks, yet every progress rate
                    # is below _EPS and nothing else is due: terminate
                    # with a diagnostic naming the stalled tasks rather
                    # than blaming the policy (or silently settling).
                    stalled = [
                        f"{r.task.name} (x={r.parallelism:g}, "
                        f"remaining={r.remaining:.3g})"
                        for r in state.running
                    ]
                    raise SimulationError(
                        "stall: running tasks have no progress rate and "
                        f"no event is due (running=[{', '.join(stalled)}], "
                        f"pending={[t.name for t in state.pending]})"
                    )
                raise SimulationError(
                    "deadlock: pending tasks but the policy started nothing "
                    f"(pending={[t.name for t in state.pending]})"
                )
            dt = max(horizon, 0.0)
            # One walk advances every run and the utilization integrals.
            # A sequential-second of work carries cpu_frac seconds of
            # tuple processing; rate sequential-seconds complete per
            # wall second, so the service integral lands exactly on the
            # micro engine's per-page CPU-burst sum.
            finished = False
            for run, rate, parallelism, cpu_rate, io_rate in rates:
                remaining = run.remaining - rate * dt
                run.remaining = remaining
                cpu_busy += parallelism * dt
                cpu_service += cpu_rate * dt
                io_served += io_rate * dt
                if remaining <= _EPS:
                    finished = True
            clock += dt
            state.clock = clock
            if finished:
                state.settle()
            elif arrivals and arrivals[0][0] <= clock + _EPS:
                state.admit_due(clock + _EPS)
            if invariants is not None:
                invariants.fluid_event(state, machine=self.machine, rates=rates)
        else:
            raise SimulationError("simulation exceeded the event budget")
        result = state.result(
            policy.name,
            adjustments=state.adjustments,
            cpu_busy=cpu_busy,
            io_served=io_served,
            peak_memory=peak_memory,
            cpu_busy_occupancy=cpu_busy,
            cpu_busy_service=cpu_service,
        )
        if invariants is not None:
            invariants.fluid_end(result)
        return result

    # -- internals ----------------------------------------------------------------

    def _rates(
        self, state: "_SimState"
    ) -> list[tuple[_Running, float, float, float, float]]:
        """Work-progress rate of each running task (seq-seconds/second),
        as ``(run, rate, parallelism, cpu_frac * rate, io_rate * rate)``:
        the last three are its per-second shares of the utilization
        integrals, fixed until the next solve.  The scales come from
        :func:`~repro.core.balance.throttle`, the rate model the
        policies price pairings with."""
        running = state.running
        if not running:
            return []
        cpu_scale, io_scale = throttle(
            self.machine,
            [(r.parallelism, r.io_rate, r.io_pattern is _SEQUENTIAL) for r in running],
            True,
        )
        rates = []
        for r in running:
            rate = r.parallelism * cpu_scale * io_scale
            rates.append(
                (r, rate, r.parallelism, r.cpu_frac * rate, r.io_rate * rate)
            )
        return rates


class _SimState(TaskLedger):
    """One run's mutable state: the task ledger plus the running set.

    It is the policy's EngineState and the target of the ledger's
    action dispatch.  The ``running`` view is memoized like the
    ledger's ``pending`` — policies call both several times per event
    and must treat the returned lists as read-only snapshots.
    """

    __slots__ = (
        "effective_machine", "running_map", "memory_in_use", "adjustments",
        "tracer", "_adjustment_overhead", "_running_view", "version",
    )

    def __init__(
        self,
        machine: MachineConfig,
        tasks: list[Task],
        adjustment_overhead: float,
        tracer,
    ) -> None:
        super().__init__(machine, tasks)
        self.tracer = tracer
        #: The EngineState view policies read; fluid has no disk health,
        #: so it is always the run's machine.
        self.effective_machine = machine
        self.running_map: dict[int, _Running] = {}
        #: Sum of running tasks' working sets, maintained on membership
        #: change (same floats, same order as a per-event resum).
        self.memory_in_use = 0.0
        self.adjustments = 0
        self._adjustment_overhead = adjustment_overhead
        self._running_view: list[_Running] | None = []
        #: Bumped whenever the running set or a parallelism changes —
        #: every input of the rate solve; ``run()`` keys its rates on it.
        self.version = 0
        self.admit_due(_EPS)

    @property
    def running(self) -> list[_Running]:
        view = self._running_view
        if view is None:
            view = self._running_view = list(self.running_map.values())
        return view

    def _running_changed(self) -> None:
        self._running_view = None
        self.version += 1
        memory = 0
        for r in self.running_map.values():
            memory += r.task.memory_bytes
        self.memory_in_use = memory

    # -- the engine's side of the actions ------------------------------------------------

    def start_task(self, task: Task, parallelism: float) -> None:
        if task.task_id in self.running_map:
            raise SimulationError(f"{task!r} is already running")
        self.claim(task)
        io_service = io_service_time(self.machine, task.io_pattern)
        clock = self.clock
        # Positional, in field order: half the cost of a keyword call.
        run = _Running(
            task,
            parallelism,
            task.seq_time,  # remaining
            clock,  # started_at
            [(clock, parallelism)],  # history
            task.io_rate,
            task.io_pattern,
            max(0.0, 1.0 - task.io_rate * io_service),  # cpu_frac
        )
        self.running_map[task.task_id] = run
        self._running_changed()
        if self.tracer is not None:
            self._instant(
                f"start x={parallelism:g}", task, "task", {"parallelism": parallelism}
            )

    def adjust_task(self, task: Task, parallelism: float) -> None:
        run = self.running_map.get(task.task_id)
        if run is None:
            raise SimulationError(f"task {task.task_id} is not running")
        if abs(run.parallelism - parallelism) > _EPS:
            run.parallelism = parallelism
            self.version += 1
            run.remaining += self._adjustment_overhead
            run.history.append((self.clock, parallelism))
            self.adjustments += 1
            if self.tracer is not None:
                self._instant(
                    f"adjust x={parallelism:g}",
                    task,
                    "adjust",
                    {"parallelism": parallelism},
                )

    def cancel_task(self, task: Task, reason: str) -> None:
        run = self.running_map.pop(task.task_id, None)
        if run is None:
            self.cancel(task, reason)
        else:
            self.cancel(task, reason, started_at=run.started_at)
            self._running_changed()

    def task_cancelled(self, record, where) -> None:
        if self.tracer is not None:
            self._instant(f"cancel ({record.reason})", record.task, "cancel")

    def shed_task(self, task: Task) -> None:
        super().shed_task(task)
        if self.tracer is not None:
            self._instant("shed", task, "admission")

    def _instant(self, name: str, task: Task, cat: str, args=None) -> None:
        self.tracer.instant(
            name, t=self.clock, track=f"task:{task.name}", cat=cat, args=args
        )

    # -- time ------------------------------------------------------------------------

    def settle(self) -> None:
        """Retire finished tasks and admit due arrivals.

        ``run()`` calls it only at an event where some run's work ran
        out (``remaining <= _EPS``); at any other event nothing can
        retire, and ``run()`` admits due arrivals without it."""
        finished = [
            run for run in self.running_map.values() if run.remaining <= _EPS
        ]
        if finished:
            for run in finished:
                del self.running_map[run.task.task_id]
                self.complete(
                    run.task, run.started_at, self.clock, run.history
                )
                if self.tracer is not None:
                    self.tracer.span(
                        run.task.name,
                        t=run.started_at,
                        dur=self.clock - run.started_at,
                        track=f"task:{run.task.name}",
                        cat="task",
                        args={"adjustments": len(run.history) - 1},
                    )
            self._running_changed()
        self.admit_due(self.clock + _EPS)
