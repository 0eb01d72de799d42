"""The fluid engine against a reference copy of its event loop.

:class:`ReferenceFluid` is the loop ``FluidSimulator.run`` had before
each event became one walk: it builds the ``horizons`` list, asks
``next_arrival_in`` and ``done``, settles at every event, solves the
rates afresh at every event (no ``_SimState.version`` memo) and folds
every sum — the bandwidth mix's too — with ``sum()``.  The engine must
produce a bit-identical :class:`ScheduleResult` — records, parallelism
histories, cancels, sheds and every integral — over the Figure-7
mixes, random task sets with staggered arrivals and dependencies, a
policy that adjusts at almost every consult, and the serving gate;
and, with a tracer and an invariant checker attached, the same trace
events and the same number of checks.  The edges the one-walk loop has
to get right have their own cells: tasks shorter than the engine's
epsilon, an arrival exactly at a completion instant, three or more
tasks running at once, and tracer and checker on.  ``pytest -m fuzz
tests/sim/test_rate_memo.py`` is the hypothesis campaign; the grid
below runs in tier-1.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.check import InvariantChecker
from repro.core.schedulers import (
    Adjust,
    Cancel,
    InterWithAdjPolicy,
    SchedulingPolicy,
    Start,
    policy_by_name,
)
from repro.core.task import IOPattern, make_task
from repro.errors import SimulationError
from repro.faults.retry import RetryPolicy
from repro.obs import Tracer
from repro.service.admission import BalanceAwareAdmission, FifoAdmission
from repro.service.queue import ServiceSubmission
from repro.service.gate import AdmissionGate
from repro.sim import FluidSimulator
from repro.sim.fluid import _EPS, _MAX_EVENTS, _SimState
from repro.workloads import WorkloadKind
from repro.workloads.mixes import generate_tasks

MACHINE = paper_machine()


def _settle(state):
    """Retire finished tasks and admit due arrivals (every event)."""
    finished = [run for run in state.running_map.values() if run.remaining <= _EPS]
    if finished:
        for run in finished:
            del state.running_map[run.task.task_id]
            state.complete(run.task, run.started_at, state.clock, run.history)
            if state.tracer is not None:
                state.tracer.span(
                    run.task.name,
                    t=run.started_at,
                    dur=state.clock - run.started_at,
                    track=f"task:{run.task.name}",
                    cat="task",
                    args={"adjustments": len(run.history) - 1},
                )
        state._running_changed()
    state.admit_due(state.clock + _EPS)


def _done(state):
    return not (state.running_map or state.waiting or state.arrivals)


def _next_arrival_in(state):
    if not state.arrivals:
        return None
    return max(0.0, state.arrivals[0][0] - state.clock)


class ReferenceFluid(FluidSimulator):
    """The fluid engine's event loop before it became one walk.

    Only the loop, the rate solve and ``settle`` are kept here; the
    actions still go through the engine's ``_SimState``.  ``solves``
    counts rate solves — one per event, since nothing is memoized.
    """

    def run(self, tasks, policy):
        self.solves = 0
        policy.reset()
        state = _SimState(self.machine, tasks, self.adjustment_overhead, self.tracer)
        cpu_busy = 0.0
        cpu_service = 0.0
        io_served = 0.0
        peak_memory = 0.0
        invariants = self.invariants
        for __ in range(_MAX_EVENTS):
            actions = policy.decide(state)
            if actions:
                state.apply(actions)
            if state.memory_in_use > peak_memory:
                peak_memory = state.memory_in_use
            if _done(state):
                break
            wakeup = policy.next_wakeup(state.clock)
            rates = self._rates(state)
            horizons = [run.remaining / rate for run, rate in rates if rate > _EPS]
            next_arrival = _next_arrival_in(state)
            if next_arrival is not None:
                horizons.append(next_arrival)
            horizon = min(horizons) if horizons else None
            if wakeup is not None:
                wake_in = max(wakeup - state.clock, _EPS)
                horizon = wake_in if horizon is None else min(horizon, wake_in)
            if horizon is None:
                if state.running:
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
            for run, rate in rates:
                run.remaining -= rate * dt
                cpu_busy += run.parallelism * dt
                cpu_service += run.cpu_frac * rate * dt
                io_served += run.io_rate * rate * dt
            state.clock += dt
            _settle(state)
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

    def _rates(self, state):
        self.solves += 1
        running = state.running
        if not running:
            return []
        total_x = sum(r.parallelism for r in running)
        processors = float(self.machine.processors)
        cpu_scale = min(1.0, processors / total_x) if total_x > 0 else 1.0
        demand = [r.io_rate * r.parallelism * cpu_scale for r in running]
        total_demand = sum(demand)
        bandwidth = self._bandwidth(running, demand)
        io_scale = min(1.0, bandwidth / total_demand) if total_demand > _EPS else 1.0
        return [(r, r.parallelism * cpu_scale * io_scale) for r in running]

    def _bandwidth(self, running, demand):
        seq_rates = [
            d for r, d in zip(running, demand) if r.io_pattern == IOPattern.SEQUENTIAL
        ]
        random_total = sum(
            d for r, d in zip(running, demand) if r.io_pattern == IOPattern.RANDOM
        )
        return _bandwidth_mix(self.machine, seq_rates, random_total)


def _bandwidth_mix(machine, sequential_rates, random_rate_total):
    """``repro.core.balance.effective_bandwidth`` on ``sum()`` and
    ``max()``, as the reference loop called it."""
    bs = machine.io_bandwidth
    br = machine.total_random_bandwidth
    seq_rates = [r for r in sequential_rates if r > 0]
    seq_total = sum(seq_rates)
    total = seq_total + max(random_rate_total, 0.0)
    if total <= 0:
        return bs
    if not seq_rates:
        return br
    largest = max(seq_rates)
    interleave = min(1.0, (seq_total - largest) / largest) if largest > 0 else 0.0
    seq_regime = br + (1.0 - interleave) * (bs - br)
    seq_share = seq_total / total
    return br + seq_share * (seq_regime - br)


class ChurnPolicy(SchedulingPolicy):
    """Starts up to ``width`` tasks at random degrees and re-seats
    running ones at almost every consult — sometimes to the degree they
    already have, sometimes within the engine's epsilon of it,
    sometimes cancelling one."""

    name = "CHURN"

    def __init__(self, seed: int, *, cancels: bool = True, width: int = 3) -> None:
        self.seed = seed
        self.cancels = cancels
        self.width = width
        self.rng = random.Random(seed)

    def reset(self):
        self.rng = random.Random(self.seed)

    def decide(self, state):
        rng = self.rng
        actions = []
        running = list(state.running)
        for view in running:
            roll = rng.random()
            if roll < 0.4:
                actions.append(Adjust(view.task, rng.uniform(0.5, 6.0)))
            elif roll < 0.5:
                actions.append(Adjust(view.task, view.parallelism))
            elif roll < 0.6:
                actions.append(Adjust(view.task, view.parallelism + 1e-10))
            elif roll < 0.62 and self.cancels:
                actions.append(Cancel(view.task, "churn"))
        for task in state.pending[: max(0, self.width - len(running))]:
            actions.append(Start(task, rng.uniform(0.5, 6.0)))
        return actions


def digest(result):
    """Everything a ScheduleResult holds, floats as ``float.hex``."""

    def hx(value):
        return None if value is None else float(value).hex()

    return {
        "policy": result.policy_name,
        "totals": [
            hx(result.elapsed),
            result.adjustments,
            hx(result.cpu_busy),
            hx(result.io_served),
            hx(result.peak_memory),
            hx(result.cpu_busy_occupancy),
            hx(result.cpu_busy_service),
        ],
        "records": [
            [
                r.task.name,
                hx(r.started_at),
                hx(r.finished_at),
                [[hx(t), hx(x)] for t, x in r.parallelism_history],
            ]
            for r in result.records
        ],
        "cancels": [
            [c.task.name, hx(c.cancelled_at), hx(c.started_at), c.reason]
            for c in result.cancel_records
        ],
        "sheds": [[s.task.name, hx(s.shed_at)] for s in result.shed_records],
    }


def assert_memo_agrees(make_tasks, make_policy, *, hooks=False):
    """Run the engine and the reference loop on fresh copies of one task
    set and policy; demand identical results.  With ``hooks`` each side
    also gets its own tracer and a collecting invariant checker, and
    their events (``repr``, so floats compare bit for bit), check counts
    and violations must agree too.  A draw the reference fails on (a
    policy that starts nothing while tasks wait, DESIGN.md §5
    "Consults") must fail the engine with the same error."""

    def build(cls):
        if not hooks:
            return cls(MACHINE)
        return cls(
            MACHINE, tracer=Tracer(), invariants=InvariantChecker(collect=True)
        )

    reference = build(ReferenceFluid)
    engine_ = build(FluidSimulator)
    try:
        expected = reference.run(make_tasks(), make_policy())
    except SimulationError as error:
        with pytest.raises(SimulationError) as raised:
            engine_.run(make_tasks(), make_policy())
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        return reference
    actual = engine_.run(make_tasks(), make_policy())
    assert digest(actual) == digest(expected)
    if hooks:
        assert [repr(e) for e in engine_.tracer.events] == [
            repr(e) for e in reference.tracer.events
        ]
        assert engine_.invariants.checks == reference.invariants.checks > 0
        assert engine_.invariants.violations == reference.invariants.violations
    return reference


def random_tasks(seed, n, *, tiny_share=0.0):
    """``n`` tasks with staggered arrivals, some chained by dependency;
    with ``tiny_share``, about that share of them is shorter than the
    engine's epsilon."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        seq_time = rng.uniform(0.5, 30.0)
        if tiny_share and rng.random() < tiny_share:
            seq_time = rng.uniform(1e-12, 0.9 * _EPS)
        task = make_task(
            f"t{i}",
            io_rate=rng.uniform(1.0, 90.0),
            seq_time=seq_time,
            io_pattern=rng.choice(list(IOPattern)),
            arrival_time=rng.choice((0.0, rng.uniform(0.0, 20.0))),
        )
        if tasks and rng.random() < 0.3:
            task = task.with_dependencies({rng.choice(tasks).task_id})
        tasks.append(task)
    return tasks


def arriving_at_a_completion(seed, n, make_policy, pick=0):
    """``random_tasks(seed, n)`` plus one task stamped to arrive at the
    ``pick``-th completion instant of that set's run without it.  A set
    whose run fails has no such instant: it is returned as it is, and
    :func:`assert_memo_agrees` expects the failure."""
    try:
        probe = FluidSimulator(MACHINE).run(random_tasks(seed, n), make_policy())
    except SimulationError:
        return lambda: random_tasks(seed, n)
    instants = sorted({r.finished_at for r in probe.records})
    at = instants[pick % len(instants)]

    def make_tasks():
        late = make_task("late", io_rate=30.0, seq_time=4.0, arrival_time=at)
        return random_tasks(seed, n) + [late]

    return make_tasks


def gate_stream(seed, n):
    rng = random.Random(seed)
    clock = 0.0
    stream = []
    for i in range(n):
        clock += rng.expovariate(0.4)
        tasks = []
        for f in range(rng.randint(1, 3)):
            task = make_task(
                f"q{i}f{f}",
                io_rate=rng.uniform(4.0, 70.0),
                seq_time=rng.uniform(1.0, 12.0),
                arrival_time=clock,
            )
            if tasks:
                task = task.with_dependencies({tasks[-1].task_id})
            tasks.append(task)
        deadline = clock + rng.uniform(5.0, 40.0) if rng.random() < 0.6 else None
        stream.append(
            ServiceSubmission(
                name=f"q{i}",
                tenant=f"t{i % 3}",
                tasks=tuple(tasks),
                arrival_time=clock,
                deadline=deadline,
            )
        )
    return stream


#: ``(deadline_policy, deadline_grace)`` cells of the gate runs.  Zero
#: grace cancels every unfinished fragment at the deadline; its grid id
#: is "kill", the name of the policy it replaced.
DEADLINES = [("off", 2.0), ("shed", 2.0), ("shed", 0.0)]


def assert_gate_agrees(stream, *, balance, deadline, inner_seed=None):
    deadline_policy, deadline_grace = deadline

    def gate():
        inner = (
            InterWithAdjPolicy()
            if inner_seed is None
            else ChurnPolicy(inner_seed, cancels=False)
        )
        gate = AdmissionGate(
            inner=inner,
            admission=BalanceAwareAdmission() if balance else FifoAdmission(),
            queue_capacity=3,
            max_inflight_fragments=4,
            retry=RetryPolicy(max_retries=2, base_delay=0.5, max_delay=4.0),
            deadline_policy=deadline_policy,
            deadline_grace=deadline_grace,
        )
        gate.load(stream)
        return gate

    pooled = [task for s in stream for task in s.tasks]
    expected_gate, actual_gate = gate(), gate()
    expected = ReferenceFluid(MACHINE).run(pooled, expected_gate)
    actual = FluidSimulator(MACHINE).run(pooled, actual_gate)
    assert digest(actual) == digest(expected)
    assert actual_gate.decide_rounds == expected_gate.decide_rounds
    assert [
        (o.submission.name, o.status) for o in actual_gate.outcomes(actual)
    ] == [(o.submission.name, o.status) for o in expected_gate.outcomes(expected)]


class TestRateMemoGrid:
    @pytest.mark.parametrize("kind", list(WorkloadKind))
    @pytest.mark.parametrize(
        "policy_name", ["INTRA-ONLY", "INTER-WITHOUT-ADJ", "INTER-WITH-ADJ"]
    )
    @pytest.mark.parametrize("integral", [False, True])
    def test_figure7_mixes(self, kind, policy_name, integral):
        assert_memo_agrees(
            lambda: generate_tasks(kind, seed=3, machine=MACHINE),
            lambda: policy_by_name(policy_name, integral=integral),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_churn_with_arrivals_and_dependencies(self, seed):
        reference = assert_memo_agrees(
            lambda: random_tasks(seed, 12), lambda: ChurnPolicy(seed)
        )
        assert reference.solves > 0

    @pytest.mark.parametrize("effective", [False, True])
    def test_nominal_and_effective_bandwidth(self, effective):
        assert_memo_agrees(
            lambda: random_tasks(7, 10),
            lambda: InterWithAdjPolicy(use_effective_bandwidth=effective),
        )

    @pytest.mark.parametrize("deadline", DEADLINES, ids=["off", "shed", "kill"])
    @pytest.mark.parametrize("balance", [False, True])
    def test_admission_gate(self, deadline, balance):
        assert_gate_agrees(gate_stream(11, 30), balance=balance, deadline=deadline)

    def test_the_memo_skips_solves(self):
        """The memo is live: an INTER-WITH-ADJ run solves fewer times
        than it has events."""
        solves = []

        class Counting(FluidSimulator):
            def _rates(self, state):
                solves.append(state.version)
                return super()._rates(state)

        tasks = random_tasks(5, 12)
        reference = ReferenceFluid(MACHINE)
        reference.run(random_tasks(5, 12), InterWithAdjPolicy())
        Counting(MACHINE).run(tasks, InterWithAdjPolicy())
        assert 0 < len(solves) < reference.solves
        assert len(set(solves)) == len(solves)


class TestReferenceLoopEdges:
    """The cases the one-walk event loop must get right, one cell each."""

    @pytest.mark.parametrize("seed", range(3))
    def test_tasks_shorter_than_epsilon(self, seed):
        assert_memo_agrees(
            lambda: random_tasks(seed, 12, tiny_share=0.4),
            lambda: ChurnPolicy(seed, width=4),
        )

    @pytest.mark.parametrize("pick", range(4))
    def test_an_arrival_at_a_completion_instant(self, pick):
        make_policy = InterWithAdjPolicy
        assert_memo_agrees(arriving_at_a_completion(2, 8, make_policy, pick), make_policy)

    @pytest.mark.parametrize("width", [3, 5])
    def test_three_or_more_running_tasks(self, width):
        seen = []

        class Widest(ChurnPolicy):
            def decide(self, state):
                seen.append(len(state.running))
                return super().decide(state)

        assert_memo_agrees(
            lambda: random_tasks(4, 14), lambda: Widest(4, width=width)
        )
        assert max(seen) >= 3

    @pytest.mark.parametrize("churn", [False, True])
    def test_tracer_and_invariants_on(self, churn):
        assert_memo_agrees(
            lambda: random_tasks(6, 12, tiny_share=0.2),
            (lambda: ChurnPolicy(6)) if churn else InterWithAdjPolicy,
            hooks=True,
        )


@pytest.mark.fuzz
class TestRateMemoCampaign:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 14),
        churn=st.booleans(),
        integral=st.booleans(),
        effective=st.booleans(),
    )
    def test_random_task_sets(self, seed, n, churn, integral, effective):
        assert_memo_agrees(
            lambda: random_tasks(seed, n),
            (
                (lambda: ChurnPolicy(seed))
                if churn
                else (
                    lambda: InterWithAdjPolicy(
                        integral=integral, use_effective_bandwidth=effective
                    )
                )
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        balance=st.booleans(),
        deadline=st.sampled_from(DEADLINES),
        churn=st.booleans(),
    )
    def test_admission_gate(self, seed, n, balance, deadline, churn):
        assert_gate_agrees(
            gate_stream(seed, n),
            balance=balance,
            deadline=deadline,
            inner_seed=seed if churn else None,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 16),
        tiny_share=st.sampled_from([0.0, 0.3]),
        width=st.integers(1, 6),
        churn=st.booleans(),
        hooks=st.booleans(),
        coincide=st.booleans(),
        pick=st.integers(0, 20),
    )
    # The policy cancels its only running task and sizes its starts from
    # the running set as it was before the batch, so it starts nothing
    # while three tasks wait: both loops raise "deadlock".
    @example(
        seed=39602, n=7, tiny_share=0.0, width=1, churn=True,
        hooks=False, coincide=False, pick=0,
    )
    @example(
        seed=39602, n=7, tiny_share=0.0, width=1, churn=True,
        hooks=True, coincide=True, pick=0,
    )
    def test_reference_loop_edges(
        self, seed, n, tiny_share, width, churn, hooks, coincide, pick
    ):
        """Sub-epsilon tasks, an arrival at a completion instant, up to
        six running tasks, tracer and checker on."""
        if churn:
            make_policy = lambda: ChurnPolicy(seed, width=width)  # noqa: E731
        else:
            make_policy = InterWithAdjPolicy
        if coincide:
            make_tasks = arriving_at_a_completion(seed, n, make_policy, pick)
        else:
            make_tasks = lambda: random_tasks(seed, n, tiny_share=tiny_share)  # noqa: E731
        assert_memo_agrees(make_tasks, make_policy, hooks=hooks)
