"""The fluid engine's rate memo against an engine that re-solves always.

``FluidSimulator.run`` re-solves the progress rates only when
``_SimState.version`` moved — a task started, finished or was
cancelled, or an adjustment changed a parallelism.  The oracle here is
the engine without that shortcut: :class:`ResolvingFluid` bumps the
version before every consult, so every event solves the rates afresh.
Both must produce bit-identical :class:`ScheduleResult` s — records,
parallelism histories, cancels, sheds and every integral — over the
Figure-7 mixes, random task sets with staggered arrivals and
dependencies, a policy that adjusts at almost every consult, and the
serving gate.  ``pytest -m fuzz tests/sim/test_rate_memo.py`` is the
hypothesis campaign; the grid below runs in tier-1.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core.schedulers import (
    Adjust,
    Cancel,
    InterWithAdjPolicy,
    SchedulingPolicy,
    Start,
    policy_by_name,
)
from repro.core.task import IOPattern, make_task
from repro.faults.retry import RetryPolicy
from repro.service.admission import BalanceAwareAdmission, FifoAdmission
from repro.service.queue import ServiceSubmission
from repro.service.server import AdmissionGate
from repro.sim import FluidSimulator
from repro.workloads import WorkloadKind
from repro.workloads.mixes import generate_tasks

MACHINE = paper_machine()


class _EveryEvent(SchedulingPolicy):
    """Delegates to ``inner`` and marks the rates stale at every consult."""

    def __init__(self, inner: SchedulingPolicy) -> None:
        self.inner = inner
        self.name = inner.name

    def decide(self, state):
        state.version += 1
        return self.inner.decide(state)

    def next_wakeup(self, now):
        return self.inner.next_wakeup(now)

    def reset(self):
        self.inner.reset()


class ResolvingFluid(FluidSimulator):
    """The fluid engine with rates re-solved at every event."""

    def run(self, tasks, policy):
        self.solves = 0
        return super().run(tasks, _EveryEvent(policy))

    def _rates(self, state):
        self.solves += 1
        return super()._rates(state)


class ChurnPolicy(SchedulingPolicy):
    """Starts up to three tasks at random degrees and re-seats running
    ones at almost every consult — sometimes to the degree they already
    have, sometimes within the engine's epsilon of it, sometimes
    cancelling one."""

    name = "CHURN"

    def __init__(self, seed: int, *, cancels: bool = True) -> None:
        self.seed = seed
        self.cancels = cancels
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
        for task in state.pending[: max(0, 3 - len(running))]:
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


def assert_memo_agrees(make_tasks, make_policy, **engine):
    """Run the memoized and the always-solving engine on fresh copies
    of one task set and policy; demand identical results."""
    reference = ResolvingFluid(MACHINE, **engine)
    expected = reference.run(make_tasks(), make_policy())
    memo = FluidSimulator(MACHINE, **engine)
    actual = memo.run(make_tasks(), make_policy())
    assert digest(actual) == digest(expected)
    return reference


def random_tasks(seed, n):
    """``n`` tasks with staggered arrivals, some chained by dependency."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        task = make_task(
            f"t{i}",
            io_rate=rng.uniform(1.0, 90.0),
            seq_time=rng.uniform(0.5, 30.0),
            io_pattern=rng.choice(list(IOPattern)),
            arrival_time=rng.choice((0.0, rng.uniform(0.0, 20.0))),
        )
        if tasks and rng.random() < 0.3:
            task = task.with_dependencies({rng.choice(tasks).task_id})
        tasks.append(task)
    return tasks


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


def assert_gate_agrees(stream, *, balance, deadline_policy, inner_seed=None):
    def gate():
        inner = (
            InterWithAdjPolicy()
            if inner_seed is None
            else ChurnPolicy(inner_seed, cancels=False)
        )
        return AdmissionGate(
            stream,
            inner=inner,
            admission=BalanceAwareAdmission() if balance else FifoAdmission(),
            queue_capacity=3,
            max_inflight_fragments=4,
            retry=RetryPolicy(max_retries=2, base_delay=0.5, max_delay=4.0),
            deadline_policy=deadline_policy,
            deadline_grace=2.0,
        )

    pooled = [task for s in stream for task in s.tasks]
    expected_gate, actual_gate = gate(), gate()
    expected = ResolvingFluid(MACHINE).run(pooled, expected_gate)
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
            use_effective_bandwidth=effective,
        )

    @pytest.mark.parametrize("deadline_policy", ["off", "shed", "kill"])
    @pytest.mark.parametrize("balance", [False, True])
    def test_admission_gate(self, deadline_policy, balance):
        assert_gate_agrees(
            gate_stream(11, 30), balance=balance, deadline_policy=deadline_policy
        )

    def test_the_memo_skips_solves(self):
        """The memo is live: an INTER-WITH-ADJ run solves fewer times
        than it has events."""
        solves = []

        class Counting(FluidSimulator):
            def _rates(self, state):
                solves.append(state.version)
                return super()._rates(state)

        tasks = random_tasks(5, 12)
        reference = ResolvingFluid(MACHINE)
        reference.run(random_tasks(5, 12), InterWithAdjPolicy())
        Counting(MACHINE).run(tasks, InterWithAdjPolicy())
        assert 0 < len(solves) < reference.solves
        assert len(set(solves)) == len(solves)


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
            use_effective_bandwidth=effective,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        balance=st.booleans(),
        deadline_policy=st.sampled_from(["off", "shed", "kill"]),
        churn=st.booleans(),
    )
    def test_admission_gate(self, seed, n, balance, deadline_policy, churn):
        assert_gate_agrees(
            gate_stream(seed, n),
            balance=balance,
            deadline_policy=deadline_policy,
            inner_seed=seed if churn else None,
        )
