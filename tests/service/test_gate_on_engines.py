"""The unmodified admission gate runs on either engine.

This is the acceptance test of the engine contract (DESIGN.md): one
``AdmissionGate`` object — sheds, retries, deadline cancels, wake-ups
and all — drives first the fluid and then the micro engine over one
spec-backed arrival stream.  On both, every task must end in exactly
one of completed / shed / cancelled, and every submission in exactly
one status of ``AdmissionGate.outcomes``.  Nothing here is a service
mode: ``QueryService`` still runs the fluid engine only, and the fluid
arm's outcomes must equal its own; the micro run exists so
serving-time scheduling code can be cross-checked at page level.
"""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.faults import breaker as breaker_module
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.service.admission import BalanceAwareAdmission, FifoAdmission
from repro.service.queue import ServiceSubmission
from repro.service.gate import AdmissionGate
from repro.service.server import QueryService
from repro.sim import FluidSimulator, MicroSimulator, spec_for_io_rate

from .corpus_tools import STATUSES

MACHINE = paper_machine()


def spec_stream(seed, n=40, *, rate=1.2, max_fragments=2):
    """``n`` submissions of 1..max_fragments chained scans each.

    Every task's payload is its ScanSpec, so the same ``Task`` objects
    run on both engines.  Arrivals sit on a millisecond grid: the two
    engines use different epsilons for "due now", and the contract
    leaves arrivals closer together than that to the caller.
    """
    rng = random.Random(seed)
    clock = 0.0
    submissions = []
    for i in range(n):
        clock += rng.expovariate(rate)
        arrival = round(clock, 3)
        tasks = []
        for f in range(rng.randint(1, max_fragments)):
            task = spec_for_io_rate(
                f"q{i}f{f}",
                MACHINE,
                io_rate=rng.uniform(6.0, 55.0),
                n_pages=rng.randrange(40, 160),
                arrival_time=arrival,
                partitioning=rng.choice(("page", "range")),
            ).to_task(MACHINE)
            if tasks:
                task = task.with_dependencies([tasks[-1].task_id])
            tasks.append(task)
        work = sum(t.seq_time for t in tasks)
        deadline = (
            arrival + rng.uniform(0.3, 1.5) * work
            if rng.random() < 0.7
            else None
        )
        submissions.append(
            ServiceSubmission(
                name=f"q{i}",
                tenant=f"t{i % 2}",
                tasks=tuple(tasks),
                arrival_time=arrival,
                deadline=deadline,
            )
        )
    return submissions


def run_on_both(submissions, *, seed=0, **config):
    """Run one ``AdmissionGate(**config)`` over ``submissions`` on each engine.

    Returns ``{engine: (ScheduleResult, outcomes)}``, the outcomes read
    from the gate right after that engine's run.
    """
    gate = AdmissionGate(**config)
    gate.load(submissions)
    pooled = [task for s in submissions for task in s.tasks]
    engines = {
        "fluid": FluidSimulator(MACHINE),
        "micro": MicroSimulator(MACHINE, seed=seed),
    }
    runs = {}
    for name, sim in engines.items():
        schedule = sim.run(pooled, gate)
        runs[name] = (schedule, gate.outcomes(schedule))
    return runs


def assert_conserved(submissions, runs):
    everyone = {task.name for s in submissions for task in s.tasks}
    for engine, (result, outcomes) in runs.items():
        done = {r.task.name for r in result.records}
        shed = {r.task.name for r in result.shed_records}
        cancelled = {r.task.name for r in result.cancel_records}
        assert done | shed | cancelled == everyone, engine
        assert not (done & shed or done & cancelled or shed & cancelled), engine
        assert len(done) + len(shed) + len(cancelled) == len(everyone), engine
        # Submissions too: exactly one status each, and the status
        # counts sum to the stream length.
        names = [o.submission.name for o in outcomes]
        assert sorted(names) == sorted(s.name for s in submissions), engine
        counts = Counter(o.status for o in outcomes)
        assert set(counts) <= set(STATUSES), engine
        assert sum(counts.values()) == len(submissions), engine


def assert_fluid_arm_is_the_service(submissions, runs, *, inner, **config):
    """The fluid arm's outcomes are what ``QueryService.run`` reports."""
    service = QueryService(MACHINE, scheduler=inner, **config)
    assert service.run(submissions).outcomes == runs["fluid"][1]


@pytest.mark.parametrize("retry", [False, True], ids=["single-shot", "retry"])
# Zero grace cancels every unfinished fragment at the deadline; its id is
# "kill", the name of the policy it replaced.
@pytest.mark.parametrize(
    "deadline_policy, deadline_grace",
    [("off", 0.5), ("shed", 0.5), ("shed", 0.0)],
    ids=["off", "shed", "kill"],
)
@pytest.mark.parametrize("seed", range(6))
def test_gate_completes_on_both_engines(seed, deadline_policy, deadline_grace, retry):
    submissions = spec_stream(seed)
    config = dict(
        inner=InterWithAdjPolicy(integral=True),
        admission=FifoAdmission(),
        queue_capacity=2,
        max_inflight_fragments=3,
        retry=(
            RetryPolicy(max_retries=3, base_delay=0.2, max_delay=2.0)
            if retry
            else None
        ),
        deadline_policy=deadline_policy,
        deadline_grace=deadline_grace,
    )
    runs = run_on_both(submissions, seed=seed, **config)
    assert_conserved(submissions, runs)
    assert_fluid_arm_is_the_service(submissions, runs, **config)
    # Page-level and fluid time agree loosely on the same stream.
    assert runs["micro"][0].elapsed == pytest.approx(
        runs["fluid"][0].elapsed, rel=0.15
    )


@pytest.mark.fuzz
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=30),
    rate=st.sampled_from([0.3, 1.0, 3.0, 10.0]),
    max_fragments=st.integers(min_value=1, max_value=3),
    queue_capacity=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=5),
    deadline_policy=st.sampled_from(["off", "shed"]),
    # Zero grace cancels every unfinished fragment at the deadline.
    grace=st.sampled_from([0.0, 0.5, 5.0]),
    retry=st.booleans(),
    breaker=st.booleans(),
    balance=st.booleans(),
)
def test_gate_conserves_tasks_on_both_engines_fuzz(
    seed,
    n,
    rate,
    max_fragments,
    queue_capacity,
    budget,
    deadline_policy,
    grace,
    retry,
    breaker,
    balance,
):
    submissions = spec_stream(
        seed, n, rate=rate, max_fragments=max_fragments
    )
    config = dict(
        inner=InterWithAdjPolicy(integral=True),
        admission=BalanceAwareAdmission() if balance else FifoAdmission(),
        queue_capacity=queue_capacity,
        max_inflight_fragments=budget,
        retry=(
            RetryPolicy(max_retries=2, base_delay=0.1, max_delay=1.0)
            if retry
            else None
        ),
        breaker=CircuitBreaker() if breaker else None,
        deadline_policy=deadline_policy,
        deadline_grace=grace,
    )
    # A breaker that trips after two sheds and half-opens after 1 s.
    with mock.patch.multiple(breaker_module, FAILURE_THRESHOLD=2, COOLDOWN=1.0):
        runs = run_on_both(submissions, seed=seed, **config)
        assert_conserved(submissions, runs)
        assert_fluid_arm_is_the_service(submissions, runs, **config)
