"""Both engines honour one contract (DESIGN.md, "Engine contract").

One scripted policy drives the fluid and the micro engine over the same
spec-backed tasks.  It sheds a waiting task, cancels a waiting task
(whose late-arriving dependent goes with it), holds a task behind
``next_wakeup``, and at the wake cancels a running task.  The two
engines must agree on who completed, who was shed and who was
cancelled; the wake consult must land on the requested instant; the
policy must never be consulted while one of its batches is still being
applied; and an illegal action must raise the same error type on both.
"""

import pytest

from repro.config import paper_machine
from repro.core.schedulers import (
    Adjust,
    Cancel,
    InterWithAdjPolicy,
    SchedulingPolicy,
    Shed,
    Start,
)
from repro.core.task import make_task
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule, QueryDeadline
from repro.obs import Tracer
from repro.sim import FluidSimulator, MicroSimulator, spec_for_io_rate

MACHINE = paper_machine()
ENGINES = {"fluid": FluidSimulator, "micro": MicroSimulator}
WAKE = 0.75


def scripted_tasks():
    """name -> Task; every payload is the ScanSpec the micro engine runs."""

    def scan(name, n_pages, arrival=0.0):
        spec = spec_for_io_rate(
            name, MACHINE, io_rate=20.0, n_pages=n_pages, arrival_time=arrival
        )
        return spec.to_task(MACHINE)

    tasks = {
        "keep": scan("keep", 200),
        "doomed": scan("doomed", 200),
        "shed-me": scan("shed-me", 40),
        "dropped": scan("dropped", 40),
        "held": scan("held", 40),
    }
    # Still in the arrival heap when its dependency is cancelled.
    tasks["orphan"] = scan("orphan", 40, arrival=2.0).with_dependencies(
        [tasks["dropped"].task_id]
    )
    return tasks


class _Batch(list):
    """An action list that flags its policy while it is iterated."""

    def __init__(self, policy, actions):
        super().__init__(actions)
        self._policy = policy

    def __iter__(self):
        self._policy.applying = True
        try:
            yield from super().__iter__()
        finally:
            self._policy.applying = False


class ScriptedPolicy(SchedulingPolicy):
    name = "SCRIPTED"

    def __init__(self, tasks):
        self.tasks = tasks
        self.reset()

    def reset(self):
        self.consults: list[float] = []
        self.reentered = False
        self.applying = False
        self.woken = False

    def next_wakeup(self, now):
        return None if self.woken else WAKE

    def decide(self, state):
        if self.applying:
            self.reentered = True
        t = self.tasks
        first = not self.consults
        self.consults.append(state.now)
        if first:
            return _Batch(
                self,
                [
                    Start(t["keep"], 2.0),
                    Start(t["doomed"], 2.0),
                    Shed(t["shed-me"]),
                    Cancel(t["dropped"], "deadline"),
                ],
            )
        if not self.woken and state.now >= WAKE - 1e-6:
            self.woken = True
            return _Batch(
                self,
                [
                    Cancel(t["doomed"], "deadline"),
                    # Already gone with its dependency: a no-op.
                    Cancel(t["orphan"], "deadline"),
                    Start(t["held"], 2.0),
                ],
            )
        return []


def run_script(engine):
    tasks = scripted_tasks()
    policy = ScriptedPolicy(tasks)
    result = ENGINES[engine](MACHINE).run(list(tasks.values()), policy)
    return policy, result


def outcome_names(result):
    return (
        {r.task.name for r in result.records},
        {r.task.name for r in result.shed_records},
        {r.task.name for r in result.cancel_records},
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestScriptedRun:
    def test_every_task_lands_in_its_bucket(self, engine):
        __, result = run_script(engine)
        done, shed, cancelled = outcome_names(result)
        assert done == {"keep", "held"}
        assert shed == {"shed-me"}
        assert cancelled == {"dropped", "orphan", "doomed"}
        assert len(result.cancel_records) == 3  # the repeat Cancel added none

    def test_cancel_takes_the_dependency_cone(self, engine):
        __, result = run_script(engine)
        by_name = {c.task.name: c for c in result.cancel_records}
        assert by_name["orphan"].reason == "dependency"
        assert by_name["orphan"].cancelled_at == by_name["dropped"].cancelled_at
        assert by_name["orphan"].started_at is None
        assert by_name["doomed"].started_at == 0.0

    def test_wake_consult_lands_on_the_requested_instant(self, engine):
        policy, result = run_script(engine)
        assert any(t == pytest.approx(WAKE, abs=1e-9) for t in policy.consults)
        held = next(r for r in result.records if r.task.name == "held")
        assert held.started_at == pytest.approx(WAKE, abs=1e-9)
        cancelled = {c.task.name: c for c in result.cancel_records}
        assert cancelled["doomed"].cancelled_at == pytest.approx(WAKE, abs=1e-9)

    def test_decide_is_never_entered_mid_batch(self, engine):
        policy, __ = run_script(engine)
        assert not policy.reentered
        assert not policy.applying


def test_engines_agree_on_every_outcome_set():
    __, fluid = run_script("fluid")
    __, micro = run_script("micro")
    assert outcome_names(fluid) == outcome_names(micro)


class _AlwaysWaking(SchedulingPolicy):
    """Starts whatever is ready and always asks to be woken later."""

    name = "WAKING"

    def next_wakeup(self, now):
        return now + 10.0

    def decide(self, state):
        return [Start(task, 2.0) for task in state.pending]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_wakeup_past_the_last_task_is_not_waited_for(engine):
    task = spec_for_io_rate("only", MACHINE, io_rate=20.0, n_pages=60).to_task(
        MACHINE
    )
    result = ENGINES[engine](MACHINE).run([task], _AlwaysWaking())
    (record,) = result.records
    assert result.elapsed == record.finished_at
    assert result.elapsed < 10.0


class _OneBadBatch(SchedulingPolicy):
    """Starts ``running``, then plays one illegal action; afterwards it
    starts whatever is ready, so an action an engine wrongly accepts
    ends the run cleanly instead of in a deadlock."""

    name = "ILLEGAL"

    def __init__(self, running, bad):
        self.running = running
        self.bad = bad
        self.reset()

    def reset(self):
        self.step = 0

    def decide(self, state):
        self.step += 1
        if self.step == 1:
            return [Start(self.running, 2.0), self.bad]
        return [Start(task, 2.0) for task in state.pending]


def _stranger():
    return spec_for_io_rate("stranger", MACHINE, io_rate=20.0, n_pages=40).to_task(
        MACHINE
    )


#: kind -> the illegal action, given the task the batch starts and a
#: second task that is still waiting.
ILLEGAL = {
    "start-of-a-running-task": lambda running, spare: Start(running, 2.0),
    "start-of-a-stranger": lambda running, spare: Start(_stranger(), 2.0),
    "adjust-of-a-stranger": lambda running, spare: Adjust(_stranger(), 2.0),
    "shed-of-a-running-task": lambda running, spare: Shed(running),
    "shed-of-a-stranger": lambda running, spare: Shed(_stranger()),
    "cancel-of-a-stranger": lambda running, spare: Cancel(_stranger(), "deadline"),
    "start-at-degree-0": lambda running, spare: Start(spare, 0.0),
    "start-at-degree-nan": lambda running, spare: Start(spare, float("nan")),
    "adjust-to-degree-0": lambda running, spare: Adjust(running, 0.0),
    "adjust-to-degree-minus-1": lambda running, spare: Adjust(running, -1.0),
    "adjust-to-degree-nan": lambda running, spare: Adjust(running, float("nan")),
}

#: The message an illegal degree raises on both engines.
DEGREE = "parallelism must be positive"
MESSAGE = {kind: DEGREE for kind in ILLEGAL if "-degree-" in kind}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("kind", sorted(ILLEGAL))
def test_illegal_action_raises_simulation_error(engine, kind):
    running, spare = (
        spec_for_io_rate(name, MACHINE, io_rate=20.0, n_pages=60).to_task(MACHINE)
        for name in ("running", "spare")
    )
    policy = _OneBadBatch(running, ILLEGAL[kind](running, spare))
    with pytest.raises(SimulationError, match=MESSAGE.get(kind)):
        ENGINES[engine](MACHINE).run([running, spare], policy)


def test_micro_rejects_a_task_without_a_scan_spec():
    bare = make_task("bare", io_rate=20.0, seq_time=1.0)
    policy = _OneBadBatch(bare, Adjust(bare, 3.0))
    with pytest.raises(SimulationError, match="ScanSpec"):
        MicroSimulator(MACHINE).run([bare], policy)


def test_cancelled_arrival_does_not_stretch_the_clock():
    """A deadline that cancels a not-yet-arrived task leaves nothing to
    wait for: the run ends at the last completion, not at the cancelled
    task's arrival instant (the armed arrival event is simply unused)."""
    specs = [
        spec_for_io_rate("a", MACHINE, io_rate=40.0, n_pages=200),
        spec_for_io_rate(
            "late", MACHINE, io_rate=40.0, n_pages=200, arrival_time=50.0
        ),
    ]
    faults = FaultSchedule([QueryDeadline(at=0.5, task="late")])
    result = MicroSimulator(MACHINE, faults=faults).run(
        specs, InterWithAdjPolicy(integral=True)
    )
    assert [c.task.name for c in result.cancel_records] == ["late"]
    (record,) = result.records
    assert record.task.name == "a"
    assert result.elapsed == record.finished_at
    assert result.elapsed == pytest.approx(0.8619, abs=1e-3)


def test_micro_labels_a_cancel_by_where_the_ledger_held_the_task():
    """``late`` is due at its own deadline instant but its admit event
    has not fired: the ledger finds it among the arrivals, and that —
    not its arrival stamp — is what the fault log says."""
    specs = [
        spec_for_io_rate("a", MACHINE, io_rate=40.0, n_pages=200),
        spec_for_io_rate("late", MACHINE, io_rate=40.0, n_pages=40, arrival_time=0.5),
        spec_for_io_rate("queued", MACHINE, io_rate=40.0, n_pages=40),
    ]
    faults = FaultSchedule(
        [QueryDeadline(at=0.5, task="late"), QueryDeadline(at=0.25, task="queued")]
    )

    class OnlyA(SchedulingPolicy):
        name = "ONLY-A"

        def decide(self, state):
            return [Start(t, 2.0) for t in state.pending if t.name == "a"]

    result = MicroSimulator(MACHINE, faults=faults).run(specs, OnlyA())
    cancels = [d for __, kind, d in result.fault_log.events if kind == "cancel"]
    assert cancels == [
        "queued: cancelled (deadline) before start",
        "late: cancelled (deadline) before arrival",
    ]


def test_micro_traces_a_running_cancel_root_then_counter_then_cone():
    root = spec_for_io_rate("root", MACHINE, io_rate=40.0, n_pages=400).to_task(
        MACHINE
    )
    child = (
        spec_for_io_rate("child", MACHINE, io_rate=40.0, n_pages=40)
        .to_task(MACHINE)
        .with_dependencies([root.task_id])
    )
    tracer = Tracer()
    faults = FaultSchedule([QueryDeadline(at=0.25, task="root")])
    result = MicroSimulator(MACHINE, faults=faults, tracer=tracer).run(
        [root, child], _AlwaysWaking()
    )
    at_cancel = [
        (e.kind, e.name, e.track) for e in tracer.events if e.start == 0.25
    ]
    assert at_cancel == [
        ("instant", "cancel (deadline)", "task:root"),
        ("counter", "running_tasks", "counters"),
        ("instant", "cancel (dependency)", "task:child"),
    ]
    details = [d for __, kind, d in result.fault_log.events if kind == "cancel"]
    assert details[0].startswith("root: cancelled (deadline) after ")
    assert details[1] == "child: cancelled (dependency) before start"
