"""An injector that is present but idle must leave a run bit-identical.

A run with an *empty* fault schedule has an injector that injects
nothing.  The engine then does more than on a healthy run: per served
request it reads the disk's bandwidth factor (1.0) and skips the
health fold (a healthy estimate of 1.0 is the fold's fixed point); it
checks the stall list (never set).  Everything else is one rule with or
without an injector: every adjustment round arms its timeout, and a
cancel purges the cancelled run's queued disk requests.  The two runs
must agree to the last bit, per-disk counters, busy time, cancel
records and tracer events included.

Both arms serve a singleton queue on an unstalled disk inline in
``_MicroEngine.run`` and deeper queues through ``_dispatch_disk``;
stalls and the cold callers of ``_slave_next`` are general-path only.
"Inlined ≡ general" under real faults is pinned by the frozen
``data/trace_corpus.json``, whose faulted cells were generated while
every request of a faulted run took the general serve.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
)
from repro.core.schedulers import Cancel, SchedulingPolicy, Start
from repro.core.task import IOPattern
from repro.faults import FaultSchedule
from repro.obs import Tracer
from repro.sim import MicroSimulator, spec_for_io_rate
from repro.sim.micro import _MicroEngine
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs

from .corpus_tools import trace_digest

MACHINE = paper_machine()

POLICIES = {
    "intra-only": lambda: IntraOnlyPolicy(integral=True),
    "inter-without-adj": lambda: InterWithoutAdjPolicy(),
    "inter-with-adj": lambda: InterWithAdjPolicy(integral=True),
}


class _EngineProbe:
    """Sits in the invariant-checker slot to see the finished engine.

    ``ScheduleResult`` carries no per-disk state; the checker hooks are
    the one public seam that hands out the engine itself.
    """

    engine = None

    def new_run(self):
        pass

    def micro_site(self, engine, run, site):
        pass

    def micro_end(self, engine, result):
        self.engine = engine


def run_digest(specs, policy, *, seed, faults, consult_interval=None):
    """The corpus digest of one run plus its cancels, per-disk
    accounting and tracer events."""
    probe = _EngineProbe()
    tracer = Tracer()
    result = MicroSimulator(
        MACHINE,
        seed=seed,
        consult_interval=consult_interval,
        faults=faults,
        tracer=tracer,
        invariants=probe,
    ).run(list(specs), policy)
    digest = trace_digest(result)
    # Only the arm with an injector keeps a fault log (its one "done" line).
    digest.pop("fault_events", None)
    digest["cancels"] = [
        (c.task.name, c.cancelled_at.hex(), c.pages_done, c.reason)
        for c in result.cancel_records
    ]
    digest["disks"] = [
        (
            d.counters.sequential,
            d.counters.almost_sequential,
            d.counters.random,
            d.busy_time.hex(),
        )
        for d in probe.engine.disks
    ]
    digest["trace"] = [
        (e.kind, e.name, e.cat, e.track, e.start.hex(), e.dur.hex(), e.args)
        for e in tracer.events
    ]
    return digest


def assert_paths_agree(specs, make_policy, *, seed, consult_interval=None):
    healthy = run_digest(
        specs,
        make_policy(),
        seed=seed,
        faults=None,
        consult_interval=consult_interval,
    )
    idle_injector = run_digest(
        specs,
        make_policy(),
        seed=seed,
        faults=FaultSchedule(),
        consult_interval=consult_interval,
    )
    assert healthy == idle_injector
    assert float.fromhex(healthy["io_served"]) == sum(s.n_pages for s in specs)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
def test_fast_path_equals_general_path(kind, seed, policy_name):
    specs = generate_specs(
        kind,
        seed=seed,
        machine=MACHINE,
        config=WorkloadConfig(max_pages=600),
    )
    assert_paths_agree(specs, POLICIES[policy_name], seed=seed)


@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
def test_idle_injector_takes_the_general_serve_only_where_healthy_does(
    kind, monkeypatch
):
    """Per-disk fault state is read, not re-derived: with nothing
    injected, a faulted run leaves the inlined serve exactly as often
    as a healthy one (deep queues and cold callers only)."""
    calls = []
    general = _MicroEngine._dispatch_disk
    monkeypatch.setattr(
        _MicroEngine,
        "_dispatch_disk",
        lambda engine, disk_id: calls.append(disk_id) or general(engine, disk_id),
    )
    specs = generate_specs(
        kind, seed=0, machine=MACHINE, config=WorkloadConfig(max_pages=600)
    )
    counts = []
    for faults in (None, FaultSchedule()):
        calls.clear()
        MicroSimulator(MACHINE, seed=0, faults=faults).run(
            list(specs), InterWithAdjPolicy(integral=True)
        )
        counts.append(len(calls))
    assert counts[0] == counts[1] < sum(s.n_pages for s in specs) / 4


def cancel_specs():
    """Two scattered scans wide enough to queue requests on every disk."""
    return [
        spec_for_io_rate(
            name,
            MACHINE,
            io_rate=25.0,
            n_pages=400,
            pattern=IOPattern.RANDOM,
            partitioning="range",
        )
        for name in ("keep", "victim")
    ]


class CancelWhileQueued(SchedulingPolicy):
    """Starts both scans four wide, then cancels ``victim`` at the first
    master tick that finds its requests queued behind a busy disk.

    With ``strip`` the policy takes those requests out of the disk
    queues itself before the cancel: the same run without the victim's
    queued pages.
    """

    name = "CANCEL-WHILE-QUEUED"

    def __init__(self, strip=False):
        self.strip = strip

    def reset(self):
        self.started = False
        self.queued = None

    def decide(self, state):
        if not self.started:
            self.started = True
            return [Start(task, 4.0) for task in state.pending]
        if self.queued is not None:
            return []
        victim = next(r.task for r in state.running if r.task.name == "victim")
        queues = state._disk_queues
        mine = [e for q in queues for e in q if e[0].task is victim]
        if not mine:
            return []
        self.queued = len(mine)
        if self.strip:
            for queue in queues:
                live = [e for e in queue if e[0].task is not victim]
                queue.clear()
                queue.extend(live)
        return [Cancel(victim, "deadline")]


def test_a_healthy_cancel_serves_none_of_its_queued_requests():
    cancelled = CancelWhileQueued()
    got = run_digest(
        cancel_specs(), cancelled, seed=0, faults=None, consult_interval=0.05
    )
    stripped = CancelWhileQueued(strip=True)
    want = run_digest(
        cancel_specs(), stripped, seed=0, faults=None, consult_interval=0.05
    )
    # The cancel found requests queued, at the same instant in both runs.
    assert cancelled.queued == stripped.queued > 0
    assert [c[0] for c in got["cancels"]] == ["victim"]
    assert got["io_served"] == want["io_served"]
    assert got["disks"] == want["disks"]
    assert got == want


def test_an_idle_injector_cancels_as_a_healthy_run_does():
    healthy, idle_injector = (
        run_digest(
            cancel_specs(),
            CancelWhileQueued(),
            seed=0,
            faults=faults,
            consult_interval=0.05,
        )
        for faults in (None, FaultSchedule())
    )
    assert healthy == idle_injector


def test_a_healthy_disk_is_the_health_folds_fixed_point(monkeypatch):
    """The inlined serve folds a disk's health only when its factor or
    its estimate is off 1.0; the skipped fold would have written 1.0."""
    assert 0.7 * 1.0 + 0.3 * 1.0 == 1.0
    folds = []
    fold = _MicroEngine._observe_disk
    monkeypatch.setattr(
        _MicroEngine,
        "_observe_disk",
        lambda engine, disk_id, m: folds.append(m) or fold(engine, disk_id, m),
    )
    specs = generate_specs(
        WorkloadKind.RANDOM, seed=0, machine=MACHINE, config=WorkloadConfig(max_pages=300)
    )
    probe = _EngineProbe()
    MicroSimulator(MACHINE, faults=FaultSchedule(), invariants=probe).run(
        list(specs), InterWithAdjPolicy(integral=True)
    )
    assert probe.engine._measured_mult == [1.0] * MACHINE.disks
    inlined = len(folds)
    probe.engine._observe_disk(0, 1.0)
    assert probe.engine._measured_mult[0] == 1.0
    assert inlined < sum(s.n_pages for s in specs) / 4


def _scan_strategy():
    sequential = st.tuples(
        st.floats(min_value=2.0, max_value=58.0),
        st.just(IOPattern.SEQUENTIAL),
    )
    scattered = st.tuples(
        st.floats(min_value=2.0, max_value=33.0),
        st.just(IOPattern.RANDOM),
    )
    return st.tuples(
        st.one_of(sequential, scattered),
        st.sampled_from(["page", "range"]),
    )


@pytest.mark.fuzz
@settings(max_examples=200, deadline=None)
@given(
    scans=st.lists(_scan_strategy(), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    policy_name=st.sampled_from(sorted(POLICIES)),
    consult_interval=st.sampled_from([None, 0.5]),
)
def test_fast_path_equals_general_path_fuzz(
    scans, seed, policy_name, consult_interval
):
    # Sizes come from the seed, not from hypothesis: its integers lean
    # small, and short scans finish before any adjustment round.
    sizes = random.Random(seed)
    specs = [
        spec_for_io_rate(
            f"t{i}",
            MACHINE,
            io_rate=rate,
            n_pages=sizes.randint(100, 2_000),
            pattern=pattern,
            partitioning=partitioning,
        )
        for i, ((rate, pattern), partitioning) in enumerate(scans)
    ]
    assert_paths_agree(
        specs,
        POLICIES[policy_name],
        seed=seed,
        consult_interval=consult_interval,
    )
