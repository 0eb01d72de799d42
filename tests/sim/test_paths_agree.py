"""An injector that is present but idle must leave a run bit-identical.

A run with an *empty* fault schedule has an injector that injects
nothing.  The engine then does more than on a healthy run: per served
request it reads the disk's bandwidth factor (1.0) and skips the
health fold (a healthy estimate of 1.0 is the fold's fixed point); it
checks the stall list (never set); a cancel purges crashed requests from the disk
queues (none here).  The two runs must agree to the last bit, per-disk
counters and busy time included.

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
from repro.core.task import IOPattern
from repro.faults import FaultSchedule
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
    """The corpus digest of one run plus its per-disk accounting."""
    probe = _EngineProbe()
    result = MicroSimulator(
        MACHINE,
        seed=seed,
        consult_interval=consult_interval,
        faults=faults,
        invariants=probe,
    ).run(list(specs), policy)
    digest = trace_digest(result)
    # Only the arm with an injector keeps a fault log (its one "done" line).
    digest.pop("fault_events", None)
    digest["disks"] = [
        (
            d.counters.sequential,
            d.counters.almost_sequential,
            d.counters.random,
            d.busy_time.hex(),
        )
        for d in probe.engine.disks
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
