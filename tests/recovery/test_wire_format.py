"""The checkpoint's JSON rendering is frozen byte for byte.

``Checkpoint.to_dict`` is what a resumed run reads back, and what the
invariant checker round-trips at every round boundary.  The reference
below is the original rendering, ``dataclasses.asdict`` plus the RNG
state as lists; whatever ``to_dict`` does instead must serialise to the
same bytes for every checkpoint a real run captures.
"""

import dataclasses
import json

import pytest

from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.faults import preset_schedule
from repro.obs import Tracer
from repro.recovery import Checkpoint, run_with_recovery
from repro.sim.micro import MicroSimulator
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs

from tests.sim.corpus_tools import COLD_SCHEDULES, CheckpointLog, cold_specs


def reference_dict(checkpoint):
    """The asdict-based rendering ``to_dict`` must keep producing."""
    raw = dataclasses.asdict(checkpoint)
    version, internal, gauss = checkpoint.rng_state
    raw["rng_state"] = [version, list(internal), gauss]
    return raw


def hooks_shaped_checkpoints():
    """A small micro_hooks run: the Random mix, the ``mixed`` faults,
    tracer and invariant checker on, a checkpoint at every boundary."""
    machine = paper_machine()
    taken = []
    for seed in (0, 1):
        manager = CheckpointLog()
        MicroSimulator(
            machine,
            seed=seed,
            faults=preset_schedule("mixed", horizon=6.0),
            fault_seed=seed,
            recovery=manager,
            tracer=Tracer(),
            invariants=InvariantChecker(),
        ).run(
            generate_specs(
                WorkloadKind.RANDOM,
                seed=seed,
                machine=machine,
                config=WorkloadConfig(n_tasks=20, max_pages=300),
            ),
            InterWithAdjPolicy(integral=True),
        )
        taken += manager.taken
    return taken


def crash_heavy_checkpoints():
    """The crash-heavy cold cell's run, across its three restores."""
    machine = paper_machine()
    manager = CheckpointLog(min_interval=0.1)
    sim = MicroSimulator(
        machine,
        seed=0,
        consult_interval=0.1,
        faults=COLD_SCHEDULES["crash-heavy"],
        fault_seed=0,
    )
    run = run_with_recovery(
        sim,
        cold_specs(machine),
        InterWithAdjPolicy(integral=True, degradation_aware=True),
        manager=manager,
    )
    assert run.restores == 3
    return manager.taken


@pytest.fixture(scope="module", params=["micro_hooks", "crash-heavy"])
def checkpoints(request):
    build = {
        "micro_hooks": hooks_shaped_checkpoints,
        "crash-heavy": crash_heavy_checkpoints,
    }[request.param]
    return build()


def test_runs_cover_every_snapshot_kind(checkpoints):
    assert len(checkpoints) > 10
    running = [t for cp in checkpoints for t in cp.running]
    assert any(cp.completed for cp in checkpoints)
    assert any(t.order is not None for t in running)
    assert any(s.intervals for t in running for s in t.slaves)
    assert any(s.segments for t in running for s in t.slaves)
    assert any(s.inflight is not None for t in running for s in t.slaves)


def test_to_dict_renders_the_reference_bytes(checkpoints):
    for checkpoint in checkpoints:
        wire = json.dumps(checkpoint.to_dict())
        assert wire == json.dumps(reference_dict(checkpoint))
        assert Checkpoint.from_dict(json.loads(wire)) == checkpoint


def test_to_dict_shares_no_mutable_state_with_the_snapshot(checkpoints):
    checkpoint = next(cp for cp in reversed(checkpoints) if cp.running)
    before = json.dumps(checkpoint.to_dict())
    raw = checkpoint.to_dict()
    raw["taken_at"] = -1.0
    for task in raw["running"]:
        task["pages_done"] = -1
        for slave in task["slaves"]:
            slave["cursor"] = -1
    for disk in raw["disks"]:
        disk["busy_time"] = -1.0
    assert json.dumps(checkpoint.to_dict()) == before
