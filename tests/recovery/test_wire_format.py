"""Real runs capture checkpoints that fill every snapshot kind.

A checkpoint lives in memory.  What pins its content is the trace
corpus: the ``checkpoint_wire`` hash of the fault-state cells, rendered
by ``tests.sim.corpus_tools.checkpoint_dict``, and the resumes of the
crash cells.  The two runs below, a small ``micro_hooks``-shaped run and
the crash-heavy cold cell, show that capture meets every kind of part:
completed records, random-order tasks, range intervals, page strides
and in-flight pages.
"""

import pytest

from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.faults import preset_schedule
from repro.obs import Tracer
from repro.recovery import run_with_recovery
from repro.sim.micro import MicroSimulator
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs

from tests.sim.corpus_tools import COLD_SCHEDULES, CheckpointLog, cold_specs


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
