"""The trace corpus' workloads and cell builders.

``test_trace_corpus.py`` replays them and says what each block pins;
``tests/corpus.py`` registers the blocks and the commits that froze
them.  Regenerate (only when a trace change is *intended* and
reviewed) with ``PYTHONPATH=src python -m tests.corpus trace``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from functools import partial

from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy, policy_by_name
from repro.core.task import IOPattern, make_task
from repro.faults import (
    DiskDegradation,
    DiskStall,
    FaultSchedule,
    MasterCrash,
    MessageFault,
    QueryDeadline,
    SlaveCrash,
    preset_schedule,
    random_schedule,
    with_deadlines,
)
from repro.obs import Tracer
from repro.recovery import RecoveryManager, run_with_recovery
from repro.sim import FluidSimulator
from repro.sim.micro import MicroSimulator, spec_for_io_rate
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs, generate_tasks

from tests.corpus import sha

SEEDS = (0, 1, 2, 3, 4)
POLICY_NAMES = ("INTRA-ONLY", "INTER-WITHOUT-ADJ", "INTER-WITH-ADJ")


def corpus_specs(machine, seed):
    """The healthy-run corpus workload: a 10-task Random mix."""
    return generate_specs(
        WorkloadKind.RANDOM,
        seed=seed,
        machine=machine,
        config=WorkloadConfig(n_tasks=10, max_pages=800),
    )


def faulted_specs(machine):
    """The faulted-run corpus workload (mirrors test_determinism)."""
    return [
        spec_for_io_rate(
            "io0", machine, io_rate=55.0, n_pages=300,
            pattern=IOPattern.SEQUENTIAL, partitioning="page",
        ),
        spec_for_io_rate(
            "cpu0", machine, io_rate=8.0, n_pages=80,
            pattern=IOPattern.SEQUENTIAL, partitioning="page",
        ),
        spec_for_io_rate(
            "rnd0", machine, io_rate=20.0, n_pages=60,
            pattern=IOPattern.RANDOM, partitioning="range",
        ),
    ]


def trace_digest(result):
    """A byte-exact, JSON-stable digest of one ScheduleResult."""
    digest = {
        "policy": result.policy_name,
        "elapsed": result.elapsed.hex(),
        "adjustments": result.adjustments,
        "cpu_busy": result.cpu_busy.hex(),
        "io_served": result.io_served.hex(),
        "peak_memory": result.peak_memory.hex(),
        "records": [
            {
                "name": r.task.name,
                "started_at": r.started_at.hex(),
                "finished_at": r.finished_at.hex(),
                "history": [
                    [t.hex(), x.hex()] for t, x in r.parallelism_history
                ],
            }
            for r in result.records
        ],
    }
    if result.fault_log is not None:
        digest["fault_events"] = [
            [t.hex(), kind, message]
            for t, kind, message in result.fault_log.events
        ]
    return digest


def healthy_digest(seed, policy_name):
    """Run one healthy corpus configuration on the current engine."""
    machine = paper_machine()
    sim = MicroSimulator(machine, seed=seed, consult_interval=0.5)
    result = sim.run(
        corpus_specs(machine, seed), policy_by_name(policy_name, integral=True)
    )
    return trace_digest(result)


def faulted_digest(seed):
    """Run one faulted corpus configuration on the current engine."""
    machine = paper_machine()
    sim = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=1.0,
        faults=preset_schedule("mixed", horizon=4.0),
        fault_seed=seed,
    )
    result = sim.run(
        faulted_specs(machine),
        InterWithAdjPolicy(integral=True, degradation_aware=True),
    )
    return trace_digest(result)


def seed_cells():
    """label -> zero-argument digest builder, one per healthy and
    faulted cell."""
    cells = {}
    for seed in SEEDS:
        for policy_name in POLICY_NAMES:
            cells[f"healthy/seed{seed}/{policy_name}"] = partial(
                healthy_digest, seed, policy_name
            )
        cells[f"faulted/seed{seed}"] = partial(faulted_digest, seed)
    return cells


# ---------------------------------------------------------------------------
# cold-path cells: master crash + restore, deadlines, stalls, an aborted
# round whose harvested owner died, policy-issued Cancel/Shed.  Frozen
# at the engine that still held these handlers itself, before they
# moved behind the fault-injector and checkpoint hooks.

def cold_specs(machine):
    """A page scan beside a (scattered) range scan, so both protocols
    are live whenever a fault lands; a waiting range scan and two
    late-arriving page scans."""

    def scan(name, io_rate, n_pages, pattern, partitioning, arrival=0.0):
        return spec_for_io_rate(
            name, machine, io_rate=io_rate, n_pages=n_pages, pattern=pattern,
            partitioning=partitioning, arrival_time=arrival,
        )

    seq, rnd = IOPattern.SEQUENTIAL, IOPattern.RANDOM
    return [
        scan("pg0", 55.0, 300, seq, "page"),
        scan("rg0", 8.0, 90, rnd, "range"),
        scan("rg1", 20.0, 80, seq, "range"),
        scan("pg1", 12.0, 60, seq, "page", arrival=1.5),
        scan("pg2", 30.0, 40, seq, "page", arrival=3.0),
    ]


_COLD_NAMES = ("pg0", "rg0", "rg1", "pg1", "pg2")
_COLD_HORIZON = 4.0


def _soak_schedule(index):
    """One ``run_soak``-shaped schedule: random faults, layered
    deadlines, and a mid-run master crash."""
    schedule = with_deadlines(
        random_schedule(index, horizon=_COLD_HORIZON, task_names=_COLD_NAMES),
        index,
        horizon=_COLD_HORIZON,
        task_names=_COLD_NAMES,
    )
    return FaultSchedule(
        schedule.faults + (MasterCrash(at=0.4 * _COLD_HORIZON),)
    )


#: label -> fault schedule replayed over :func:`cold_specs`.
CRASH_SCHEDULES = {
    # Three master crashes with page and range scans mid-page: capture,
    # restore, in-flight re-read in both partitionings, spent-fault skip.
    "crash-heavy": preset_schedule("crash-heavy", horizon=_COLD_HORIZON),
    # Deadlines on a waiting, an unarrived and a running task, then on
    # that cancelled task again and on one that already finished.
    "deadlines": FaultSchedule(
        (
            QueryDeadline(at=1.0, task="rg1"),
            QueryDeadline(at=1.0, task="pg2"),
            QueryDeadline(at=1.2, task="pg0"),
            QueryDeadline(at=2.4, task="pg0"),
            QueryDeadline(at=2.4, task="rg0"),
        )
    ),
    # Two stalls: the frozen disk's one-shot resume timer.
    "stall": preset_schedule("stall", horizon=_COLD_HORIZON),
    # rg0 is told to widen when pg0 completes (t ~ 2.3).  The round's
    # first leg is delayed and its last one lost; while it hangs, two
    # paused slaves whose intervals the master holds die (one mid-page,
    # one idle), so the timeout must restart the harvested strides on
    # fresh slaves.  The first crash names a task that has not arrived:
    # a logged no-op.
    "abort-dead-owner": FaultSchedule(
        (
            SlaveCrash(at=0.5, task="pg1"),
            MessageFault(at=2.0, kind="delay", extra=0.2),
            MessageFault(at=2.0, kind="drop"),
            SlaveCrash(at=2.6, task="rg0", slave_index=1),
            SlaveCrash(at=2.75, task="rg0", slave_index=0),
        )
    ),
    "soak0": _soak_schedule(0),
    "soak5": _soak_schedule(5),
}

#: Cells that also hash every checkpoint the run captures (per-disk
#: health estimate, busy time and regime counters at each round
#: boundary).  Frozen while every request of a faulted run still took
#: the general serve, so they pin "inlined serve == general serve"
#: under each kind of per-disk fault state.
FAULT_STATE_SCHEDULES = {
    # Disk 1 runs at 40% and then recovers mid-run, so the measured
    # health decays back toward 1.0.
    "degrade-recover": FaultSchedule(
        (DiskDegradation(disk=1, start=0.3, duration=1.2, factor=0.4),)
    ),
    # Three overlapping windows on disk 2, ended out of start order: the
    # bandwidth factor is their product in activation order.
    "degrade-overlap": FaultSchedule(
        (
            DiskDegradation(disk=2, start=0.4, duration=1.5, factor=0.7),
            DiskDegradation(disk=2, start=0.8, duration=0.6, factor=0.45),
            DiskDegradation(disk=2, start=1.0, duration=1.5, factor=0.85),
        )
    ),
    # Disk 3 is busy with exactly one request queued when the stall
    # begins (both seeds); a shorter stall inside it must not end it.
    "stall-one-queued": FaultSchedule(
        (
            DiskStall(disk=3, at=0.8, duration=0.25),
            DiskStall(disk=3, at=0.9, duration=0.05),
        )
    ),
    # Deadlines on a running page scan and a running scattered range
    # scan while their requests wait on busy disks (pg0 on both seeds,
    # rg0 on seed 0): the cancelled requests must never be served.
    "deadline-queued": FaultSchedule(
        (
            QueryDeadline(at=0.4, task="pg0"),
            QueryDeadline(at=1.0, task="rg0"),
        )
    ),
    # Slaves that die while their page waits in a disk queue (all three
    # on seed 0, the last two on seed 1).
    "crash-queued": FaultSchedule(
        (
            SlaveCrash(at=0.5, task="rg0", slave_index=1),
            SlaveCrash(at=0.9, task="pg0", slave_index=2),
            SlaveCrash(at=1.2, task="pg0", slave_index=0),
        )
    ),
}
COLD_SCHEDULES = CRASH_SCHEDULES | FAULT_STATE_SCHEDULES
COLD_SEEDS = (0, 1)


class CheckpointLog(RecoveryManager):
    """A recovery manager that keeps every checkpoint taken, not only
    the newest."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.taken = []

    def capture(self, engine):
        checkpoint = super().capture(engine)
        if checkpoint is not None:
            self.taken.append(checkpoint)
        return checkpoint


def checkpoint_dict(checkpoint):
    """A checkpoint as JSON-ready data, the form ``checkpoint_wire``
    hashes: ``dataclasses.asdict`` plus the RNG state as lists."""
    raw = asdict(checkpoint)
    version, internal, gauss = checkpoint.rng_state
    raw["rng_state"] = [version, list(internal), gauss]
    return raw


def cold_digest(result, tracer, invariants=None, recovery=None):
    """:func:`trace_digest` plus cancel/shed records, the fault log's
    counters, a hash of the tracer's events, the invariant checker's
    hook-site count and the recovery counters."""
    digest = trace_digest(result)
    digest["cancels"] = [
        [
            c.task.name,
            c.cancelled_at.hex(),
            None if c.started_at is None else c.started_at.hex(),
            c.pages_done,
            c.reason,
        ]
        for c in result.cancel_records
    ]
    digest["sheds"] = [[s.task.name, s.shed_at.hex()] for s in result.shed_records]
    if result.fault_log is not None:
        digest["fault_counters"] = {
            name: value
            for name, value in vars(result.fault_log).items()
            if name != "events"
        }
    rows = [
        [e.kind, e.name, e.cat, e.track, e.start.hex(), e.dur.hex(), e.value.hex(), e.args]
        for e in tracer.events
    ]
    # ``args`` floats stay as ``repr``, as frozen: hashed raw, not canon.
    digest["trace"] = [len(rows), sha(json.dumps(rows, sort_keys=True).encode())]
    if invariants is not None:
        digest["invariants"] = [invariants.checks, invariants.violations]
    if recovery is not None:
        digest["recovery"] = {
            "attempts": recovery.attempts,
            "crashes": recovery.crashes,
            "lost_work": recovery.lost_work.hex(),
            "checkpoints": recovery.checkpoints,
            "restores": recovery.restores,
            "recovery_points": [t.hex() for t in recovery.recovery_points],
        }
    return digest


def cold_fault_digest(label, seed):
    """Replay one :data:`COLD_SCHEDULES` cell through the crash/resume
    driver (a schedule without master crashes is one plain attempt)."""
    machine = paper_machine()
    schedule = COLD_SCHEDULES[label]
    tracer = Tracer()
    # The master-crash cells were frozen before a checker could span a
    # resume, so they carry no checker count.
    invariants = (
        None if schedule.master_crashes else InvariantChecker(collect=True)
    )
    sim = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=0.1,
        faults=schedule,
        fault_seed=seed,
        tracer=tracer,
        invariants=invariants,
    )
    logged = label in FAULT_STATE_SCHEDULES
    manager = (CheckpointLog if logged else RecoveryManager)(min_interval=0.1)
    run = run_with_recovery(
        sim,
        cold_specs(machine),
        InterWithAdjPolicy(integral=True, degradation_aware=True),
        manager=manager,
    )
    digest = cold_digest(run.result, tracer, invariants, run)
    if logged:
        wire = "\n".join(json.dumps(checkpoint_dict(cp)) for cp in manager.taken)
        digest["checkpoint_wire"] = [len(manager.taken), sha(wire.encode())]
    return digest


def cold_policy_digest(faults):
    """The engine-contract script (a policy that sheds, cancels waiting
    and running tasks and takes a dependent with them) on micro."""
    from .test_engine_contract import MACHINE, ScriptedPolicy, scripted_tasks

    tasks = scripted_tasks()
    tracer = Tracer()
    sim = MicroSimulator(MACHINE, faults=faults, tracer=tracer)
    result = sim.run(list(tasks.values()), ScriptedPolicy(tasks))
    return cold_digest(result, tracer)


def _schedule_cells(schedules):
    return {
        f"cold/{label}/seed{seed}": partial(cold_fault_digest, label, seed)
        for label in schedules
        for seed in COLD_SEEDS
    }


def crash_cells():
    """label -> digest builder: :data:`CRASH_SCHEDULES` and the policy
    cancels."""
    cells = _schedule_cells(CRASH_SCHEDULES)
    cells["cold/policy-cancel/healthy"] = partial(cold_policy_digest, None)
    cells["cold/policy-cancel/logged"] = partial(cold_policy_digest, FaultSchedule())
    return cells


def fault_state_cells():
    """label -> digest builder: :data:`FAULT_STATE_SCHEDULES`."""
    return _schedule_cells(FAULT_STATE_SCHEDULES)


def cold_cells():
    """label -> zero-argument digest builder, one per cold-path cell."""
    return crash_cells() | fault_state_cells()


# ---------------------------------------------------------------------------
# fluid cells: the fluid engine under a bare policy (no admission gate,
# no parcost around it), frozen before its rate solve was memoized.

FLUID_SEEDS = (0, 1, 2)
FLUID_MODES = {"continuous": False, "integral": True}


def fluid_grid_digest(kind, seed, policy_name, integral):
    """One Figure-7 workload, at paper scale, on the fluid engine."""
    machine = paper_machine()
    tasks = generate_tasks(kind, seed=seed, machine=machine)
    result = FluidSimulator(machine).run(
        tasks, policy_by_name(policy_name, integral=integral)
    )
    return trace_digest(result)


def fluid_chain_tasks():
    """Staggered arrivals, two ``depends_on`` chains and working sets
    that do not all fit in work memory together."""
    io_a = make_task("io-a", io_rate=55.0, seq_time=30.0)
    cpu_a = make_task("cpu-a", io_rate=6.0, seq_time=24.0, arrival_time=1.5)
    io_b = make_task("io-b", io_rate=40.0, seq_time=12.0, arrival_time=2.0)
    io_b = io_b.with_dependencies({io_a.task_id}).with_memory(3.0)
    cpu_b = make_task("cpu-b", io_rate=12.0, seq_time=18.0, arrival_time=4.0)
    cpu_b = cpu_b.with_dependencies({cpu_a.task_id}).with_memory(2.0)
    rnd = make_task(
        "rnd", io_rate=20.0, seq_time=9.0, io_pattern=IOPattern.RANDOM,
        arrival_time=6.25,
    ).with_memory(2.0)
    tail = make_task("tail", io_rate=25.0, seq_time=7.0, arrival_time=8.0)
    tail = tail.with_dependencies({io_b.task_id, cpu_b.task_id})
    return [io_a, cpu_a, io_b, cpu_b, rnd, tail]


def fluid_chain_digest():
    machine = replace(paper_machine(), work_memory_bytes=4.0)
    result = FluidSimulator(machine).run(
        fluid_chain_tasks(), InterWithAdjPolicy()
    )
    return trace_digest(result)


def fluid_cells():
    """label -> zero-argument digest builder, one per fluid cell."""
    cells = {
        f"fluid/{kind.value}/seed{seed}/{policy_name}/{mode}": partial(
            fluid_grid_digest, kind, seed, policy_name, integral
        )
        for kind in WorkloadKind
        for seed in FLUID_SEEDS
        for policy_name in POLICY_NAMES
        for mode, integral in FLUID_MODES.items()
    }
    cells["fluid/chains"] = fluid_chain_digest
    return cells
