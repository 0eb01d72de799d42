"""Property test: page conservation under random fault schedules.

The tentpole invariant: whatever faults fire — degraded disks, stalls,
slaves crashing mid-page, dropped or delayed protocol legs — every page
is processed exactly once.  The engine enforces "at most once" itself
(a duplicate raises :class:`~repro.errors.SimulationError` the moment
``pages_done`` exceeds ``n_pages``) and a task only completes after
``n_pages`` successes, so *all tasks completing* is exactly "every page
once".  Fifty seeded random schedules drive the search.
"""

import pytest

from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.core.task import IOPattern
from repro.faults import random_schedule
from repro.sim.micro import MicroSimulator, spec_for_io_rate

SCHEDULE_SEEDS = range(50)
HORIZON = 4.0  # faults land inside the few simulated seconds the runs take


def _specs(machine):
    return [
        spec_for_io_rate(
            "io0",
            machine,
            io_rate=55.0,
            n_pages=300,
            pattern=IOPattern.SEQUENTIAL,
            partitioning="page",
        ),
        spec_for_io_rate(
            "cpu0",
            machine,
            io_rate=8.0,
            n_pages=80,
            pattern=IOPattern.SEQUENTIAL,
            partitioning="page",
        ),
        spec_for_io_rate(
            "rnd0",
            machine,
            io_rate=20.0,
            n_pages=60,
            pattern=IOPattern.RANDOM,
            partitioning="range",
        ),
    ]


@pytest.mark.parametrize("schedule_seed", SCHEDULE_SEEDS)
def test_pages_conserved_under_random_faults(schedule_seed):
    machine = paper_machine()
    schedule = random_schedule(
        schedule_seed,
        horizon=HORIZON,
        n_disks=machine.disks,
        task_names=("io0", "cpu0", "rnd0"),
    )
    sim = MicroSimulator(
        machine,
        seed=schedule_seed,
        consult_interval=1.0,
        faults=schedule,
        fault_seed=schedule_seed,
    )
    # A duplicate page raises inside run(); a lost page would leave the
    # task incomplete (and the run would wedge against _MAX_EVENTS).
    result = sim.run(_specs(machine), InterWithAdjPolicy(integral=True, degradation_aware=True))

    assert len(result.records) == 3, "every task must complete"
    assert result.fault_log is not None
    log = result.fault_log
    # Every crash of a mid-page slave re-reads exactly that page.
    assert log.pages_reread <= log.crashes
    # Every timed-out adjustment round was aborted, none left wedged.
    assert log.adjust_timeouts == log.adjust_aborts
    # A dropped leg hangs its round; only the timeout can clear it.
    if log.messages_dropped:
        assert log.adjust_timeouts >= 0  # run finished despite the drop


@pytest.mark.parametrize("schedule_seed", SCHEDULE_SEEDS)
def test_conservation_with_deadline_cancellations(schedule_seed):
    """Random faults layered with deadline cancels still conserve pages.

    A cancelled task must be accounted (a ``CancelRecord``), never
    silently lost, and completed + cancelled must cover the workload —
    with no wedged adjustment round left behind.
    """
    from repro.faults import with_deadlines

    machine = paper_machine()
    names = ("io0", "cpu0", "rnd0")
    schedule = random_schedule(
        schedule_seed,
        horizon=HORIZON,
        n_disks=machine.disks,
        task_names=names,
    )
    schedule = with_deadlines(
        schedule, schedule_seed, horizon=HORIZON, task_names=names
    )
    sim = MicroSimulator(
        machine,
        seed=schedule_seed,
        consult_interval=1.0,
        faults=schedule,
        fault_seed=schedule_seed,
    )
    result = sim.run(
        _specs(machine),
        InterWithAdjPolicy(integral=True, degradation_aware=True),
    )

    completed = {r.task.name for r in result.records}
    cancelled = {c.task.name for c in result.cancel_records}
    assert not (completed & cancelled), "a task cannot both finish and cancel"
    assert completed | cancelled == set(names), "every task accounted"
    log = result.fault_log
    assert log is not None
    assert log.deadline_cancels == len(result.cancel_records)
    assert log.adjust_timeouts == log.adjust_aborts, "no wedged rounds"
