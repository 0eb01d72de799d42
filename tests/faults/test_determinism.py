"""Satellite: byte-identical traces under identical (seed, schedule).

Fault injection must not cost reproducibility: the injector draws only
from seeded RNGs and the engine's event order is already total, so two
runs of the same ``(workload, schedule, seed)`` must agree on *every*
observable — elapsed time, task records, adjustment counts, the fault
log, and the chaos CLI's printed report.
"""

import pytest

from repro.__main__ import main
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.core.task import IOPattern
from repro.faults import preset_schedule, random_schedule
from repro.sim.micro import MicroSimulator, spec_for_io_rate


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


def _trace(machine, schedule, seed):
    result = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=1.0,
        faults=schedule,
        fault_seed=seed,
    ).run(_specs(machine), InterWithAdjPolicy(integral=True, degradation_aware=True))
    return (
        result.elapsed,
        result.adjustments,
        [
            (r.task.name, r.started_at, r.finished_at, r.parallelism_history)
            for r in result.records
        ],
        result.fault_log.events,
        result.fault_log.faults_injected,
    )


class TestEngineDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_same_seed_and_preset_is_byte_identical(self, seed):
        machine = paper_machine()
        schedule = preset_schedule("mixed", horizon=4.0)
        assert _trace(machine, schedule, seed) == _trace(machine, schedule, seed)

    def test_same_seed_and_random_schedule_is_byte_identical(self):
        machine = paper_machine()
        schedule = random_schedule(
            3, horizon=4.0, n_disks=machine.disks, task_names=("io0", "cpu0")
        )
        assert _trace(machine, schedule, 3) == _trace(machine, schedule, 3)

    def test_different_fault_seed_may_pick_different_crash_targets(self):
        # Not an equality requirement — just that fault_seed is what
        # varies the unspecified crash-target picks, nothing else.
        machine = paper_machine()
        schedule = preset_schedule("crashes", horizon=4.0)
        a = _trace(machine, schedule, 0)
        b = _trace(machine, schedule, 0)
        assert a == b


@pytest.mark.chaos
class TestCliDeterminism:
    def test_chaos_smoke_output_is_byte_identical(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_random_schedule_output_is_byte_identical(self, capsys):
        argv = ["chaos", "--smoke", "--random", "11", "--horizon", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
