"""Tests for crash/resume driving (``run_with_recovery``)."""

import pytest

from repro.errors import MasterCrashError, RecoveryError
from repro.faults.schedule import FaultSchedule, MasterCrash, preset_schedule
from repro.recovery import RecoveryManager, run_with_recovery
from repro.recovery import manager as manager_module
from repro.sim.micro import MicroSimulator


def _sim(machine, schedule, *, seed=0, recovery=None):
    return MicroSimulator(
        machine,
        seed=seed,
        consult_interval=0.05,
        faults=schedule,
        fault_seed=seed,
        recovery=recovery,
    )


class TestMasterCrash:
    def test_master_crash_aborts_the_run(self, machine, specs, policy):
        schedule = FaultSchedule((MasterCrash(at=0.5),))
        with pytest.raises(MasterCrashError) as err:
            _sim(machine, schedule).run(specs, policy)
        assert err.value.at == pytest.approx(0.5)
        assert err.value.checkpoint_at is None

    def test_crash_error_carries_newest_checkpoint(
        self, machine, specs, policy
    ):
        schedule = FaultSchedule((MasterCrash(at=0.5),))
        manager = RecoveryManager()
        with pytest.raises(MasterCrashError) as err:
            _sim(machine, schedule, recovery=manager).run(specs, policy)
        assert err.value.checkpoint_at is not None
        assert 0.0 < err.value.checkpoint_at <= 0.5


class TestRunWithRecovery:
    def test_completes_across_crashes(self, machine, specs, policy):
        schedule = FaultSchedule(
            (MasterCrash(at=0.3), MasterCrash(at=0.6))
        )
        run = run_with_recovery(
            _sim(machine, schedule), specs, policy, manager=RecoveryManager()
        )
        assert run.crashes == 2
        assert run.attempts == 3
        assert run.restores == 2
        assert len(run.result.records) == len(specs)
        assert run.total_elapsed > run.result.elapsed

    def test_each_crash_fires_once(self, machine, specs, policy):
        schedule = FaultSchedule((MasterCrash(at=0.3),))
        run = run_with_recovery(
            _sim(machine, schedule), specs, policy, manager=RecoveryManager()
        )
        assert run.crashes == 1
        assert len(run.recovery_points) == 1

    def test_scratch_arm_loses_more_work(self, machine, specs, policy):
        schedule = FaultSchedule(
            (MasterCrash(at=0.3), MasterCrash(at=0.6))
        )
        scratch = run_with_recovery(
            _sim(machine, schedule),
            specs,
            policy,
            manager=RecoveryManager(enabled=False),
        )
        resumed = run_with_recovery(
            _sim(machine, schedule), specs, policy, manager=RecoveryManager()
        )
        assert scratch.restores == 0
        assert scratch.recovery_points == [0.0, 0.0]
        assert all(p > 0.0 for p in resumed.recovery_points)
        assert resumed.lost_work < scratch.lost_work
        assert resumed.total_elapsed < scratch.total_elapsed

    def test_attempt_budget_raises_recovery_error(
        self, machine, specs, policy, monkeypatch
    ):
        monkeypatch.setattr(manager_module, "MAX_ATTEMPTS", 2)
        schedule = FaultSchedule(
            tuple(MasterCrash(at=0.1 * (i + 1)) for i in range(5))
        )
        with pytest.raises(RecoveryError, match="2 attempts"):
            run_with_recovery(
                _sim(machine, schedule),
                specs,
                policy,
                manager=RecoveryManager(),
            )

    def test_crash_heavy_preset_is_deterministic(
        self, machine, specs, policy
    ):
        schedule = preset_schedule("crash-heavy", horizon=1.0)

        def drive():
            return run_with_recovery(
                _sim(machine, schedule),
                specs,
                policy,
                manager=RecoveryManager(min_interval=0.05),
            )

        first, second = drive(), drive()
        assert first.crashes == second.crashes
        assert first.lost_work == second.lost_work
        assert first.recovery_points == second.recovery_points
        assert [
            (r.task.name, r.started_at, r.finished_at)
            for r in first.result.records
        ] == [
            (r.task.name, r.started_at, r.finished_at)
            for r in second.result.records
        ]
