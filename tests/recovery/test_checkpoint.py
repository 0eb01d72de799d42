"""Tests for checkpoint capture and the checks restore makes."""

import dataclasses

import pytest

from repro.errors import RecoveryError
from repro.recovery import RecoveryManager
from repro.sim.micro import MicroSimulator


@pytest.fixture
def checkpoint(machine, specs, policy):
    """A mid-run checkpoint captured at an adjustment-round boundary."""
    manager = RecoveryManager()
    sim = MicroSimulator(
        machine, seed=0, consult_interval=0.05, recovery=manager
    )
    sim.run(specs, policy)
    assert manager.last is not None
    return manager.last


class TestCapture:
    def test_checkpoints_accumulate_during_a_run(self, machine, specs, policy):
        manager = RecoveryManager()
        MicroSimulator(
            machine, seed=0, consult_interval=0.05, recovery=manager
        ).run(specs, policy)
        assert manager.captures > 1
        assert manager.restores == 0
        assert manager.last_checkpoint_at is not None
        assert manager.last_checkpoint_at > 0.0

    def test_min_interval_rate_limits(self, machine, specs, policy):
        dense = RecoveryManager(min_interval=0.0)
        sparse = RecoveryManager(min_interval=1.0)
        MicroSimulator(
            machine, seed=0, consult_interval=0.05, recovery=dense
        ).run(specs, policy)
        MicroSimulator(
            machine, seed=0, consult_interval=0.05, recovery=sparse
        ).run(specs, policy)
        assert sparse.captures < dense.captures

    def test_disabled_manager_captures_nothing(self, machine, specs, policy):
        manager = RecoveryManager(enabled=False)
        MicroSimulator(
            machine, seed=0, consult_interval=0.05, recovery=manager
        ).run(specs, policy)
        assert manager.captures == 0
        assert manager.last is None
        assert manager.last_checkpoint_at is None

    def test_no_recovery_runs_identically(self, machine, specs, policy):
        """Checkpoint hooks are zero-cost when recovery is off."""
        plain = MicroSimulator(machine, seed=0, consult_interval=0.05).run(
            specs, policy
        )
        hooked = MicroSimulator(
            machine,
            seed=0,
            consult_interval=0.05,
            recovery=RecoveryManager(),
        ).run(specs, policy)
        assert plain.elapsed == hooked.elapsed
        assert plain.adjustments == hooked.adjustments
        assert [
            (r.task.name, r.started_at, r.finished_at) for r in plain.records
        ] == [
            (r.task.name, r.started_at, r.finished_at) for r in hooked.records
        ]

    def test_negative_min_interval_rejected(self):
        with pytest.raises(RecoveryError):
            RecoveryManager(min_interval=-1.0)


class TestSerialization:
    def test_pages_done_counts_running_tasks(self, checkpoint):
        assert checkpoint.pages_done == sum(
            t.pages_done for t in checkpoint.running
        )

    def test_tampered_io_count_is_refused_on_resume(
        self, checkpoint, machine, specs, policy
    ):
        """io_count is redundant with the per-disk counters: a check."""
        MicroSimulator(machine, seed=0).run(specs, policy, resume_from=checkpoint)
        tampered = dataclasses.replace(checkpoint, io_count=checkpoint.io_count + 1)
        with pytest.raises(RecoveryError, match="io_count"):
            MicroSimulator(machine, seed=0).run(
                specs, policy, resume_from=tampered
            )
