"""Tests for engine-level deadlines and cooperative cancellation."""

import pytest

from repro.faults.schedule import FaultSchedule, QueryDeadline, with_deadlines
from repro.sim.micro import MicroSimulator


class TestEngineCancellation:
    def _run(self, machine, specs, policy, faults, *, seed=0):
        return MicroSimulator(
            machine,
            seed=seed,
            consult_interval=0.05,
            faults=faults,
            fault_seed=seed,
        ).run(specs, policy)

    def test_running_task_cancelled_cleanly(self, machine, specs, policy):
        faults = FaultSchedule((QueryDeadline(at=0.3, task="io0"),))
        result = self._run(machine, specs, policy, faults)
        # The other two tasks complete; the cancelled one is accounted.
        assert len(result.records) == len(specs) - 1
        assert [c.task.name for c in result.cancel_records] == ["io0"]
        record = result.cancel_records[0]
        assert record.reason == "deadline"
        assert record.cancelled_at == pytest.approx(0.3)
        assert record.started_at is not None
        assert 0 < record.pages_done < 300
        assert result.fault_log is not None
        assert result.fault_log.deadline_cancels == 1

    def test_cancellation_never_wedges_a_round(self, machine, specs, policy):
        faults = FaultSchedule((QueryDeadline(at=0.3, task="io0"),))
        result = self._run(machine, specs, policy, faults)
        log = result.fault_log
        assert log.adjust_timeouts == log.adjust_aborts

    def test_deadline_after_completion_is_a_noop(
        self, machine, specs, policy
    ):
        faults = FaultSchedule((QueryDeadline(at=1e9, task="io0"),))
        result = self._run(machine, specs, policy, faults)
        assert len(result.records) == len(specs)
        assert result.cancel_records == []
        assert result.fault_log.deadline_cancels == 0

    def test_cancelled_run_matches_healthy_prefix(
        self, machine, specs, policy
    ):
        """Cancellation is cooperative: the survivors' stories replay."""
        faults = FaultSchedule((QueryDeadline(at=0.3, task="io0"),))
        first = self._run(machine, specs, policy, faults)
        second = self._run(machine, specs, policy, faults)
        assert [
            (r.task.name, r.started_at, r.finished_at) for r in first.records
        ] == [
            (r.task.name, r.started_at, r.finished_at)
            for r in second.records
        ]
        assert first.elapsed == second.elapsed


class TestWithDeadlines:
    def test_layering_is_deterministic_and_preserves_faults(self):
        base = FaultSchedule((QueryDeadline(at=1.0, task="io0"),))
        names = ("io0", "cpu0")
        once = with_deadlines(base, 7, horizon=4.0, task_names=names)
        twice = with_deadlines(base, 7, horizon=4.0, task_names=names)
        assert once.faults == twice.faults
        assert len(once) > len(base)
        assert all(
            1.0 <= f.at <= 3.0
            for f in once
            if isinstance(f, QueryDeadline) and f not in base.faults
        )
