"""Tests for the chaos harness (``repro.faults.chaos``)."""

import pytest

from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.errors import FaultError
from repro.faults import chaos
from repro.faults.chaos import ChaosReport, chaos_workload, run_chaos, run_soak
from repro.faults.schedule import FaultSchedule, MasterCrash, SlaveCrash


class TestChaosWorkload:
    def test_standard_shape(self):
        specs = chaos_workload(paper_machine())
        assert [s.name for s in specs] == ["io0", "cpu0", "rnd0"]
        assert specs[2].partitioning == "range"

    def test_scale_shrinks_but_keeps_a_floor(self):
        machine = paper_machine()
        tiny = chaos_workload(machine, scale=0.001)
        assert all(s.n_pages >= 8 for s in tiny)
        with pytest.raises(FaultError):
            chaos_workload(machine, scale=0.0)


@pytest.mark.chaos
class TestRunChaos:
    def test_preset_run_tolerates_and_reports(self):
        report = run_chaos(preset="mixed", seed=0, scale=0.2)
        assert isinstance(report, ChaosReport)
        assert report.ok
        assert report.wedged_adjustments == 0
        assert report.violations == []
        assert report.log.faults_injected >= 1
        assert report.faulted.elapsed >= report.healthy.elapsed
        lines = report.to_lines()
        assert lines[0].startswith("chaos seed=0")
        assert lines[-1].startswith("verdict: OK")
        assert any("counters:" in line for line in lines)

    def test_explicit_schedule_bypasses_presets(self):
        schedule = FaultSchedule((SlaveCrash(at=0.5, task="cpu0"),))
        report = run_chaos(schedule=schedule, seed=1, scale=0.2)
        assert report.schedule is schedule
        assert report.ok
        assert report.log.crashes == 1
        assert report.log.pages_reread <= 1

    def test_slowdown_is_relative_to_healthy(self):
        report = run_chaos(preset="slow-disk", seed=0, scale=0.2)
        assert report.slowdown == pytest.approx(
            report.faulted.elapsed / report.healthy.elapsed
        )
        assert report.slowdown > 1.0


class _PlantedViolation(InvariantChecker):
    """A checker that finds one violation at the end of every run."""

    def micro_end(self, engine, result):
        super().micro_end(engine, result)
        self._fail("micro:end", "planted")


@pytest.mark.chaos
class TestChaosUnderTheChecker:
    def test_a_violation_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(chaos, "InvariantChecker", _PlantedViolation)
        schedule = FaultSchedule((SlaveCrash(at=0.5, task="cpu0"),))
        report = run_chaos(schedule=schedule, seed=0, scale=0.2)
        assert report.violations == ["[micro:end] planted"]
        assert not report.ok
        lines = report.to_lines()
        assert "invariant violated: [micro:end] planted" in lines
        assert lines[-1].startswith("verdict: FAILED")

    def test_the_checker_spans_every_recovery_attempt(self, monkeypatch):
        checkers = []
        monkeypatch.setattr(
            chaos,
            "InvariantChecker",
            lambda **kw: checkers.append(InvariantChecker(**kw)) or checkers[-1],
        )
        schedule = FaultSchedule((MasterCrash(at=1.0), MasterCrash(at=2.0)))
        report = run_chaos(schedule=schedule, seed=0, scale=0.2)
        assert report.recovery is not None and report.recovery.crashes == 2
        assert len(checkers) == 1 and checkers[0].checks > 0
        assert report.violations == [] and report.ok

    def test_soak_reports_a_violation_on_a_failed_line(self, monkeypatch):
        monkeypatch.setattr(chaos, "InvariantChecker", _PlantedViolation)
        monkeypatch.setattr(chaos, "SOAK_SEEDS", (0,))
        soak = run_soak(n_schedules=1, scale=0.1)
        assert soak.failures == [
            "seed=0 schedule=0: 3/3 tasks, 0 wedged, 1 invariant violations; "
            "[micro:end] planted"
        ]
        assert "  FAILED " + soak.failures[0] in soak.to_lines()
