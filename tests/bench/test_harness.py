"""Tests for the bench harness, calibration and report formatting."""

import pytest

from repro.bench import (
    POLICY_NAMES,
    calibrate,
    figure3,
    figure4,
    format_bar_chart,
    format_table,
    make_policies,
    run_figure7,
)
from repro.config import paper_machine
from repro.errors import ConfigError
from repro.workloads import WorkloadConfig, WorkloadKind

MACHINE = paper_machine()
SMALL = WorkloadConfig(n_tasks=4, max_pages=300)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_bar_chart(self):
        text = format_bar_chart(
            [("G1", [("x", 1.0), ("y", 2.0)])], title="Chart"
        )
        assert "Chart" in text
        assert "#" in text
        assert "2.00s" in text

    def test_bar_chart_zero_values(self):
        text = format_bar_chart([("G", [("x", 0.0)])])
        assert "0.00" in text


class TestCalibration:
    def test_full_calibration(self):
        result = calibrate(machine=MACHINE)
        assert result.r_min.io_rate == pytest.approx(5.0, abs=1.5)
        assert result.r_max.io_rate > MACHINE.bound_threshold
        assert result.disk_sequential == pytest.approx(97.0, rel=0.05)
        assert result.disk_random == pytest.approx(35.0, rel=0.05)
        assert "Paper" in result.to_table()


class TestFigures:
    def test_figure3_table(self):
        data = figure3(machine=MACHINE)
        assert "IO-bound" in data.to_table()
        assert len(data.lines) == 7

    def test_figure4_table(self):
        data = figure4(machine=MACHINE)
        assert "100.0%" in data.to_table()

    def test_figure4_infeasible_pair(self):
        with pytest.raises(ValueError):
            figure4(40.0, 50.0, machine=MACHINE)


class TestHarness:
    def test_policies_factory(self):
        policies = make_policies()
        assert [p.name for p in policies] == list(POLICY_NAMES)

    def test_run_figure7_fluid_small(self):
        result = run_figure7(
            engine="fluid", seeds=(0, 1), machine=MACHINE, config=SMALL
        )
        assert len(result.cells) == 4 * 3
        for kind in WorkloadKind:
            for policy in POLICY_NAMES:
                cell = result.cell(kind, policy)
                assert len(cell.elapsed) == 2
                assert all(e > 0 for e in cell.elapsed)
        table = result.to_table()
        assert "Figure 7" in table
        assert "INTRA-ONLY" in table
        chart = result.to_bar_chart()
        assert "#" in chart

    def test_run_figure7_micro_single_workload(self):
        result = run_figure7(
            engine="micro",
            seeds=(0,),
            machine=MACHINE,
            config=SMALL,
        )
        cell = result.cell(WorkloadKind.EXTREME, "INTER-WITH-ADJ")
        assert len(cell.elapsed) == 1

    def test_win_metrics(self):
        result = run_figure7(
            engine="fluid", seeds=(0, 1, 2), machine=MACHINE, config=SMALL
        )
        win = result.win_over_intra(WorkloadKind.EXTREME, "INTER-WITH-ADJ")
        max_win = result.max_win_over_intra(WorkloadKind.EXTREME, "INTER-WITH-ADJ")
        assert max_win >= win

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            run_figure7(engine="quantum", seeds=(0,))
