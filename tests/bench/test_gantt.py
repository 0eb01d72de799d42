"""Tests for the ASCII Gantt renderer."""

from repro.bench import render_gantt
from repro.bench.gantt import WIDTH
from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, IntraOnlyPolicy, make_task
from repro.sim import FluidSimulator

MACHINE = paper_machine()


def run(tasks, policy=None):
    return FluidSimulator(MACHINE).run(list(tasks), policy or InterWithAdjPolicy())


class TestGantt:
    def test_one_row_per_task(self):
        tasks = [
            make_task("alpha", io_rate=60.0, seq_time=20.0),
            make_task("beta", io_rate=10.0, seq_time=20.0),
        ]
        chart = render_gantt(run(tasks))
        assert "alpha" in chart
        assert "beta" in chart

    def test_title_and_footer(self):
        tasks = [make_task("t", io_rate=10.0, seq_time=8.0)]
        chart = render_gantt(run(tasks), title="My Chart")
        assert chart.startswith("My Chart")
        assert "policy=INTER-WITH-ADJ" in chart
        assert "cpu=" in chart

    def test_parallelism_digits_visible(self):
        # A CPU task alone runs at 8 slaves.
        tasks = [make_task("solo", io_rate=10.0, seq_time=8.0)]
        chart = render_gantt(run(tasks, IntraOnlyPolicy()))
        assert "8" in chart

    def test_wait_dots_for_queued_tasks(self):
        tasks = [
            make_task("first", io_rate=10.0, seq_time=40.0),
            make_task("second", io_rate=12.0, seq_time=8.0),
        ]
        chart = render_gantt(run(tasks, IntraOnlyPolicy()))
        second_line = next(l for l in chart.splitlines() if l.startswith("second"))
        assert "." in second_line

    def test_adjustment_changes_glyph(self):
        # A long io task paired with a short cpu task gets adjusted up
        # when the partner finishes.
        tasks = [
            make_task("long-io", io_rate=55.0, seq_time=60.0),
            make_task("short-cpu", io_rate=5.0, seq_time=5.0),
        ]
        result = FluidSimulator(MACHINE).run(
            list(tasks), InterWithAdjPolicy(integral=True)
        )
        chart = render_gantt(result)
        io_line = next(l for l in chart.splitlines() if l.startswith("long-io"))
        glyphs = {c for c in io_line if c.isdigit()}
        assert len(glyphs) >= 2  # at least two different degrees

    def test_empty_schedule(self):
        from repro.sim.fluid import ScheduleResult

        empty = ScheduleResult(
            policy_name="x",
            elapsed=0.0,
            records=[],
            adjustments=0,
            cpu_busy=0.0,
            io_served=0.0,
            machine=MACHINE,
        )
        assert render_gantt(empty) == "(empty schedule)"

    def test_width_respected(self):
        tasks = [make_task("wide", io_rate=10.0, seq_time=8.0)]
        chart = render_gantt(run(tasks))
        label = len("wide")
        for line in chart.splitlines()[1:-1]:  # skip header/footer text
            assert len(line) <= label + 2 + WIDTH
