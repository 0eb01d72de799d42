"""Tests for the fluid-rate simulation engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig, paper_machine
from repro.core import (
    InterWithAdjPolicy,
    IntraOnlyPolicy,
    SchedulingPolicy,
    Start,
    make_task,
)
from repro.core.balance import _realizable_rates, clamp_pair
from repro.core.task import IOPattern
from repro.errors import SimulationError
from repro.sim import FluidSimulator
from repro.sim.fluid import _SimState

MACHINE = paper_machine()


def task(rate, seq_time=10.0, name=None, arrival=0.0):
    return make_task(
        name or f"c{rate}", io_rate=rate, seq_time=seq_time, arrival_time=arrival
    )


class TestBasics:
    def test_single_task_elapsed(self):
        result = FluidSimulator(MACHINE).run([task(10.0, 16.0)], IntraOnlyPolicy())
        assert result.elapsed == pytest.approx(2.0)  # 16 / 8

    def test_all_tasks_recorded(self):
        tasks = [task(float(r)) for r in (10, 20, 40, 60)]
        result = FluidSimulator(MACHINE).run(tasks, InterWithAdjPolicy())
        assert len(result.records) == 4
        assert {r.task.task_id for r in result.records} == {t.task_id for t in tasks}

    def test_record_lookup(self):
        t = task(10.0)
        result = FluidSimulator(MACHINE).run([t], IntraOnlyPolicy())
        assert result.record_for(t).task is t
        with pytest.raises(SimulationError):
            result.record_for(task(20.0))

    def test_utilizations_in_unit_interval(self):
        tasks = [task(float(r)) for r in (10, 60, 20, 50)]
        result = FluidSimulator(MACHINE).run(tasks, InterWithAdjPolicy())
        assert 0 < result.cpu_utilization <= 1.0 + 1e-9
        assert 0 < result.io_utilization <= 1.0 + 1e-9

    def test_negative_adjustment_overhead_rejected(self):
        with pytest.raises(SimulationError):
            FluidSimulator(MACHINE, adjustment_overhead=-1.0)


class TestDiskThrottling:
    def test_oversubscribed_io_slows_progress(self):
        # One io-bound task at parallelism 8 demands 8*60=480 > B.
        class Greedy(SchedulingPolicy):
            name = "greedy"

            def decide(self, state):
                if state.running or not state.pending:
                    return []
                return [Start(state.pending[0], 8.0)]

        t = task(60.0, seq_time=24.0)
        result = FluidSimulator(MACHINE).run([t], Greedy())
        # Progress capped at B/C = 4 effective => 24/4 = 6s, not 24/8 = 3s
        # (a lone sequential stream gets the full B).
        assert result.elapsed == pytest.approx(6.0)

    def test_cpu_oversubscription_scales(self):
        class DoubleBook(SchedulingPolicy):
            name = "double"

            def decide(self, state):
                return [Start(t, 8.0) for t in state.pending]

        tasks = [task(1.0, 8.0, "a"), task(1.0, 8.0, "b")]
        result = FluidSimulator(MACHINE).run(tasks, DoubleBook())
        # 16 processors requested on 8: each runs at half speed.
        assert result.elapsed == pytest.approx(2.0)


class TestPricingEqualsExecution:
    """The policy prices a pairing at the rates the engine then runs it:
    for a balance point seated by ``balance.clamp_pair`` (the only
    allocation a paper policy requests for a pair),
    ``balance._realizable_rates`` and ``FluidSimulator._rates`` agree bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        x_io=st.floats(min_value=0.0, max_value=8.0, exclude_min=True, exclude_max=True),
        c_io=st.floats(min_value=0.0, max_value=120.0),
        c_cpu=st.floats(min_value=0.0, max_value=120.0),
        pattern_io=st.sampled_from(IOPattern),
        pattern_cpu=st.sampled_from(IOPattern),
    )
    # Two interleaved sequential streams at a balance point with
    # x_io < 1: the pair is seated at (1, 7), not (1, 7.24).
    @example(
        x_io=0.7563950352941933,
        c_io=76.1111640085968, c_cpu=66.12020711904994,
        pattern_io=IOPattern.SEQUENTIAL, pattern_cpu=IOPattern.SEQUENTIAL,
    )
    def test_realizable_rates_are_the_engine_rates(
        self, x_io, c_io, c_cpu, pattern_io, pattern_cpu
    ):
        x_cpu = MACHINE.processors - x_io  # as balance_solution returns it
        io = make_task("io", io_rate=c_io, seq_time=10.0, io_pattern=pattern_io)
        cpu = make_task("cpu", io_rate=c_cpu, seq_time=10.0, io_pattern=pattern_cpu)
        state = _SimState(MACHINE, [io, cpu], 0.0, None)
        seated = clamp_pair(x_io, x_cpu, MACHINE, integral=False)
        state.start_task(io, seated[0])
        state.start_task(cpu, seated[1])
        engine = FluidSimulator(MACHINE)
        executed = {run.task.name: rate for run, rate, *__ in engine._rates(state)}
        priced = _realizable_rates(
            x_io,
            x_cpu,
            (io.seq_time, io.io_rate, pattern_io),
            (cpu.seq_time, cpu.io_rate, pattern_cpu),
            MACHINE,
            True,
            False,
        )
        assert [executed["io"].hex(), executed["cpu"].hex()] == [
            rate.hex() for rate in priced
        ]


class TestArrivals:
    def test_task_not_started_before_arrival(self):
        late = task(10.0, 8.0, "late", arrival=5.0)
        result = FluidSimulator(MACHINE).run([late], IntraOnlyPolicy())
        record = result.record_for(late)
        assert record.started_at == pytest.approx(5.0)
        assert record.response_time == pytest.approx(1.0)  # 8/8 after arrival

    def test_interleaved_arrivals(self):
        tasks = [
            task(60.0, 20.0, "t0", arrival=0.0),
            task(10.0, 20.0, "t1", arrival=2.0),
        ]
        result = FluidSimulator(MACHINE).run(tasks, InterWithAdjPolicy())
        assert result.record_for(tasks[1]).started_at >= 2.0

    def test_wait_time(self):
        tasks = [task(10.0, 80.0, "first"), task(12.0, 8.0, "second")]
        result = FluidSimulator(MACHINE).run(tasks, IntraOnlyPolicy())
        second = result.record_for(tasks[1])
        assert second.wait_time == pytest.approx(10.0)  # waits for first


class TestDeadlocks:
    def test_policy_that_never_starts_deadlocks(self):
        class Lazy(SchedulingPolicy):
            name = "lazy"

            def decide(self, state):
                return []

        with pytest.raises(SimulationError):
            FluidSimulator(MACHINE).run([task(10.0)], Lazy())

    def test_starting_unknown_task_fails(self):
        ghost = task(10.0, name="ghost")

        class Confused(SchedulingPolicy):
            name = "confused"

            def decide(self, state):
                return [Start(ghost, 1.0)]

        with pytest.raises(SimulationError):
            FluidSimulator(MACHINE).run([task(20.0)], Confused())


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.5, max_value=30.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_io_work_conserved(self, specs):
        """Every simulated run serves exactly the tasks' total io."""
        tasks = [
            make_task(f"t{i}", io_rate=rate, seq_time=seq)
            for i, (rate, seq) in enumerate(specs)
        ]
        total_io = sum(t.io_count for t in tasks)
        sim = FluidSimulator(MACHINE, adjustment_overhead=0.0)
        result = sim.run(tasks, InterWithAdjPolicy())
        assert result.io_served == pytest.approx(total_io, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.5, max_value=30.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_elapsed_at_least_critical_path(self, specs):
        """No schedule can beat max(total_cpu/N, best single task)."""
        tasks = [
            make_task(f"t{i}", io_rate=rate, seq_time=seq)
            for i, (rate, seq) in enumerate(specs)
        ]
        sim = FluidSimulator(MACHINE, adjustment_overhead=0.0)
        result = sim.run(tasks, InterWithAdjPolicy())
        lower_bound = sum(t.seq_time for t in tasks) / MACHINE.processors
        assert result.elapsed >= lower_bound - 1e-6


def test_small_machine():
    machine = MachineConfig(processors=2, disks=1)
    tasks = [task(10.0, 4.0), task(80.0, 4.0)]
    result = FluidSimulator(machine).run(tasks, InterWithAdjPolicy())
    assert result.elapsed > 0
    assert len(result.records) == 2
