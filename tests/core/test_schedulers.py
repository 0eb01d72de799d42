"""Tests for the three scheduling policies driven by the fluid engine."""

import pytest

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    make_task,
    max_parallelism,
    policy_by_name,
)
from repro.errors import SchedulingError
from repro.sim import FluidSimulator

MACHINE = paper_machine()


def task(rate, seq_time=10.0, name=None):
    return make_task(name or f"c{rate}", io_rate=rate, seq_time=seq_time)


def run(tasks, policy, **kwargs):
    return FluidSimulator(MACHINE, **kwargs).run(list(tasks), policy)


class TestIntraOnly:
    def test_one_at_a_time(self):
        result = run([task(60.0), task(10.0)], IntraOnlyPolicy())
        recs = sorted(result.records, key=lambda r: r.started_at)
        assert recs[0].finished_at <= recs[1].started_at + 1e-9

    def test_each_runs_at_maxp(self):
        tasks = [task(60.0, 20.0), task(10.0, 16.0)]
        result = run(tasks, IntraOnlyPolicy())
        for record in result.records:
            expected = max_parallelism(record.task, MACHINE)
            assert record.parallelism_history[0][1] == pytest.approx(expected)

    def test_elapsed_is_sum_of_intra_times(self):
        tasks = [task(60.0, 20.0), task(10.0, 16.0)]
        result = run(tasks, IntraOnlyPolicy())
        assert result.elapsed == pytest.approx(20.0 / 4.0 + 16.0 / 8.0)

    def test_no_adjustments(self):
        result = run([task(60.0), task(10.0), task(45.0)], IntraOnlyPolicy())
        assert result.adjustments == 0


class TestInterWithAdj:
    def test_pairs_io_with_cpu(self):
        tasks = [task(60.0, 30.0), task(10.0, 30.0)]
        result = run(tasks, InterWithAdjPolicy())
        recs = sorted(result.records, key=lambda r: r.started_at)
        # Both start at time 0 (paired).
        assert recs[0].started_at == recs[1].started_at == 0.0

    def test_beats_intra_on_mixed_workload(self):
        tasks = [
            task(65.0, 40.0, "io1"),
            task(62.0, 35.0, "io2"),
            task(8.0, 45.0, "cpu1"),
            task(12.0, 40.0, "cpu2"),
        ]
        intra = run(tasks, IntraOnlyPolicy()).elapsed
        adaptive = run(tasks, InterWithAdjPolicy()).elapsed
        assert adaptive < intra

    def test_equal_on_uniform_workload(self):
        tasks = [task(float(r), 20.0) for r in (50, 55, 60, 65)]
        intra = run(tasks, IntraOnlyPolicy()).elapsed
        adaptive = run(tasks, InterWithAdjPolicy()).elapsed
        assert adaptive == pytest.approx(intra, rel=1e-6)

    def test_adjusts_on_completion(self):
        # Unequal pair: when the short CPU task ends, the IO task must
        # be adjusted (to pair with the next CPU task or up to maxp).
        tasks = [task(65.0, 50.0), task(5.0, 5.0), task(8.0, 5.0)]
        result = run(tasks, InterWithAdjPolicy())
        assert result.adjustments >= 1

    def test_respects_dependencies(self):
        a = task(60.0, 10.0, "build")
        b = task(10.0, 10.0, "probe").with_dependencies([a.task_id])
        result = run([a, b], InterWithAdjPolicy())
        rec_a = result.record_for(a)
        rec_b = result.record_for(b)
        assert rec_b.started_at >= rec_a.finished_at - 1e-9

    def test_fifo_pairing_option(self):
        tasks = [task(65.0), task(40.0), task(5.0), task(25.0)]
        result = run(tasks, InterWithAdjPolicy(pairing="fifo"))
        assert result.elapsed > 0

    def test_bad_pairing_rejected(self):
        with pytest.raises(SchedulingError):
            InterWithAdjPolicy(pairing="zigzag")

    def test_integral_parallelism(self):
        tasks = [task(60.0, 20.0), task(10.0, 20.0)]
        result = run(tasks, InterWithAdjPolicy(integral=True))
        for record in result.records:
            for __, x in record.parallelism_history:
                assert x == int(x)


    @pytest.mark.parametrize(
        "rates", [(60.0, 50.0, 45.0), (60.0, 10.0, 45.0)], ids=["one-sided", "paired"]
    )
    def test_ready_tasks_are_classified_once_per_consult(self, monkeypatch, rates):
        from types import SimpleNamespace

        from repro.core import classify

        classified = []
        real = classify.is_io_bound

        def counting(candidate, machine):
            classified.append(candidate)
            return real(candidate, machine)

        monkeypatch.setattr(classify, "is_io_bound", counting)
        pending = [task(rate) for rate in rates]
        state = SimpleNamespace(machine=MACHINE, running=[], pending=pending)
        assert InterWithAdjPolicy().decide(state)
        assert classified == pending


class TestInterWithoutAdj:
    def test_never_adjusts(self):
        tasks = [task(float(r), 15.0) for r in (65, 60, 10, 8, 45, 20)]
        result = run(tasks, InterWithoutAdjPolicy())
        assert result.adjustments == 0
        for record in result.records:
            assert len(record.parallelism_history) == 1

    def test_starts_filler_tasks_on_completion(self):
        tasks = [task(65.0, 30.0), task(8.0, 5.0), task(10.0, 5.0)]
        result = run(tasks, InterWithoutAdjPolicy())
        starts = sorted(r.started_at for r in result.records)
        assert starts[0] == starts[1] == 0.0
        assert starts[2] > 0.0

    def test_stuck_parallelism_tail(self):
        # A long IO task paired early keeps its low parallelism even
        # after everything else finishes — the paper's stated weakness.
        tasks = [task(65.0, 60.0, "long-io"), task(8.0, 5.0, "short-cpu")]
        result = run(tasks, InterWithoutAdjPolicy())
        long_io = result.record_for(tasks[0])
        final_x = long_io.parallelism_history[-1][1]
        assert final_x < max_parallelism(tasks[0], MACHINE) - 0.3
        adaptive = run(tasks, InterWithAdjPolicy()).elapsed
        assert adaptive < result.elapsed


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["INTRA-ONLY", "INTER-WITHOUT-ADJ", "INTER-WITH-ADJ"]
    )
    def test_by_name(self, name):
        assert policy_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(SchedulingError):
            policy_by_name("FAIR-SHARE")
