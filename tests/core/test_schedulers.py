"""Tests for the three scheduling policies driven by the fluid engine."""

from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    make_task,
    max_parallelism,
    policy_by_name,
)
from repro.core.balance import (
    balance_point,
    clamp_pair,
    intra_time,
    realizable_time,
)
from repro.core.ids import id_scope
from repro.core.schedulers import Adjust, Start, memory_fits
from repro.core.task import IOPattern, Task
from repro.errors import SchedulingError
from repro.faults import DiskDegradation, FaultSchedule
from repro.sim import FluidSimulator, MicroSimulator, spec_for_io_rate

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


# ---------------------------------------------------------------------------
# The pairing test on floats, against the task-building reference.


@dataclass
class _View:
    """A running task as a policy sees it."""

    task: Task
    parallelism: float
    remaining_seq_time: float


@dataclass
class _State:
    machine: object
    running: list
    pending: list

    @property
    def effective_machine(self):
        return self.machine


def _reference_remnant(view):
    """The partner's unfinished part as a task of its own (builds a
    ``Task``, drawing an id)."""
    rem = max(view.remaining_seq_time, 1e-12)
    return Task(
        name=view.task.name,
        seq_time=rem,
        io_count=view.task.io_rate * rem,
        io_pattern=view.task.io_pattern,
    )


def _reference_seats(policy, machine, point):
    """task_id -> degree: ``point``'s pair seated by ``clamp_pair``."""
    x_io, x_cpu = clamp_pair(
        point.x_io, point.x_cpu, machine, integral=policy.integral
    )
    return {point.task_io.task_id: x_io, point.task_cpu.task_id: x_cpu}


def _reference_pair_actions(policy, machine, candidate, partner):
    """``InterWithAdjPolicy._pair_actions`` built from tasks and
    balance points: remnant task, two ``balance_point`` objects,
    ``realizable_time`` at the second and ``intra_time``."""
    effective = policy.use_effective_bandwidth
    if not memory_fits(machine, candidate, partner.task):
        return None
    point = balance_point(
        candidate, partner.task, machine, use_effective_bandwidth=effective
    )
    if point is None:
        return None
    remnant = _reference_remnant(partner)
    remaining_point = balance_point(
        candidate, remnant, machine, use_effective_bandwidth=effective
    )
    if remaining_point is None:
        return None
    io, cpu = remaining_point.task_io, remaining_point.task_cpu
    paired = realizable_time(
        remaining_point.x_io,
        remaining_point.x_cpu,
        (io.seq_time, io.io_rate, io.io_pattern),
        (cpu.seq_time, cpu.io_rate, cpu.io_pattern),
        machine,
        effective,
        policy.integral,
    )
    alone = intra_time(candidate, machine) + intra_time(remnant, machine)
    if paired >= alone:
        return None
    seats = _reference_seats(policy, machine, point)
    x_new, x_partner = seats[candidate.task_id], seats[partner.task.task_id]
    actions = []
    if abs(x_partner - partner.parallelism) > 1e-9:
        actions.append(Adjust(partner.task, x_partner))
    actions.append(Start(candidate, x_new))
    return actions


def _reference_rebalance(policy, machine, views):
    remnants = [_reference_remnant(view) for view in views]
    point = balance_point(
        remnants[0],
        remnants[1],
        machine,
        use_effective_bandwidth=policy.use_effective_bandwidth,
    )
    if point is None:
        return []
    seats = _reference_seats(policy, machine, point)
    actions = []
    for view, remnant in zip(views, remnants):
        x = seats[remnant.task_id]
        if abs(x - view.parallelism) > 1e-9:
            actions.append(Adjust(view.task, x))
    return actions


def _shape(actions):
    if actions is None:
        return None
    return [
        (type(a).__name__, a.task.task_id, a.parallelism.hex()) for a in actions
    ]


#: Work memory for two of the drawn working sets, not three.
_SMALL_MEMORY = replace(MACHINE, work_memory_bytes=4.0)

_rates = st.floats(min_value=0.5, max_value=120.0)
_remaining = st.one_of(
    st.floats(min_value=0.0, max_value=1e-9),
    st.floats(min_value=1e-9, max_value=60.0),
)


class TestPairingOnFloats:
    @settings(max_examples=400, deadline=None)
    @given(
        c_new=_rates,
        c_partner=_rates,
        pattern_new=st.sampled_from(IOPattern),
        pattern_partner=st.sampled_from(IOPattern),
        seq_time=st.floats(min_value=0.1, max_value=60.0),
        remaining=_remaining,
        parallelism=st.floats(min_value=1.0, max_value=8.0),
        memory=st.tuples(st.sampled_from([0.0, 2.0, 3.0]), st.sampled_from([0.0, 2.0])),
        integral=st.booleans(),
        effective=st.booleans(),
    )
    # (c * rem) / rem != c for this remnant, and the balance point
    # against it puts B one ulp higher than against the whole task.
    @example(
        c_new=6.0, c_partner=89.63975966272466, pattern_new=IOPattern.SEQUENTIAL,
        pattern_partner=IOPattern.SEQUENTIAL, seq_time=12.0,
        remaining=7.053145791802895e-10, parallelism=3.0, memory=(0.0, 0.0),
        integral=False, effective=True,
    )
    def test_pair_actions_match_the_task_building_reference(
        self, c_new, c_partner, pattern_new, pattern_partner, seq_time,
        remaining, parallelism, memory, integral, effective,
    ):
        candidate = make_task(
            "new", io_rate=c_new, seq_time=seq_time, io_pattern=pattern_new
        ).with_memory(memory[0])
        partner_task = make_task(
            "old", io_rate=c_partner, seq_time=60.0, io_pattern=pattern_partner
        ).with_memory(memory[1])
        partner = _View(partner_task, parallelism, remaining)
        policy = InterWithAdjPolicy(
            integral=integral, use_effective_bandwidth=effective
        )
        state = _State(_SMALL_MEMORY, [partner], [candidate])
        expected = _reference_pair_actions(policy, _SMALL_MEMORY, candidate, partner)
        actual = policy._pair_actions(state, candidate, partner)
        assert _shape(actual) == _shape(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        rates=st.tuples(_rates, _rates),
        patterns=st.tuples(st.sampled_from(IOPattern), st.sampled_from(IOPattern)),
        remaining=st.tuples(_remaining, _remaining),
        parallelism=st.tuples(
            st.floats(min_value=1.0, max_value=8.0),
            st.floats(min_value=1.0, max_value=8.0),
        ),
        integral=st.booleans(),
        effective=st.booleans(),
    )
    def test_rebalance_matches_the_task_building_reference(
        self, rates, patterns, remaining, parallelism, integral, effective
    ):
        views = [
            _View(
                make_task(f"r{i}", io_rate=rates[i], seq_time=60.0, io_pattern=patterns[i]),
                parallelism[i],
                remaining[i],
            )
            for i in range(2)
        ]
        policy = InterWithAdjPolicy(
            integral=integral,
            use_effective_bandwidth=effective,
            degradation_aware=True,
        )
        expected = _reference_rebalance(policy, MACHINE, views)
        actual = policy._rebalance(_State(MACHINE, views, []))
        assert _shape(actual) == _shape(expected)

    def test_a_consult_draws_no_task_id(self):
        with id_scope():
            partner = _View(make_task("io", io_rate=60.0, seq_time=40.0), 4.0, 25.0)
            candidate = make_task("cpu", io_rate=8.0, seq_time=40.0)
            actions = InterWithAdjPolicy().decide(
                _State(MACHINE, [partner], [candidate])
            )
            assert [type(a) for a in actions] == [Adjust, Start]
            assert make_task("next", io_rate=1.0, seq_time=1.0).task_id == 2

    def test_a_run_draws_no_task_id(self):
        """Pairing, re-pairing and re-balancing a whole degraded run on
        the micro engine, which draws one id per spec it is given."""
        faults = FaultSchedule(
            (DiskDegradation(disk=0, start=2.0, duration=30.0, factor=0.4),)
        )
        with id_scope():
            specs = [
                spec_for_io_rate(f"t{i}", MACHINE, io_rate=rate, n_pages=200 + 10 * i)
                for i, rate in enumerate((60.0, 8.0, 45.0, 12.0, 55.0, 4.0))
            ]
            result = MicroSimulator(MACHINE, faults=faults).run(
                specs, InterWithAdjPolicy(degradation_aware=True)
            )
            assert result.adjustments > 0
            assert make_task("next", io_rate=1.0, seq_time=1.0).task_id == len(specs)
