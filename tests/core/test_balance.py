"""Tests for the IO-CPU balance point (Sections 2.3 / 2.5, Figure 4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    IOPattern,
    balance_point,
    effective_bandwidth,
    effective_bandwidth_mix,
    inter_time,
    inter_worthwhile,
    intra_time,
    make_task,
)
from repro.errors import InfeasibleBalanceError

MACHINE = paper_machine()  # N=8, B=240 (almost-seq), Br=140


def task(rate, seq_time=10.0, pattern=IOPattern.SEQUENTIAL, name=None):
    return make_task(
        name or f"c{rate}", io_rate=rate, seq_time=seq_time, io_pattern=pattern
    )


class TestNominalBalance:
    """With a constant B (use_effective_bandwidth=False) the paper's
    closed form must hold exactly."""

    def test_closed_form(self):
        fi, fj = task(60.0), task(10.0)
        point = balance_point(fi, fj, MACHINE, use_effective_bandwidth=False)
        # x_i = (B - Cj*N)/(Ci - Cj) = (240 - 80)/50 = 3.2
        # x_j = (Ci*N - B)/(Ci - Cj) = (480 - 240)/50 = 4.8
        assert point.x_io == pytest.approx(3.2)
        assert point.x_cpu == pytest.approx(4.8)

    def test_full_utilization_at_point(self):
        point = balance_point(task(60.0), task(10.0), MACHINE, use_effective_bandwidth=False)
        cpu, io = point.utilization(MACHINE)
        assert cpu == pytest.approx(1.0)
        assert io == pytest.approx(1.0)

    def test_argument_order_irrelevant(self):
        p1 = balance_point(task(60.0), task(10.0), MACHINE, use_effective_bandwidth=False)
        p2 = balance_point(task(10.0), task(60.0), MACHINE, use_effective_bandwidth=False)
        assert p1.x_io == pytest.approx(p2.x_io)
        assert p1.task_io.io_rate == p2.task_io.io_rate == 60.0

    def test_both_io_bound_infeasible(self):
        assert balance_point(task(60.0), task(40.0), MACHINE, use_effective_bandwidth=False) is None

    def test_both_cpu_bound_infeasible(self):
        assert balance_point(task(10.0), task(20.0), MACHINE, use_effective_bandwidth=False) is None

    def test_equal_rates_infeasible(self):
        assert balance_point(task(30.0), task(30.0), MACHINE) is None

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=30.5, max_value=120.0),
        st.floats(min_value=0.5, max_value=29.5),
    )
    def test_feasible_iff_opposite_sides(self, ci, cj):
        point = balance_point(task(ci), task(cj), MACHINE, use_effective_bandwidth=False)
        assert point is not None
        assert point.x_io > 0 and point.x_cpu > 0
        assert point.total_parallelism == pytest.approx(8.0)
        assert point.total_io_rate == pytest.approx(240.0)

    def test_parallelism_of(self):
        fi, fj = task(60.0), task(10.0)
        point = balance_point(fi, fj, MACHINE, use_effective_bandwidth=False)
        assert point.parallelism_of(fi) == point.x_io
        assert point.parallelism_of(fj) == point.x_cpu
        with pytest.raises(InfeasibleBalanceError):
            point.parallelism_of(task(50.0))


class TestEffectiveBandwidth:
    def test_single_sequential_stream_full_bs(self):
        b = effective_bandwidth(MACHINE, 200.0, 0.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        assert b == pytest.approx(240.0)

    def test_equal_sequential_streams_drop_to_br(self):
        b = effective_bandwidth(MACHINE, 100.0, 100.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        assert b == pytest.approx(140.0)

    def test_paper_interpolation(self):
        # r = 50/150: B = Br + (1 - r)(Bs - Br) = 140 + (2/3)*100
        b = effective_bandwidth(MACHINE, 150.0, 50.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        assert b == pytest.approx(140 + (2 / 3) * 100)

    def test_symmetry(self):
        b1 = effective_bandwidth(MACHINE, 150.0, 50.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        b2 = effective_bandwidth(MACHINE, 50.0, 150.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        assert b1 == pytest.approx(b2)

    def test_two_random_streams_get_br(self):
        b = effective_bandwidth(MACHINE, 80.0, 40.0, IOPattern.RANDOM, IOPattern.RANDOM)
        assert b == pytest.approx(140.0)

    def test_seq_plus_random_interpolates_by_share(self):
        b = effective_bandwidth(MACHINE, 150.0, 50.0, IOPattern.SEQUENTIAL, IOPattern.RANDOM)
        assert b == pytest.approx(140 + 0.75 * 100)

    def test_no_io_gives_bs(self):
        b = effective_bandwidth(MACHINE, 0.0, 0.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        assert b == pytest.approx(240.0)

    @given(
        st.floats(min_value=0, max_value=300),
        st.floats(min_value=0, max_value=300),
    )
    def test_bounds_property(self, a, b):
        for pa in IOPattern:
            for pb in IOPattern:
                eff = effective_bandwidth(MACHINE, a, b, pa, pb)
                assert 140.0 - 1e-9 <= eff <= 240.0 + 1e-9

    def test_mix_reduces_to_pairwise(self):
        pair = effective_bandwidth(MACHINE, 150.0, 50.0, IOPattern.SEQUENTIAL, IOPattern.SEQUENTIAL)
        mix = effective_bandwidth_mix(MACHINE, [150.0, 50.0], 0.0)
        assert mix == pytest.approx(pair)

    def test_mix_within_an_ulp_of_pairwise_on_two_streams(self):
        # About 5% of these cases differ, by at most ~3.3e-16 relative:
        # the two functions round in different orders.  Anything larger
        # is drift between the policy's pricing and the fluid engine's.
        rng = random.Random(0)
        seq, rnd = IOPattern.SEQUENTIAL, IOPattern.RANDOM
        worst = 0.0
        for __ in range(100_000):
            a, b = rng.uniform(0, 100), rng.uniform(0, 100)
            pa, pb = rng.choice((seq, rnd)), rng.choice((seq, rnd))
            streams = ((a, pa), (b, pb))
            pair = effective_bandwidth(MACHINE, a, b, pa, pb)
            mix = effective_bandwidth_mix(
                MACHINE,
                [r for r, p in streams if p is seq],
                sum(r for r, p in streams if p is rnd),
            )
            worst = max(worst, abs(mix - pair) / pair)
        assert worst <= 1e-15

    def test_mix_three_equal_streams_hits_br(self):
        assert effective_bandwidth_mix(MACHINE, [50.0, 50.0, 50.0], 0.0) == pytest.approx(140.0)

    def test_mix_pure_random(self):
        assert effective_bandwidth_mix(MACHINE, [], 100.0) == pytest.approx(140.0)

    def test_mix_idle(self):
        assert effective_bandwidth_mix(MACHINE, [], 0.0) == pytest.approx(240.0)


class TestEffectiveBalance:
    def test_demand_matches_effective_bandwidth(self):
        fi, fj = task(65.0), task(10.0)
        point = balance_point(fi, fj, MACHINE)
        demand = point.total_io_rate
        assert demand == pytest.approx(point.bandwidth, rel=1e-6)
        assert point.bandwidth < 240.0  # interleaving cost is real

    def test_effective_x_io_below_nominal(self):
        fi, fj = task(65.0), task(10.0)
        nominal = balance_point(fi, fj, MACHINE, use_effective_bandwidth=False)
        effective = balance_point(fi, fj, MACHINE)
        assert effective.x_io < nominal.x_io

    def test_largest_root_chosen(self):
        # The pessimistic fixed point (streams equal, B = Br) must NOT
        # be returned: the io allocation should stay well above the
        # degenerate solution.
        fi, fj = task(65.0), task(10.0)
        point = balance_point(fi, fj, MACHINE)
        degenerate_x = (140.0 - 10.0 * 8) / (65.0 - 10.0)  # B = Br solution
        assert point.x_io > degenerate_x + 0.5

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=35.0, max_value=120.0),
        st.floats(min_value=1.0, max_value=25.0),
    )
    def test_sustainability_property(self, ci, cj):
        point = balance_point(task(ci), task(cj), MACHINE)
        if point is None:
            return
        assert 0 < point.x_io
        assert 0 < point.x_cpu
        assert point.total_parallelism == pytest.approx(8.0)
        # demand never exceeds the effective bandwidth
        assert point.total_io_rate <= point.bandwidth + 1e-6


class TestTimes:
    def test_intra_time(self):
        # io task: maxp = 240/60 = 4 -> T/4
        assert intra_time(task(60.0, seq_time=20.0), MACHINE) == pytest.approx(5.0)
        # cpu task: maxp = 8
        assert intra_time(task(10.0, seq_time=16.0), MACHINE) == pytest.approx(2.0)

    def test_inter_time_nominal_closed_form(self):
        fi = task(60.0, seq_time=32.0)
        fj = task(10.0, seq_time=48.0)
        t = inter_time(fi, fj, MACHINE, use_effective_bandwidth=False)
        # x = (3.2, 4.8): fi finishes at 10, fj at 10 -> both at 10, no tail
        assert t == pytest.approx(10.0)

    def test_inter_time_with_tail(self):
        fi = task(60.0, seq_time=32.0)  # finishes at 10 with x=3.2
        fj = task(10.0, seq_time=24.0)  # finishes at 5 with x=4.8
        t = inter_time(fi, fj, MACHINE, use_effective_bandwidth=False)
        # fj done at 5; fi has 32 - 5*3.2 = 16 left at maxp 4 -> 4 more
        assert t == pytest.approx(5.0 + 4.0)

    def test_inter_time_infeasible_is_inf(self):
        assert inter_time(task(50.0), task(40.0), MACHINE) == float("inf")

    def test_inter_worthwhile_for_complementary_pair(self):
        assert inter_worthwhile(
            task(60.0, seq_time=32.0), task(10.0, seq_time=48.0), MACHINE,
            use_effective_bandwidth=False,
        )

    def test_inter_not_worthwhile_same_side(self):
        assert not inter_worthwhile(task(50.0), task(40.0), MACHINE)
