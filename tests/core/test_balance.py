"""Tests for the IO-CPU balance point (Sections 2.3 / 2.5, Figure 4)."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    IOPattern,
    balance_point,
    effective_bandwidth,
    intra_time,
    make_task,
)
from repro.core.balance import (
    balance_solution,
    clamp_pair,
    clamp_parallelism,
    realizable_time,
    worthwhile_pairing,
)

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


#: A balance point ``(x, N - x)`` on a machine of ``N >= 2``
#: processors, as :func:`balance_solution` returns it (``x_cpu = N -
#: x_io``), IO-bound degree first or second.
_balance_points = st.integers(min_value=2, max_value=64).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.floats(min_value=0.0, max_value=float(n), exclude_min=True, exclude_max=True),
        st.booleans(),
    )
)


def _seat(n, x, swap, integral):
    machine = replace(MACHINE, processors=n)
    pair = (n - x, x) if swap else (x, n - x)
    return machine, pair, clamp_pair(*pair, machine, integral=integral)


class TestClampPair:
    """One function seats a pair: within [1, N] each, within N together."""

    @settings(max_examples=300, deadline=None)
    @given(point=_balance_points, integral=st.booleans())
    def test_a_balance_point_is_seated_within_n(self, point, integral):
        n, x, swap = point
        __, __, (x_io, x_cpu) = _seat(n, x, swap, integral)
        assert 1.0 <= x_io <= n and 1.0 <= x_cpu <= n
        assert x_io + x_cpu <= n

    @settings(max_examples=300, deadline=None)
    @given(point=_balance_points)
    def test_integral_degrees_come_back_as_clamped(self, point):
        # Floors of a pair summing to N sum to at most N, unless the
        # larger degree rounded up to N itself.
        n, x, swap = point
        machine, pair, seated = _seat(n, x, swap, True)
        assume(max(pair) < n)
        per_degree = [clamp_parallelism(v, machine, integral=True) for v in pair]
        assert [v.hex() for v in seated] == [v.hex() for v in per_degree]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        share=st.floats(min_value=0.0, max_value=1.0),
        rest=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_a_legal_pair_comes_back_unchanged(self, n, share, rest):
        x_io = 1.0 + share * (n - 2)
        x_cpu = 1.0 + rest * (n - 1 - x_io)
        assume(x_io + x_cpu <= n)
        seated = clamp_pair(x_io, x_cpu, replace(MACHINE, processors=n), integral=False)
        assert [v.hex() for v in seated] == [x_io.hex(), x_cpu.hex()]

    def test_the_excess_comes_off_the_larger_degree(self):
        assert clamp_pair(0.25, 7.75, MACHINE, integral=False) == (1.0, 7.0)
        assert clamp_pair(7.75, 0.25, MACHINE, integral=False) == (7.0, 1.0)
        assert clamp_pair(0.25, 7.75, MACHINE, integral=True) == (1.0, 7.0)


def two_streams(rate_a, pattern_a, rate_b, pattern_b):
    """``effective_bandwidth`` of two io streams."""
    streams = ((rate_a, pattern_a), (rate_b, pattern_b))
    return effective_bandwidth(
        MACHINE,
        [r for r, p in streams if p is IOPattern.SEQUENTIAL],
        sum(r for r, p in streams if p is IOPattern.RANDOM),
    )


SEQ, RND = IOPattern.SEQUENTIAL, IOPattern.RANDOM


class TestEffectiveBandwidth:
    def test_single_sequential_stream_full_bs(self):
        assert two_streams(200.0, SEQ, 0.0, SEQ) == pytest.approx(240.0)

    def test_equal_sequential_streams_drop_to_br(self):
        assert two_streams(100.0, SEQ, 100.0, SEQ) == pytest.approx(140.0)

    def test_paper_interpolation(self):
        # r = 50/150: B = Br + (1 - r)(Bs - Br) = 140 + (2/3)*100
        b = two_streams(150.0, SEQ, 50.0, SEQ)
        assert b == pytest.approx(140 + (2 / 3) * 100)

    def test_symmetry(self):
        b1 = two_streams(150.0, SEQ, 50.0, SEQ)
        b2 = two_streams(50.0, SEQ, 150.0, SEQ)
        assert b1 == b2

    def test_two_random_streams_get_br(self):
        assert two_streams(80.0, RND, 40.0, RND) == pytest.approx(140.0)

    def test_seq_plus_random_interpolates_by_share(self):
        b = two_streams(150.0, SEQ, 50.0, RND)
        assert b == pytest.approx(140 + 0.75 * 100)

    def test_no_io_gives_bs(self):
        assert two_streams(0.0, SEQ, 0.0, SEQ) == pytest.approx(240.0)

    @given(
        st.floats(min_value=0, max_value=300),
        st.floats(min_value=0, max_value=300),
    )
    def test_bounds_property(self, a, b):
        for pa in IOPattern:
            for pb in IOPattern:
                eff = two_streams(a, pa, b, pb)
                assert 140.0 - 1e-9 <= eff <= 240.0 + 1e-9

    def test_mix_three_equal_streams_hits_br(self):
        assert effective_bandwidth(MACHINE, [50.0, 50.0, 50.0], 0.0) == pytest.approx(140.0)

    def test_mix_pure_random(self):
        assert effective_bandwidth(MACHINE, [], 100.0) == pytest.approx(140.0)

    def test_mix_idle(self):
        assert effective_bandwidth(MACHINE, [], 0.0) == pytest.approx(240.0)


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

    @staticmethod
    def inter_time(fi, fj):
        """``realizable_time`` at the pair's nominal balance point."""
        x_io, x_cpu, __ = balance_solution(
            fi.io_rate, fi.io_pattern, fj.io_rate, fj.io_pattern, MACHINE, False
        )
        return realizable_time(
            x_io,
            x_cpu,
            (fi.seq_time, fi.io_rate, fi.io_pattern),
            (fj.seq_time, fj.io_rate, fj.io_pattern),
            MACHINE,
            False,
            False,
        )

    def test_inter_time_nominal_closed_form(self):
        fi = task(60.0, seq_time=32.0)
        fj = task(10.0, seq_time=48.0)
        # x = (3.2, 4.8): fi finishes at 10, fj at 10 -> both at 10, no tail
        assert self.inter_time(fi, fj) == pytest.approx(10.0)

    def test_inter_time_with_tail(self):
        fi = task(60.0, seq_time=32.0)  # finishes at 10 with x=3.2
        fj = task(10.0, seq_time=24.0)  # finishes at 5 with x=4.8
        # fj done at 5; fi has 32 - 5*3.2 = 16 left at maxp 4 -> 4 more
        assert self.inter_time(fi, fj) == pytest.approx(5.0 + 4.0)

    def test_inter_worthwhile_for_complementary_pair(self):
        point = worthwhile_pairing(
            (32.0, 60.0, SEQ), (48.0, 10.0, SEQ), MACHINE, False, False
        )
        assert point == balance_solution(60.0, SEQ, 10.0, SEQ, MACHINE, False)

    def test_inter_not_worthwhile_same_side(self):
        # Both IO-bound: no balance point, so no pairing.
        assert worthwhile_pairing(
            (10.0, 50.0, SEQ), (10.0, 40.0, SEQ), MACHINE, True, False
        ) is None
