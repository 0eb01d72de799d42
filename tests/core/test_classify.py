"""Tests for IO/CPU-bound classification (Section 2.2, Figure 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    IOPattern,
    classification_line,
    is_io_bound,
    make_task,
    max_parallelism,
    pattern_bandwidth,
    split_by_bound,
)
from repro.core.balance import clamp_parallelism

MACHINE = paper_machine()  # B = 240, N = 8, threshold = 30


def task(rate, pattern=IOPattern.SEQUENTIAL, seq_time=10.0):
    return make_task(f"c{rate}", io_rate=rate, seq_time=seq_time, io_pattern=pattern)


class TestClassification:
    def test_threshold_is_b_over_n(self):
        assert MACHINE.bound_threshold == 30.0

    def test_io_bound_above_threshold(self):
        assert is_io_bound(task(31.0), MACHINE)
        assert is_io_bound(task(70.0), MACHINE)

    def test_cpu_bound_at_or_below_threshold(self):
        assert not is_io_bound(task(30.0), MACHINE)  # boundary: "otherwise"
        assert not is_io_bound(task(5.0), MACHINE)

    def test_paper_rates(self):
        # r_min scans at 5 ios/s (CPU-bound); r_max at 70 (IO-bound).
        assert not is_io_bound(task(5.0), MACHINE)
        assert is_io_bound(task(70.0), MACHINE)

    @given(st.floats(min_value=0.0, max_value=200.0))
    def test_dichotomy(self, rate):
        t = task(rate) if rate > 0 else make_task("z", io_rate=0.0, seq_time=1.0)
        io_bound, cpu_bound = split_by_bound([t], MACHINE)
        expected = ([t], []) if is_io_bound(t, MACHINE) else ([], [t])
        assert (io_bound, cpu_bound) == expected


class TestMaxParallelism:
    def test_cpu_bound_limited_by_processors(self):
        assert max_parallelism(task(5.0), MACHINE) == 8.0

    def test_io_bound_limited_by_bandwidth(self):
        # maxp = B / C = 240 / 60 = 4
        assert max_parallelism(task(60.0), MACHINE) == pytest.approx(4.0)

    def test_random_pattern_uses_random_bandwidth(self):
        # Br = 4 * 35 = 140; maxp = 140 / 70 = 2
        t = task(70.0, pattern=IOPattern.RANDOM)
        assert max_parallelism(t, MACHINE) == pytest.approx(2.0)

    def test_zero_io_rate_gets_all_processors(self):
        t = make_task("cpu-only", io_rate=0.0, seq_time=1.0)
        assert max_parallelism(t, MACHINE) == 8.0

    def test_never_exceeds_processors(self):
        assert max_parallelism(task(0.001), MACHINE) == 8.0

    @given(st.floats(min_value=0.1, max_value=500.0))
    def test_maxp_within_box(self, rate):
        maxp = max_parallelism(task(rate), MACHINE)
        assert 0 < maxp <= MACHINE.processors
        # At maxp, the io rate never exceeds the bandwidth.
        assert rate * maxp <= MACHINE.io_bandwidth + 1e-9

    # The integral rounding every policy uses.
    def test_int_parallelism_clamps(self):
        assert clamp_parallelism(3.9, MACHINE, integral=True) == 3
        assert clamp_parallelism(0.2, MACHINE, integral=True) == 1
        assert clamp_parallelism(99.0, MACHINE, integral=True) == 8

    def test_int_parallelism_floors_not_rounds(self):
        # Rounding 3.9 up to 4 would oversubscribe the disks at the
        # bandwidth wall; Section 2.3 never allows demand above B.
        assert clamp_parallelism(3.5, MACHINE, integral=True) == 3
        assert clamp_parallelism(3.999, MACHINE, integral=True) == 3

    @given(st.floats(min_value=0.1, max_value=500.0))
    def test_integral_degree_respects_bandwidth_wall(self, rate):
        # The audited invariant: C * clamp_parallelism(maxp,
        # integral=True) <= B for every io rate, so flooring (not
        # rounding) is the only safe integralization of the continuous
        # degree.
        t = task(rate)
        maxp = max_parallelism(t, MACHINE)
        degree = clamp_parallelism(maxp, MACHINE, integral=True)
        if degree > 1:  # degree 1 is always admitted, even past the wall
            assert rate * degree <= MACHINE.io_bandwidth + 1e-6


class TestPatternBandwidth:
    def test_sequential_gets_almost_seq(self):
        assert pattern_bandwidth(MACHINE, IOPattern.SEQUENTIAL) == 240.0

    def test_random_gets_random(self):
        assert pattern_bandwidth(MACHINE, IOPattern.RANDOM) == 140.0


class TestSplitting:
    def test_split_by_bound(self):
        tasks = [task(5), task(65), task(29), task(31)]
        io_q, cpu_q = split_by_bound(tasks, MACHINE)
        assert {t.io_rate for t in io_q} == {65, 31}
        assert {t.io_rate for t in cpu_q} == {5, 29}

    def test_split_preserves_everything(self):
        tasks = [task(float(r)) for r in range(1, 100, 7)]
        io_q, cpu_q = split_by_bound(tasks, MACHINE)
        assert len(io_q) + len(cpu_q) == len(tasks)


class TestClassificationLine:
    def test_line_through_origin_with_slope_c(self):
        points = classification_line(task(40.0), MACHINE, points=5)
        assert points[0] == (0.0, 0.0)
        for x, y in points:
            assert y == pytest.approx(40.0 * x)

    def test_line_ends_at_maxp(self):
        points = classification_line(task(60.0), MACHINE, points=5)
        assert points[-1][0] == pytest.approx(4.0)  # maxp = 240/60
        assert points[-1][1] == pytest.approx(240.0)  # hits the B wall

    def test_cpu_line_ends_at_n(self):
        points = classification_line(task(10.0), MACHINE, points=3)
        assert points[-1][0] == pytest.approx(8.0)
        assert points[-1][1] == pytest.approx(80.0)  # below B
