"""Tests for the FIFO and balance-aware admission policies."""

import pytest

from repro.config import paper_machine
from repro.core import make_task
from repro.errors import ServiceError
from repro.service import (
    BalanceAwareAdmission,
    FifoAdmission,
    ServiceSubmission,
    admission_by_name,
)


@pytest.fixture
def machine():
    return paper_machine()


def waiting_entry(name, io_rate):
    task = make_task(f"{name}-frag", io_rate=io_rate, seq_time=10.0)
    return ServiceSubmission(name=name, tenant="t0", tasks=(task,))


def inflight_task(io_rate, seq_time=10.0):
    return make_task(f"run-{io_rate}", io_rate=io_rate, seq_time=seq_time)


class TestFifoAdmission:
    def test_picks_head(self, machine):
        waiting = [waiting_entry("a", 50.0), waiting_entry("b", 10.0)]
        pick = FifoAdmission().select(waiting, [inflight_task(50.0)], machine)
        assert pick.name == "a"

    def test_empty_queue(self, machine):
        assert FifoAdmission().select([], [], machine) is None


class TestBalanceAwareAdmission:
    def test_empty_inflight_takes_head(self, machine):
        waiting = [waiting_entry("a", 10.0), waiting_entry("b", 50.0)]
        pick = BalanceAwareAdmission().select(waiting, [], machine)
        assert pick.name == "a"

    def test_io_saturated_picks_most_cpu_bound(self, machine):
        # In flight: IO-bound work only (rate 50 > B/N = 30).
        waiting = [
            waiting_entry("io", 55.0),
            waiting_entry("cpu", 8.0),
            waiting_entry("cpu2", 12.0),
        ]
        pick = BalanceAwareAdmission().select(
            waiting, [inflight_task(50.0)], machine
        )
        assert pick.name == "cpu"

    def test_cpu_saturated_picks_most_io_bound(self, machine):
        waiting = [
            waiting_entry("cpu", 8.0),
            waiting_entry("io", 55.0),
            waiting_entry("io2", 40.0),
        ]
        pick = BalanceAwareAdmission().select(
            waiting, [inflight_task(10.0)], machine
        )
        assert pick.name == "io"

    def test_balanced_inflight_takes_head(self, machine):
        # Equal IO-bound and CPU-bound work in flight: no direction.
        inflight = [inflight_task(50.0), inflight_task(10.0)]
        waiting = [waiting_entry("a", 8.0), waiting_entry("b", 55.0)]
        pick = BalanceAwareAdmission().select(waiting, inflight, machine)
        assert pick.name == "a"

    def test_window_bounds_the_pick(self, machine):
        # The only complementary submission sits just outside the
        # window, so the policy picks the best within it — bounded
        # unfairness.
        window = BalanceAwareAdmission.head_window
        waiting = [
            waiting_entry(f"io{i}", 50.0 + i) for i in range(window)
        ] + [waiting_entry("cpu", 5.0)]
        pick = BalanceAwareAdmission().select(
            waiting, [inflight_task(55.0)], machine
        )
        assert pick.name == "io0"

    def test_ties_break_on_arrival_order(self, machine):
        waiting = [waiting_entry("first", 8.0), waiting_entry("second", 8.0)]
        pick = BalanceAwareAdmission().select(
            waiting, [inflight_task(55.0)], machine
        )
        assert pick.name == "first"

    def test_empty_queue(self, machine):
        policy = BalanceAwareAdmission()
        assert policy.select([], [inflight_task(50.0)], machine) is None


class TestAdmissionByName:
    def test_lookup(self):
        assert isinstance(admission_by_name("fifo"), FifoAdmission)
        assert isinstance(admission_by_name("BALANCE"), BalanceAwareAdmission)

    def test_unknown_name(self):
        with pytest.raises(ServiceError):
            admission_by_name("lifo")
