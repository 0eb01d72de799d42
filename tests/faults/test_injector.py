"""Tests for the fault injector and its log."""

from types import SimpleNamespace

import pytest

from repro.errors import FaultError
from repro.faults import (
    DiskDegradation,
    DiskStall,
    FaultInjector,
    FaultLog,
    FaultSchedule,
    MessageFault,
)


def _schedule(*faults):
    return FaultSchedule(tuple(faults))


class TestDegradation:
    def test_multiplier_defaults_to_healthy(self):
        fault = DiskDegradation(disk=1, start=0.0, duration=1.0, factor=0.5)
        assert FaultInjector(_schedule()).mult == []
        assert FaultInjector(_schedule(fault)).mult == [1.0, 1.0]

    def test_active_windows_stack_multiplicatively(self):
        a = DiskDegradation(disk=0, start=0.0, duration=5.0, factor=0.5)
        b = DiskDegradation(disk=0, start=1.0, duration=5.0, factor=0.5)
        c = DiskDegradation(disk=1, start=0.0, duration=5.0, factor=0.5)
        injector = FaultInjector(_schedule(a, b, c))
        injector.begin_degradation(a, 0.0)
        assert injector.mult[0] == 0.5
        injector.begin_degradation(b, 1.0)
        assert injector.mult == [0.25, 1.0]
        injector.end_degradation(a, 5.0)
        assert injector.mult == [0.5, 1.0]
        injector.end_degradation(b, 6.0)
        assert injector.mult == [1.0, 1.0]

    def test_product_is_taken_in_activation_order(self):
        # (0.43 * 0.6) * 0.56 and (0.43 * 0.56) * 0.6 differ in the last bit.
        first, second, third = (
            DiskDegradation(disk=0, start=0.0, duration=9.0, factor=f)
            for f in (0.43, 0.6, 0.56)
        )
        injector = FaultInjector(_schedule(first, second, third))
        for fault in (first, second, third):
            injector.begin_degradation(fault, 0.0)
        assert injector.mult[0] == (0.43 * 0.6) * 0.56
        assert (0.43 * 0.6) * 0.56 != (0.43 * 0.56) * 0.6
        injector.end_degradation(second, 1.0)
        assert injector.mult[0] == 0.43 * 0.56

    def test_attach_adopts_the_engines_lists(self):
        fault = DiskDegradation(disk=1, start=0.0, duration=1.0, factor=0.5)
        injector = FaultInjector(_schedule(fault))
        engine = SimpleNamespace(
            machine=SimpleNamespace(disks=4),
            clock=0.0,
            _schedule=lambda delay, callback: None,
            _mult=[1.0] * 4,
            _stall=[0.0] * 4,
        )
        injector.attach(engine, resumed=False)
        injector.begin_degradation(fault, 0.0)
        assert engine._mult == [1.0, 0.5, 1.0, 1.0]
        assert injector.stall is engine._stall

    def test_log_counts_and_events(self):
        fault = DiskDegradation(disk=2, start=0.0, duration=1.0, factor=0.5)
        injector = FaultInjector(_schedule(fault))
        injector.begin_degradation(fault, 0.5)
        injector.end_degradation(fault, 1.5)
        assert injector.log.degradations == 1
        kinds = [kind for _, kind, _ in injector.log.events]
        assert kinds == ["degrade", "recover"]


class TestStalls:
    def test_stalled_until_tracks_latest_end(self):
        a = DiskStall(disk=0, at=1.0, duration=2.0)
        b = DiskStall(disk=0, at=2.0, duration=0.5)
        injector = FaultInjector(_schedule(a, b))
        assert injector.stall == [0.0]
        injector.begin_stall(a, 1.0)
        assert injector.stall == [3.0]
        injector.begin_stall(b, 2.0)  # ends earlier, must not shorten
        assert injector.stall == [3.0]
        assert injector.log.stalls == 2


class TestMessageFate:
    def test_consumes_in_order_and_respects_time(self):
        injector = FaultInjector(
            _schedule(
                MessageFault(at=1.0, kind="drop"),
                MessageFault(at=2.0, kind="delay", extra=0.25),
            )
        )
        assert injector.message_fate(0.5) == ("ok", 0.0)
        assert injector.message_fate(1.0) == ("drop", 0.0)
        assert injector.message_fate(1.5) == ("ok", 0.0)
        assert injector.message_fate(2.5) == ("delay", 0.25)
        assert injector.message_fate(9.9) == ("ok", 0.0)
        assert injector.log.messages_dropped == 1
        assert injector.log.messages_delayed == 1


class TestInjector:
    def test_requires_a_schedule(self):
        with pytest.raises(FaultError):
            FaultInjector([])

    def test_reset_rewinds_everything(self):
        fault = MessageFault(at=0.0, kind="drop")
        injector = FaultInjector(_schedule(fault), seed=3)
        assert injector.message_fate(1.0)[0] == "drop"
        first_pick = injector.rng.random()
        injector.reset()
        assert injector.message_fate(1.0)[0] == "drop"
        assert injector.rng.random() == first_pick
        assert injector.log.messages_dropped == 1


class TestFaultLog:
    def test_faults_injected_sums_fault_counters(self):
        log = FaultLog(
            degradations=1,
            stalls=2,
            crashes=3,
            messages_dropped=4,
            messages_delayed=5,
            pages_reread=99,  # tolerance action, not a fault
            adjust_timeouts=99,
        )
        assert log.faults_injected == 15

    def test_to_lines_is_stable(self):
        log = FaultLog()
        log.record(1.25, "crash", "io0: slave 1 died")
        assert log.to_lines() == ["t=     1.250  crash    io0: slave 1 died"]
