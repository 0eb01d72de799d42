"""Tests for the admission-gate circuit breaker state machine."""

import pytest

from repro.faults import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.faults import breaker as breaker_module


@pytest.fixture(autouse=True)
def _thresholds(monkeypatch):
    """Three failures open the breaker; it half-opens after 10 s."""
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 3)
    monkeypatch.setattr(breaker_module, "COOLDOWN", 10.0)


def _breaker():
    return CircuitBreaker()


class TestReactiveTrip:
    def test_opens_after_consecutive_failures(self):
        breaker = _breaker()
        for t in (1.0, 2.0):
            breaker.record_failure(t)
            assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN

    def test_success_resets_the_streak(self):
        breaker = _breaker()
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(2.5)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == CLOSED

    def test_open_rejects_until_cooldown(self):
        breaker = _breaker()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert not breaker.allow(5.0)
        assert not breaker.allow(12.9)
        assert breaker.open_rejections == 2
        # Cooldown over: half-open, exactly one probe allowed.
        assert breaker.allow(13.1)
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(13.2)

    def test_probe_success_closes(self):
        breaker = _breaker()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(14.0)
        breaker.record_success(14.5)
        assert breaker.state == CLOSED
        assert breaker.allow(14.6)

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = _breaker()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(14.0)
        breaker.record_failure(14.5)
        assert breaker.state == OPEN
        assert not breaker.allow(20.0)
        assert breaker.allow(24.6)  # 14.5 + 10s cooldown passed


class TestTimeline:
    def test_transitions_are_recorded(self):
        breaker = _breaker()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        breaker.allow(14.0)
        breaker.record_success(14.5)
        assert breaker.timeline == [
            (0.0, CLOSED),
            (3.0, OPEN),
            (14.0, HALF_OPEN),
            (14.5, CLOSED),
        ]

    def test_reset_restores_fresh_state(self):
        breaker = _breaker()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.timeline == [(0.0, CLOSED)]
        assert breaker.open_rejections == 0
