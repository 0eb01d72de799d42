"""Tests for the hardened gate: retry backoff and the circuit breaker."""

import pytest

from repro.config import paper_machine
from repro.core import make_task
from repro.faults import CLOSED, OPEN, CircuitBreaker, RetryPolicy
from repro.faults import breaker as breaker_module
from repro.service import QueryService, ServiceSubmission


@pytest.fixture
def machine():
    return paper_machine()


def submission(name, tenant="t0", io_rate=40.0, arrival=0.0, seq_time=10.0):
    task = make_task(
        f"{name}-f0", io_rate=io_rate, seq_time=seq_time, arrival_time=arrival
    )
    return ServiceSubmission(
        name=name, tenant=tenant, tasks=(task,), arrival_time=arrival
    )


def _burst(n, *, arrival=0.0, seq_time=10.0):
    return [
        submission(f"q{i}", arrival=arrival, seq_time=seq_time)
        for i in range(n)
    ]


class TestGateRetry:
    def test_retry_turns_sheds_into_completions(self, machine):
        # Six simultaneous arrivals against a queue of one: single-shot
        # sheds most of them; with retry every shed is re-offered after
        # backoff and eventually admitted.
        stream = _burst(6, seq_time=5.0)
        single = QueryService(
            machine, queue_capacity=1, max_inflight_fragments=1
        ).run(stream)
        retried = QueryService(
            machine,
            queue_capacity=1,
            max_inflight_fragments=1,
            retry=RetryPolicy(max_retries=8, base_delay=4.0, max_delay=60.0),
        ).run(stream)
        assert single.metrics.overall.rejected > 0
        assert (
            retried.metrics.overall.completed
            > single.metrics.overall.completed
        )
        assert retried.metrics.overall.retries > 0

    def test_retry_exhaustion_still_rejects(self, machine):
        # Backoffs far shorter than a query's service time: the queue is
        # still full at every re-offer, so retries run out and the
        # latecomers are rejected with their retry counts recorded.
        stream = _burst(8, seq_time=50.0)
        result = QueryService(
            machine,
            queue_capacity=1,
            max_inflight_fragments=1,
            retry=RetryPolicy(max_retries=2, base_delay=0.5, max_delay=1.0),
        ).run(stream)
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        assert rejected
        assert result.metrics.overall.retries >= 2

    def test_retries_are_deterministic(self, machine):
        stream = _burst(6, seq_time=5.0)

        def digest():
            service = QueryService(
                machine,
                queue_capacity=1,
                max_inflight_fragments=1,
                retry=RetryPolicy(max_retries=4, base_delay=2.0),
            )
            result = service.run(stream)
            return [
                (o.submission.name, o.status, o.finished_at)
                for o in result.outcomes
            ]

        assert digest() == digest()


class TestGateBreaker:
    def test_breaker_opens_under_shed_storm(self, machine, monkeypatch):
        # A storm of simultaneous arrivals with a tiny queue and no
        # retry: consecutive sheds trip the breaker, which then rejects
        # outright and records the transition in the timeline.
        stream = _burst(12, seq_time=20.0)
        monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 3)
        breaker = CircuitBreaker()
        result = QueryService(
            machine,
            queue_capacity=1,
            max_inflight_fragments=1,
            breaker=breaker,
        ).run(stream)
        states = [state for _, state in result.metrics.breaker_timeline]
        assert states[0] == CLOSED
        assert OPEN in states
        assert breaker.open_rejections > 0

    def test_breaker_timeline_reaches_metrics(self, machine):
        stream = _burst(3, seq_time=5.0)
        result = QueryService(
            machine, breaker=CircuitBreaker()
        ).run(stream)
        assert result.metrics.breaker_timeline[0] == (0.0, CLOSED)

    def test_no_breaker_means_empty_timeline(self, machine):
        result = QueryService(machine).run(_burst(2, seq_time=5.0))
        assert result.metrics.breaker_timeline == []
