"""Tests for the hardened gate: retry backoff and the circuit breaker."""

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, make_task
from repro.faults import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    DiskDegradation,
    FaultSchedule,
    RetryPolicy,
)
from repro.service import QueryService, ServiceSubmission
from repro.service.admission import BalanceAwareAdmission
from repro.service.gate import AdmissionGate
from repro.sim import MicroSimulator, spec_for_io_rate


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
    def test_breaker_opens_under_shed_storm(self, machine):
        # A storm of simultaneous arrivals with a tiny queue and no
        # retry: consecutive sheds trip the breaker, which then rejects
        # outright and records the transition in the timeline.
        stream = _burst(12, seq_time=20.0)
        breaker = CircuitBreaker(failure_threshold=3, cooldown=30.0)
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
            machine, breaker=CircuitBreaker(failure_threshold=4)
        ).run(stream)
        assert result.metrics.breaker_timeline[0] == (0.0, CLOSED)
        table = result.metrics.breaker_table()
        assert "breaker" in table

    def test_no_breaker_means_empty_timeline(self, machine):
        result = QueryService(machine).run(_burst(2, seq_time=5.0))
        assert result.metrics.breaker_timeline == []

    @staticmethod
    def _breaker_timeline_on_micro(machine, faults=None):
        """A light stream through a breaker-guarded gate on the micro
        engine, whose disks measure what fault injection degrades;
        ``QueryService`` runs the fluid engine, which has no disk
        health, so its breaker always sees the nominal bandwidth."""
        stream = []
        for i in range(4):
            task = spec_for_io_rate(
                f"q{i}-f0", machine, io_rate=30.0, n_pages=400,
                arrival_time=80.0 * i,
            ).to_task(machine)
            stream.append(
                ServiceSubmission(
                    name=f"q{i}", tenant="t0", tasks=(task,),
                    arrival_time=80.0 * i,
                )
            )
        breaker = CircuitBreaker(
            failure_threshold=100,  # reactive path effectively off
            cooldown=30.0,
            degraded_fraction=0.6,
            degraded_grace=10.0,
        )
        gate = AdmissionGate(
            stream,
            inner=InterWithAdjPolicy(),
            admission=BalanceAwareAdmission(),
            breaker=breaker,
        )
        pooled = [task for s in stream for task in s.tasks]
        MicroSimulator(machine, faults=faults).run(pooled, gate)
        return breaker.timeline

    def test_sustained_degradation_trips_proactively(self, machine):
        # Disks at 30% bandwidth for the whole run and a light stream:
        # no queue ever overflows, yet the breaker opens on the measured
        # bandwidth alone, at the second arrival.
        faults = FaultSchedule(
            tuple(
                DiskDegradation(disk=d, start=0.0, duration=10_000.0, factor=0.3)
                for d in range(machine.disks)
            )
        )
        timeline = self._breaker_timeline_on_micro(machine, faults)
        assert (80.0, OPEN) in timeline

    def test_healthy_run_never_trips_proactively(self, machine):
        assert self._breaker_timeline_on_micro(machine) == [(0.0, CLOSED)]
