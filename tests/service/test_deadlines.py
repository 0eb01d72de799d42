"""Tests for end-to-end deadline budgets in the serving loop.

The deadline enters at admission (``QueryService.submit``), flows with
the submission through the gate, and — under ``deadline_policy="shed"``
— triggers cooperative cancellation in the engine: clean ``Cancel``
actions, resources released, every fragment accounted as completed or
cancelled, never a wedged run.  At zero grace (``TestKillPolicy``)
every unfinished fragment is cancelled at the deadline.
"""

import heapq

import pytest

from repro.config import paper_machine
from repro.core import make_task
from repro.errors import AdmissionError
from repro.obs import Tracer
from repro.service import (
    ArrivalConfig,
    QueryService,
    ServiceSubmission,
    poisson_stream,
)


@pytest.fixture
def machine():
    return paper_machine()


def _service(machine, policy="shed", grace=0.0, **kwargs):
    return QueryService(
        machine,
        deadline_policy=policy,
        deadline_grace=grace,
        **kwargs,
    )


def _pipe_tasks(name):
    """Two dependent fragments: b cannot start until a completes."""
    a = make_task(f"{name}-a", io_rate=40.0, seq_time=30.0)
    b = make_task(f"{name}-b", io_rate=40.0, seq_time=30.0)
    return [a, b.with_dependencies({a.task_id})]


class TestSubmitApi:
    def test_submit_builds_and_run_submitted_clears(self, machine):
        service = _service(machine, policy="off")
        sub = service.submit(
            "q0", [make_task("q0-f0", io_rate=40.0, seq_time=5.0)]
        )
        assert isinstance(sub, ServiceSubmission)
        result = service.run_submitted()
        assert result.outcome("q0").status == "completed"
        # The queue of pending submissions was consumed.
        with pytest.raises(AdmissionError):
            service.run_submitted()

    def test_relative_deadline_is_anchored_at_arrival(self, machine):
        service = _service(machine, policy="off")
        sub = service.submit(
            "q0",
            [make_task("q0-f0", io_rate=40.0, seq_time=5.0)],
            arrival_time=10.0,
            relative_deadline=3.0,
        )
        assert sub.deadline == pytest.approx(13.0)

    def test_bad_policy_and_grace_rejected(self, machine):
        # An invalid gate configuration fails at construction, not at
        # the service's first run.
        with pytest.raises(AdmissionError, match="deadline_policy"):
            _service(machine, policy="maybe")
        with pytest.raises(AdmissionError, match="deadline_grace"):
            _service(machine, grace=-1.0)
        with pytest.raises(AdmissionError, match="max_inflight_fragments"):
            _service(machine, max_inflight_fragments=0)


class TestOffPolicy:
    def test_deadline_stays_a_soft_slo_tag(self, machine):
        service = _service(machine, policy="off")
        service.submit(
            "slow",
            [make_task("slow-f0", io_rate=40.0, seq_time=30.0)],
            relative_deadline=1.0,
        )
        result = service.run_submitted()
        outcome = result.outcome("slow")
        assert outcome.status == "completed"
        assert outcome.slo_missed
        assert result.schedule.cancel_records == []
        assert result.metrics.overall.deadline_cancelled == 0


class TestKillPolicy:
    def test_running_submission_killed_at_deadline(self, machine):
        service = _service(machine)
        service.submit(
            "doomed",
            [make_task("doomed-f0", io_rate=40.0, seq_time=60.0)],
            relative_deadline=2.0,
        )
        service.submit(
            "fine", [make_task("fine-f0", io_rate=40.0, seq_time=5.0)]
        )
        result = service.run_submitted()
        doomed = result.outcome("doomed")
        assert doomed.status == "deadline"
        assert doomed.finished_at is None
        assert doomed.cancelled_at == pytest.approx(2.0, abs=1e-6)
        assert doomed.slo_missed
        assert result.outcome("fine").status == "completed"
        names = [c.task.name for c in result.schedule.cancel_records]
        assert names == ["doomed-f0"]
        tm = result.metrics.overall
        assert tm.deadline_cancelled == 1
        assert tm.completed == 1

    def test_queued_submission_dropped_at_deadline(self, machine):
        service = _service(machine, max_inflight_fragments=1)
        service.submit(
            "hog", [make_task("hog-f0", io_rate=40.0, seq_time=60.0)]
        )
        service.submit(
            "starved",
            [
                make_task(f"starved-f{i}", io_rate=40.0, seq_time=60.0)
                for i in range(2)
            ],
            relative_deadline=2.0,
        )
        result = service.run_submitted()
        starved = result.outcome("starved")
        assert starved.status == "deadline"
        assert starved.admitted_at is None
        # Both never-started fragments were cancelled out of the engine.
        assert len(result.schedule.cancel_records) == 2
        assert all(
            c.started_at is None for c in result.schedule.cancel_records
        )

    def test_every_fragment_accounted(self, machine):
        service = _service(machine)
        service.submit("pipe", _pipe_tasks("pipe"), relative_deadline=2.0)
        service.submit(
            "ok", [make_task("ok-f0", io_rate=40.0, seq_time=5.0)]
        )
        result = service.run_submitted()
        done = {r.task.name for r in result.schedule.records}
        cancelled = {c.task.name for c in result.schedule.cancel_records}
        assert not (done & cancelled)
        assert done | cancelled == {"pipe-a", "pipe-b", "ok-f0"}


class TestShedPolicy:
    def test_degraded_completion_inside_grace(self, machine):
        service = _service(machine, policy="shed", grace=30.0)
        service.submit("pipe", _pipe_tasks("pipe"), relative_deadline=3.0)
        result = service.run_submitted()
        outcome = result.outcome("pipe")
        assert outcome.status == "degraded"
        assert outcome.finished_at is not None
        assert outcome.cancelled_at == pytest.approx(3.0, abs=1e-6)
        # Only the not-yet-started dependent was shed.
        names = [c.task.name for c in result.schedule.cancel_records]
        assert names == ["pipe-b"]
        tm = result.metrics.overall
        assert tm.degraded == 1
        assert tm.completed == 1
        assert tm.deadline_cancelled == 0

    def test_grace_expiry_kills_the_rest(self, machine):
        service = _service(machine, policy="shed", grace=1.0)
        service.submit("pipe", _pipe_tasks("pipe"), relative_deadline=3.0)
        result = service.run_submitted()
        outcome = result.outcome("pipe")
        assert outcome.status == "deadline"
        assert outcome.finished_at is None
        names = [c.task.name for c in result.schedule.cancel_records]
        assert names == ["pipe-b", "pipe-a"]
        assert result.metrics.overall.deadline_cancelled == 1

    def test_deterministic_across_runs(self, machine):
        def run():
            service = _service(machine, policy="shed", grace=1.0)
            service.submit(
                "pipe", _pipe_tasks("pipe"), relative_deadline=3.0
            )
            service.submit(
                "ok", [make_task("ok-f0", io_rate=40.0, seq_time=5.0)]
            )
            return service.run_submitted()

        first, second = run(), run()
        assert first.metrics.to_table() == second.metrics.to_table()
        assert [
            (c.task.name, c.cancelled_at)
            for c in first.schedule.cancel_records
        ] == [
            (c.task.name, c.cancelled_at)
            for c in second.schedule.cancel_records
        ]


class TestDeadlineInstants:
    def test_zero_grace_pushes_one_instant_per_offer(self, machine, monkeypatch):
        """At zero grace a submission's grace bound is its deadline, so
        admission pushes no second, identical instant."""
        stream = poisson_stream(
            rate=2.0,
            seed=0,
            config=ArrivalConfig(n_submissions=200, tenant_max_pages=(300, 300)),
            machine=machine,
        )
        service = _service(machine, policy="shed")
        pushed = []
        real = heapq.heappush

        def push(heap, item):
            if heap is service.gate._deadline_heap:
                pushed.append(item)
            real(heap, item)

        monkeypatch.setattr(heapq, "heappush", push)
        result = service.run(stream)
        assert result.metrics.overall.deadline_cancelled > 0
        tagged = [s for s in stream if s.deadline is not None]
        assert len(tagged) == 200
        assert len(pushed) == len(set(pushed)) == len(tagged)


class TestErrorExitPaths:
    """Satellite: the service's failure modes raise, not wedge."""

    def test_overflow_without_retry_rejects(self, machine):
        service = QueryService(
            machine, queue_capacity=1, max_inflight_fragments=1
        )
        for i in range(4):
            service.submit(
                f"q{i}",
                [make_task(f"q{i}-f0", io_rate=40.0, seq_time=60.0)],
            )
        result = service.run_submitted()
        statuses = [o.status for o in result.outcomes]
        assert "rejected" in statuses
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        for outcome in rejected:
            assert outcome.rejected_at is not None
            with pytest.raises(AdmissionError):
                outcome.response_time

    def test_retry_exhaustion_still_rejects(self, machine, monkeypatch):
        from repro.faults import retry as retry_module
        from repro.faults.retry import RetryPolicy

        monkeypatch.setattr(retry_module, "JITTER", 0.0)
        service = QueryService(
            machine,
            queue_capacity=1,
            max_inflight_fragments=1,
            retry=RetryPolicy(max_retries=2, base_delay=0.1),
        )
        for i in range(4):
            service.submit(
                f"q{i}",
                [make_task(f"q{i}-f0", io_rate=40.0, seq_time=60.0)],
            )
        result = service.run_submitted()
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        assert rejected, "sustained overload must eventually reject"
        assert result.metrics.overall.retries > 0

    def test_queue_overflow_error_carries_tenant(self, machine):
        tracer = Tracer()
        service = QueryService(
            machine, queue_capacity=1, max_inflight_fragments=1, tracer=tracer
        )
        for name in "ab":
            service.submit(
                name,
                [make_task(f"{name}-f0", io_rate=40.0, seq_time=1.0)],
                tenant="t0",
            )
        result = service.run_submitted()
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        assert [o.submission.tenant for o in rejected] == ["t0"]
        sheds = [
            e.track
            for e in tracer.events
            if e.kind == "instant" and e.name.startswith("shed ")
        ]
        assert sheds == ["tenant:t0"]

    def test_empty_stream_raises_admission_error(self, machine):
        with pytest.raises(AdmissionError, match="empty submission stream"):
            QueryService(machine).run([])
