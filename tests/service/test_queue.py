"""Tests for submissions and the gate's bounded per-tenant queues."""

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, make_task
from repro.errors import AdmissionError
from repro.obs import Tracer
from repro.service import (
    AdmissionGate,
    FifoAdmission,
    QueryService,
    ServiceSubmission,
)


def submission(
    name="q", tenant="t0", io_rate=40.0, arrival=0.0, deadline=None, seq_time=10.0
):
    task = make_task(f"{name}-frag", io_rate=io_rate, seq_time=seq_time)
    return ServiceSubmission(
        name=name,
        tenant=tenant,
        tasks=(task.with_arrival(arrival),),
        arrival_time=arrival,
        deadline=deadline,
    )


class TestServiceSubmission:
    def test_properties(self):
        s = submission(io_rate=40.0)
        assert s.n_fragments == 1
        assert s.total_seq_time == pytest.approx(10.0)
        assert s.total_io_count == pytest.approx(400.0)
        assert s.io_rate == pytest.approx(40.0)

    def test_bundle_io_rate_is_work_weighted(self):
        io = make_task("io", io_rate=50.0, seq_time=30.0)
        cpu = make_task("cpu", io_rate=10.0, seq_time=10.0)
        s = ServiceSubmission(name="q", tenant="t0", tasks=(io, cpu))
        # (50*30 + 10*10) / 40 = 40 — not the unweighted mean 30.
        assert s.io_rate == pytest.approx(40.0)

    def test_empty_bundle_rejected(self):
        with pytest.raises(AdmissionError):
            ServiceSubmission(name="q", tenant="t0", tasks=())

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(AdmissionError):
            submission(arrival=5.0, deadline=4.0)

    def test_ids_are_unique(self):
        assert submission().submission_id != submission().submission_id


class TestAdmissionQueue:
    """The gate's waiting queue: global FIFO order, a per-tenant bound."""

    @staticmethod
    def serve(stream, **kwargs):
        kwargs.setdefault("admission", FifoAdmission())
        kwargs.setdefault("max_inflight_fragments", 1)
        service = QueryService(paper_machine(), **kwargs)
        return {o.submission.name: o for o in service.run(stream).outcomes}

    def test_global_fifo_across_tenants(self):
        # Round-robin over tenants would admit c before b.
        stream = [
            submission("a", tenant="t0"),
            submission("b", tenant="t0"),
            submission("c", tenant="t1"),
            submission("d", tenant="t0"),
        ]
        outcomes = self.serve(stream, queue_capacity=3)
        assert {o.status for o in outcomes.values()} == {"completed"}
        admitted = sorted(outcomes, key=lambda n: outcomes[n].admitted_at)
        assert admitted == ["a", "b", "c", "d"]

    def test_overflow_sheds_with_typed_error(self):
        # The shed is a "rejected" outcome naming the submission, and a
        # shed instant on its tenant's track.
        tracer = Tracer()
        first = submission("a", tenant="t0")
        extra = submission("b", tenant="t0")
        stream = [
            first,
            extra,
            submission("c", tenant="t1"),
        ]
        outcomes = self.serve(stream, queue_capacity=1, tracer=tracer)
        assert outcomes["b"].status == "rejected"
        assert outcomes["b"].rejected_at == 0.0
        assert outcomes["b"].submission.submission_id == extra.submission_id
        assert outcomes["b"].submission.tenant == "t0"
        # Another tenant's offer still queues.
        assert outcomes["a"].status == outcomes["c"].status == "completed"
        sheds = [
            (e.name, e.track)
            for e in tracer.events
            if e.kind == "instant" and e.name.startswith("shed ")
        ]
        assert sheds == [("shed b", "tenant:t0")]

    def test_admission_frees_a_slot(self):
        # a is admitted at once, so b finds t0's one slot free; c
        # arrives while b waits and is shed.
        stream = [
            submission("a", tenant="t0", seq_time=100.0),
            submission("b", tenant="t0", arrival=1.0),
            submission("c", tenant="t0", arrival=2.0),
        ]
        outcomes = self.serve(stream, queue_capacity=1)
        assert outcomes["b"].status == "completed"
        assert outcomes["c"].status == "rejected"

    def test_deadline_drop_frees_a_slot(self):
        # b waits behind a and is dropped at its deadline; c then finds
        # t0's one slot free.
        stream = [
            submission("a", tenant="t0", seq_time=100.0),
            submission("b", tenant="t0", arrival=1.0, deadline=5.0),
            submission("c", tenant="t0", arrival=6.0),
        ]
        outcomes = self.serve(
            stream, queue_capacity=1, deadline_policy="shed"
        )
        assert outcomes["b"].status == "deadline"
        assert outcomes["b"].admitted_at is None
        assert outcomes["c"].status == "completed"

    def test_removal_keeps_the_order_of_the_rest(self):
        # c is dropped from the middle of the queue at its deadline;
        # b and d keep their order behind it.
        stream = [
            submission("a", tenant="t0", seq_time=100.0),
            submission("b", tenant="t1", arrival=1.0),
            submission("c", tenant="t0", arrival=2.0, deadline=5.0),
            submission("d", tenant="t1", arrival=3.0),
        ]
        outcomes = self.serve(
            stream, queue_capacity=3, deadline_policy="shed"
        )
        assert outcomes["c"].status == "deadline"
        ran = [n for n in "abd" if outcomes[n].status == "completed"]
        assert sorted(ran, key=lambda n: outcomes[n].admitted_at) == list("abd")

    def test_choice_not_waiting_raises(self):
        stray = submission("stray")

        class Stray(FifoAdmission):
            def select(self, waiting, inflight, machine):
                return stray

        with pytest.raises(AdmissionError, match="not waiting"):
            self.serve([submission("a")], admission=Stray())

    def test_capacity_must_be_positive(self):
        with pytest.raises(AdmissionError, match="queue_capacity"):
            AdmissionGate(
                inner=InterWithAdjPolicy(),
                admission=FifoAdmission(),
                queue_capacity=0,
            )
