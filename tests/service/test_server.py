"""End-to-end tests for the online serving loop."""

from types import SimpleNamespace

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, SchedulingPolicy, make_task
from repro.errors import AdmissionError
from repro.service import (
    AdmissionGate,
    BalanceAwareAdmission,
    FifoAdmission,
    QueryService,
    ServiceSubmission,
    poisson_stream,
)


@pytest.fixture
def machine():
    return paper_machine()


def submission(name, tenant="t0", io_rate=40.0, arrival=0.0, deadline=None,
               n_fragments=1):
    tasks = tuple(
        make_task(
            f"{name}-f{i}",
            io_rate=io_rate,
            seq_time=10.0,
            arrival_time=arrival,
        )
        for i in range(n_fragments)
    )
    return ServiceSubmission(
        name=name,
        tenant=tenant,
        tasks=tasks,
        arrival_time=arrival,
        deadline=deadline,
    )


class TestQueryService:
    def test_light_load_completes_everything(self, machine):
        stream = [submission(f"q{i}", arrival=50.0 * i) for i in range(4)]
        result = QueryService(machine).run(stream)
        assert all(o.status == "completed" for o in result.outcomes)
        overall = result.metrics.overall
        assert overall.offered == 4
        assert overall.completed == 4
        assert overall.rejected == 0
        for outcome in result.outcomes:
            assert outcome.response_time > 0
            assert outcome.queueing_delay >= 0
            assert outcome.finished_at >= outcome.admitted_at

    def test_overload_sheds_and_records_rejection(self, machine):
        # Ten simultaneous arrivals against a queue of one and a single
        # in-flight slot: most must be shed.
        stream = [
            submission(f"q{i}", arrival=0.0, deadline=100.0) for i in range(10)
        ]
        service = QueryService(
            machine, queue_capacity=1, max_inflight_fragments=1
        )
        result = service.run(stream)
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        completed = [o for o in result.outcomes if o.status == "completed"]
        assert rejected and completed
        assert result.metrics.overall.rejected == len(rejected)
        for outcome in rejected:
            assert outcome.rejected_at is not None
            assert outcome.slo_missed  # SLO-tagged and never answered
            with pytest.raises(AdmissionError):
                outcome.response_time
            with pytest.raises(AdmissionError):
                outcome.queueing_delay

    def test_shed_fragments_never_run(self, machine):
        stream = [submission(f"q{i}", arrival=0.0) for i in range(6)]
        service = QueryService(
            machine, queue_capacity=1, max_inflight_fragments=1
        )
        result = service.run(stream)
        ran = {r.task.task_id for r in result.schedule.records}
        for outcome in result.outcomes:
            if outcome.status == "rejected":
                assert all(t.task_id not in ran for t in outcome.submission.tasks)

    def test_inflight_budget_is_respected(self, machine):
        stream = [submission(f"q{i}", arrival=0.0) for i in range(5)]
        service = QueryService(
            machine, queue_capacity=5, max_inflight_fragments=2
        )
        result = service.run(stream)
        # Replay start/finish events: admitted fragments never exceed
        # the budget, which also bounds concurrently running tasks.
        events = []
        for record in result.schedule.records:
            events.append((record.started_at, 1))
            events.append((record.finished_at, -1))
        events.sort()
        live = peak = 0
        for __, delta in events:
            live += delta
            peak = max(peak, live)
        assert peak <= 2

    def test_oversized_bundle_admitted_when_idle(self, machine):
        # A 3-fragment bundle exceeds the budget of 2 but must still be
        # admitted when nothing is in flight (the gate never wedges).
        stream = [submission("big", n_fragments=3)]
        service = QueryService(machine, max_inflight_fragments=2)
        result = service.run(stream)
        assert result.outcome("big").status == "completed"

    def test_deadline_classification(self, machine):
        met = submission("fast", arrival=0.0, deadline=1000.0)
        missed = submission("slow", arrival=0.0, deadline=0.001)
        result = QueryService(machine).run([met, missed])
        assert not result.outcome("fast").slo_missed
        assert result.outcome("slow").slo_missed
        assert result.metrics.overall.slo_miss_rate == pytest.approx(0.5)

    def test_deterministic_across_runs(self, machine):
        stream = poisson_stream(rate=0.1, seed=3)
        first = QueryService(machine).run(stream)
        second = QueryService(machine).run(stream)
        assert first.metrics.to_table() == second.metrics.to_table()

    def test_admission_name_recorded(self, machine):
        stream = [submission("q0")]
        assert QueryService(machine).run(stream).admission_name == "BALANCE"
        fifo = QueryService(machine, admission=FifoAdmission())
        assert fifo.run(stream).admission_name == "FIFO"

    def test_empty_stream_raises(self, machine):
        with pytest.raises(AdmissionError):
            QueryService(machine).run([])

    def test_duplicate_names_raise(self, machine):
        stream = [submission("dup"), submission("dup")]
        with pytest.raises(AdmissionError):
            QueryService(machine).run(stream)

    def test_unknown_outcome_name_raises(self, machine):
        result = QueryService(machine).run([submission("q0")])
        with pytest.raises(AdmissionError):
            result.outcome("nope")

    def test_balance_and_fifo_share_the_engine(self, machine):
        # Same stream, both arms: identical offered counts, both digest
        # into the same metric shape — the A/B the benchmark relies on.
        stream = poisson_stream(rate=0.1, seed=5)
        for admission in (FifoAdmission(), BalanceAwareAdmission()):
            result = QueryService(machine, admission=admission).run(stream)
            assert result.metrics.overall.offered == len(stream)


class _PendingSpy(SchedulingPolicy):
    """An inner policy that places nothing and records what it was shown."""

    def __init__(self):
        self.seen = []

    def decide(self, state):
        self.seen.append(state.pending)
        return []


class TestAdmissionGate:
    def test_gated_pending_follows_admits_cancels_and_completions(
        self, machine
    ):
        a = submission("a", arrival=0.0, deadline=5.0)
        b = submission("b", arrival=10.0)
        c = submission("c", arrival=10.0)
        (ta,), (tb,), (tc,) = a.tasks, b.tasks, c.tasks
        spy = _PendingSpy()
        gate = AdmissionGate(
            inner=spy,
            admission=FifoAdmission(),
            max_inflight_fragments=1,
            deadline_policy="shed",
        )
        gate.load([a, b, c])
        state = SimpleNamespace(
            machine=machine,
            effective_machine=machine,
            completed_ids=set(),
            now=0.0,
            running=[],
            pending=[ta],
        )

        def consult(now):
            state.now = now
            actions = gate.decide(state)
            return spy.seen[-1], actions

        assert consult(0.0)[0] == [ta]
        assert consult(1.0)[0] == [ta]
        # A deadline cancel empties the admitted view.
        after_cancel, actions = consult(6.0)
        assert [action.task for action in actions] == [ta]
        assert after_cancel == []
        # An admit grows it (b takes the only slot, c keeps waiting).
        state.pending = [tb, tc]
        assert consult(10.0)[0] == [tb]
        assert consult(11.0)[0] == [tb]
        # A completion frees the slot: the engine's ready set and the
        # admitted set both move.
        state.completed_ids.add(tb.task_id)
        state.pending = [tc]
        assert consult(12.0)[0] == [tc]
        assert consult(13.0)[0] == [tc]

    def test_the_fast_path_knob_is_gone(self, machine):
        with pytest.raises(TypeError):
            QueryService(machine, fast_path=False)
        with pytest.raises(TypeError):
            AdmissionGate(
                inner=InterWithAdjPolicy(),
                admission=FifoAdmission(),
                fast_path=True,
            )
