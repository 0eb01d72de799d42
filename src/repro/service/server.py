"""The online serving loop: admission gate + scheduler + engine.

:class:`QueryService` turns the closed-batch pipeline into an open
system.  Submissions arrive over time (see
:mod:`repro.service.arrivals`), wait in bounded per-tenant queues, and
are *admitted* into the scheduler a few at a time by an
:class:`~repro.service.admission.AdmissionPolicy`.  Execution is driven
by the existing :class:`~repro.sim.fluid.FluidSimulator` with the
existing :class:`~repro.core.schedulers.InterWithAdjPolicy` unchanged:
the service wraps it in an admission *gate* — a
:class:`~repro.core.schedulers.SchedulingPolicy` that

1. offers newly arrived submissions to the tenant queues, shedding
   load (:class:`~repro.errors.ServiceOverloadError` →
   :class:`~repro.core.schedulers.Shed` actions) when a queue is full;
2. admits waiting submissions while the in-flight fragment budget
   allows, using the configured admission policy to pick which one;
3. delegates to the inner scheduling policy with a *gated view* of the
   engine state whose pending set contains admitted fragments only.

Because the gate runs inside the engine's event loop it reacts online
to every arrival, completion and adjustment, exactly as a live
admission controller would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import MachineConfig, paper_machine
from ..core.schedulers import (
    Action,
    Cancel,
    EngineState,
    InterWithAdjPolicy,
    SchedulingPolicy,
    Shed,
)
from ..core.task import Task
from ..errors import AdmissionError, ServiceOverloadError
from ..faults.breaker import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..sim.fluid import FluidSimulator, ScheduleResult

if TYPE_CHECKING:
    from ..faults.schedule import DiskDegradation
from .admission import AdmissionPolicy, BalanceAwareAdmission
from .metrics import ServiceMetrics, TenantMetrics, utilization_timeline
from .queue import AdmissionQueue, ServiceSubmission

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class SubmissionOutcome:
    """What happened to one submission.

    Attributes:
        submission: the submission itself.
        status: ``"completed"``, ``"rejected"``, ``"deadline"`` (the
            deadline budget expired and the gate cancelled it — in the
            queue or mid-run) or ``"degraded"`` (the gate shed some
            not-yet-started fragments at the deadline but the rest ran
            to completion).
        admitted_at: when the gate released it to the scheduler
            (``None`` if it never got in).
        finished_at: when its last surviving fragment completed
            (``None`` if rejected or deadline-cancelled).
        rejected_at: when it was shed (``None`` if it ran).
        cancelled_at: when the deadline budget cancelled or degraded it
            (``None`` otherwise).
    """

    submission: ServiceSubmission
    status: str
    admitted_at: float | None = None
    finished_at: float | None = None
    rejected_at: float | None = None
    cancelled_at: float | None = None

    @property
    def response_time(self) -> float:
        """Completion minus arrival; raises for rejected submissions."""
        if self.finished_at is None:
            raise AdmissionError(
                self.submission.submission_id,
                "rejected submissions have no response time",
            )
        return self.finished_at - self.submission.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Seconds spent waiting for admission."""
        if self.admitted_at is None:
            raise AdmissionError(
                self.submission.submission_id,
                "rejected submissions have no queueing delay",
            )
        return self.admitted_at - self.submission.arrival_time

    @property
    def slo_missed(self) -> bool:
        """Did an SLO-tagged submission finish past its deadline?

        Rejected SLO-tagged submissions count as misses: the service
        failed to answer inside the deadline either way.
        """
        deadline = self.submission.deadline
        if deadline is None:
            return False
        if self.finished_at is None:
            return True
        return self.finished_at > deadline


@dataclass
class ServiceResult:
    """Full outcome of one service run.

    ``decide_rounds`` counts the gate consults the engine made during
    the run (``service.decide_rounds`` in ``benchmarks/e2e``).  Each
    consult covers *every* arrival due at that virtual instant (the
    engine drains same-timestamp arrivals in one event), so a Poisson
    burst costs one round, not one per submission.
    """

    admission_name: str
    outcomes: list[SubmissionOutcome]
    schedule: ScheduleResult
    metrics: ServiceMetrics
    decide_rounds: int = 0

    @property
    def elapsed(self) -> float:
        """Simulated seconds until the last admitted fragment finished."""
        return self.schedule.elapsed

    def outcome(self, name: str) -> SubmissionOutcome:
        """The outcome of the submission labelled ``name``."""
        for outcome in self.outcomes:
            if outcome.submission.name == name:
                return outcome
        raise AdmissionError(-1, f"no submission named {name!r}")

    def digest(self) -> list:
        """A float.hex-exact digest of everything the run decided.

        Two runs digest equal iff they made the same decisions at the
        same virtual instants: per-submission status and every
        timestamp (admitted/finished/rejected/cancelled), the elapsed
        time and both utilizations, all rendered with ``float.hex`` so
        equality is bit-for-bit, never rounded.  The frozen serve
        corpus (``tests/service/data/serve_corpus.json``) rests on it.
        """
        rows: list = [self.admission_name, float(self.elapsed).hex()]

        def hx(value: float | None) -> str | None:
            return None if value is None else float(value).hex()

        for outcome in self.outcomes:
            rows.append(
                [
                    outcome.submission.name,
                    outcome.submission.tenant,
                    outcome.status,
                    hx(outcome.admitted_at),
                    hx(outcome.finished_at),
                    hx(outcome.rejected_at),
                    hx(outcome.cancelled_at),
                ]
            )
        rows.append(float(self.metrics.cpu_utilization).hex())
        rows.append(float(self.metrics.io_utilization).hex())
        return rows


class _GatedView:
    """Engine state restricted to admitted fragments.

    The inner policy sees the true clock, machine and running set, but
    only the admitted subset of pending tasks — everything else is
    still waiting at the admission gate.  ``banned`` hides running
    tasks the gate is cancelling this round, so the inner policy cannot
    adjust a task that will be gone before its action applies.

    The pending filter is memoized on the gate.  The engine's
    ``state.pending`` is itself memoized and rebuilt as a *fresh list
    object* whenever membership changes, so ``(source list identity,
    allowed-set version)`` keys the filtered view exactly: a hit means
    neither the engine's ready set nor the admitted set moved since the
    last consult, and the previous filtered list (same tasks, same
    order) is still the answer.  The gate holds a reference to the
    source list, so its identity cannot be recycled while the key lives.
    """

    def __init__(
        self,
        state: EngineState,
        gate: "AdmissionGate",
        banned: set[int] | None = None,
    ) -> None:
        self._state = state
        self._gate = gate
        self._banned = banned
        self.machine = state.machine
        self.completed_ids = state.completed_ids
        self.effective_machine = state.effective_machine

    @property
    def now(self) -> float:
        return self._state.now

    @property
    def running(self):
        banned = self._banned
        if not banned:
            return self._state.running
        return [
            r for r in self._state.running if r.task.task_id not in banned
        ]

    @property
    def pending(self) -> list[Task]:
        gate = self._gate
        source = self._state.pending
        if (
            gate._gated_pending_src is source
            and gate._gated_pending_version == gate._allowed_version
        ):
            return gate._gated_pending
        allowed = gate._allowed
        filtered = [t for t in source if t.task_id in allowed]
        gate._gated_pending_src = source
        gate._gated_pending_version = gate._allowed_version
        gate._gated_pending = filtered
        return filtered


class AdmissionGate(SchedulingPolicy):
    """The serving-mode policy wrapper (see the module docstring).

    Args:
        submissions: the full arrival stream, any order.
        inner: the scheduling policy that places admitted fragments
            (the paper's INTER-WITH-ADJ by default).
        admission: queue-selection policy.
        queue_capacity: bound of each tenant's waiting queue.
        max_inflight_fragments: admitted-but-unfinished fragment budget;
            when nothing is in flight one submission is always admitted
            regardless, so an over-sized bundle cannot wedge the gate.
        retry: when set, a shed submission is re-offered after a capped
            exponential backoff (deterministic jitter) instead of being
            rejected on the first full queue; ``None`` keeps the
            pre-hardening single-shot behaviour.
        breaker: when set, a circuit breaker guards the gate: it opens
            after consecutive sheds or under sustained measured
            bandwidth degradation, rejecting offers outright until a
            cooldown probe succeeds; ``None`` disables it.
        deadline_policy: what a submission's ``deadline`` means.
            ``"off"`` (default): a soft SLO tag, recorded but never
            enforced — the pre-recovery behaviour.  ``"kill"``: at the
            deadline every unfinished fragment is cooperatively
            cancelled and the submission's status becomes
            ``"deadline"``.  ``"shed"``: graceful degradation — at the
            deadline not-yet-started fragments are cancelled cheapest
            first while running ones get ``deadline_grace`` extra
            seconds to finish; if they do, the submission completes
            ``"degraded"``, otherwise it is killed at the grace bound.
        deadline_grace: extra virtual seconds ``"shed"`` grants running
            fragments past the deadline before killing them (0 kills
            at the deadline, like ``"kill"`` but shedding cheapest
            pending fragments first).
        tracer: a :class:`~repro.obs.Tracer` recording admission
            decisions (queue-wait spans, backoff/shed instants) at
            virtual time; ``None`` (or the falsy NullTracer) records
            nothing.
    """

    name = "ADMISSION-GATE"

    def __init__(
        self,
        submissions: Sequence[ServiceSubmission],
        *,
        inner: SchedulingPolicy,
        admission: AdmissionPolicy,
        queue_capacity: int = 8,
        max_inflight_fragments: int = 6,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline_policy: str = "off",
        deadline_grace: float = 0.0,
        tracer=None,
    ) -> None:
        if max_inflight_fragments < 1:
            raise AdmissionError(-1, "max_inflight_fragments must be >= 1")
        if deadline_policy not in ("off", "shed", "kill"):
            raise AdmissionError(
                -1,
                f"deadline_policy must be 'off', 'shed' or 'kill', "
                f"not {deadline_policy!r}",
            )
        if deadline_grace < 0:
            raise AdmissionError(-1, "deadline_grace must be >= 0")
        self.inner = inner
        self.admission = admission
        self.queue_capacity = queue_capacity
        self.max_inflight_fragments = max_inflight_fragments
        self.retry = retry
        self.breaker = breaker
        self.deadline_policy = deadline_policy
        self.deadline_grace = deadline_grace
        self.tracer = tracer or None
        self._stream = sorted(
            submissions, key=lambda s: (s.arrival_time, s.submission_id)
        )
        names = [s.name for s in self._stream]
        if len(set(names)) != len(names):
            raise AdmissionError(-1, "duplicate submission names in stream")
        self.reset()

    def reset(self) -> None:
        """Clear all gate state before a fresh run."""
        self.inner.reset()
        self._queue = AdmissionQueue(self.queue_capacity)
        self._cursor = 0
        self._allowed: set[int] = set()
        self._inflight: dict[int, Task] = {}
        self._by_submission: dict[int, ServiceSubmission] = {}
        self.admitted_at: dict[int, float] = {}
        self.rejected_at: dict[int, float] = {}
        #: Submissions killed by their deadline budget (sid -> when).
        self.deadline_cancelled_at: dict[int, float] = {}
        #: Submissions degraded (fragments shed) at their deadline.
        self.degraded_at: dict[int, float] = {}
        #: Task ids cancelled by deadline enforcement.
        self.cancelled_tasks: set[int] = set()
        #: Deferred re-offers: (due_time, submission_id, attempt, submission).
        self._retries: list[tuple[float, int, int, ServiceSubmission]] = []
        #: Retries performed per submission id.
        self.retry_counts: dict[int, int] = {}
        #: Gate consults this run (one per engine event, not per arrival).
        self.decide_rounds = 0
        #: Submission ids currently backing off (mirrors ``_retries``).
        self._retry_sids: set[int] = set()
        #: One-shot deadline instants ``(time, sid)``; entries whose sid
        #: left every gate class are dead and popped lazily.
        self._deadline_heap: list[tuple[float, int]] = []
        #: Admitted-but-unfinished fragments grouped by submission id.
        self._inflight_by_sid: dict[int, list[Task]] = {}
        #: Memo of ``list(self._inflight.values())`` for admission consults.
        self._inflight_list: list[Task] | None = None
        #: Bumped on every ``_allowed`` mutation; keys the gated-view memo.
        self._allowed_version = 0
        self._gated_pending_src: list[Task] | None = None
        self._gated_pending_version = -1
        self._gated_pending: list[Task] = []
        #: Watermark of ``len(state.completed_ids)`` at the last refresh.
        self._completed_seen = 0
        if self.breaker is not None:
            self.breaker.reset()

    # -- gate steps --------------------------------------------------------------

    def _offer_arrivals(self, state: EngineState) -> list[Action]:
        """Queue submissions that arrived by now; shed on overflow."""
        shed: list[Action] = []
        while (
            self._cursor < len(self._stream)
            and self._stream[self._cursor].arrival_time <= state.now + _EPS
        ):
            submission = self._stream[self._cursor]
            self._cursor += 1
            shed.extend(self._offer(submission, 0, state))
        return shed

    def _offer(
        self, submission: ServiceSubmission, attempt: int, state: EngineState
    ) -> list[Action]:
        """One offer of a submission to its tenant queue, breaker-gated."""
        now = state.now
        if self.deadline_policy != "off" and submission.deadline is not None:
            # One-shot enforcement instant; a re-offer pushes a harmless
            # duplicate (same time, popped together).
            heapq.heappush(
                self._deadline_heap,
                (submission.deadline, submission.submission_id),
            )
        if self.breaker is not None and not self.breaker.allow(now):
            if self.tracer is not None:
                self.tracer.instant(
                    f"breaker:reject {submission.name}",
                    t=now,
                    track=f"tenant:{submission.tenant}",
                    cat="admission",
                )
            return self._handle_shed(submission, attempt, state)
        try:
            self._queue.offer(submission, now)
        except ServiceOverloadError:
            if self.breaker is not None:
                self.breaker.record_failure(now)
            return self._handle_shed(submission, attempt, state)
        if self.breaker is not None:
            self.breaker.record_success(now)
        return []

    def _handle_shed(
        self, submission: ServiceSubmission, attempt: int, state: EngineState
    ) -> list[Action]:
        """Backoff-and-retry a shed submission, or reject it for good."""
        tracer = self.tracer
        if self.retry is not None and attempt < self.retry.max_retries:
            due = state.now + self.retry.backoff(
                submission.submission_id, attempt
            )
            heapq.heappush(
                self._retries,
                (due, submission.submission_id, attempt + 1, submission),
            )
            self._retry_sids.add(submission.submission_id)
            self.retry_counts[submission.submission_id] = attempt + 1
            if tracer is not None:
                tracer.instant(
                    f"backoff {submission.name}",
                    t=state.now,
                    track=f"tenant:{submission.tenant}",
                    cat="admission",
                    args={"attempt": attempt + 1, "due": due},
                )
            return []
        self.rejected_at[submission.submission_id] = state.now
        if tracer is not None:
            tracer.instant(
                f"shed {submission.name}",
                t=state.now,
                track=f"tenant:{submission.tenant}",
                cat="admission",
                args={"attempts": attempt + 1},
            )
        return [Shed(task) for task in submission.tasks]

    def _drain_retries(self, state: EngineState) -> list[Action]:
        """Re-offer every submission whose backoff has elapsed."""
        actions: list[Action] = []
        while self._retries and self._retries[0][0] <= state.now + _EPS:
            __, sid, attempt, submission = heapq.heappop(self._retries)
            self._retry_sids.discard(sid)
            actions.extend(self._offer(submission, attempt, state))
        return actions

    def _cancel_instant(
        self, submission: ServiceSubmission, label: str, now: float, n: int
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                f"{label} {submission.name}",
                t=now,
                track=f"tenant:{submission.tenant}",
                cat="deadline",
                args={"deadline": submission.deadline, "fragments": n},
            )

    def _deadline_live(self, sid: int) -> bool:
        """Is this submission still anywhere the deadline budget can act?"""
        return (
            sid in self._queue
            or sid in self._retry_sids
            or sid in self._inflight_by_sid
        )

    def _enforce_deadlines(self, state: EngineState) -> list[Action]:
        """Cancel work whose deadline budget has expired.

        Waiting and backing-off submissions past their deadline are
        dropped without ever running.  Admitted submissions past their
        deadline are killed outright (``"kill"``) or degraded
        (``"shed"``): not-yet-started fragments are cancelled cheapest
        first, running ones get ``deadline_grace`` more virtual seconds
        before they are killed too.  Every cancelled fragment becomes a
        :class:`~repro.core.schedulers.Cancel` action, so the engine
        releases its resources and records a ``CancelRecord`` — no
        wedged rounds, no silent disappearance.

        Enforcement is instant-driven, not a sweep.  The heap holds
        every instant at which it can act: each SLO-tagged submission's
        deadline (pushed at every offer) and, under ``"shed"``, its
        grace bound (pushed at admission).  When no live instant is due
        the pass is provably a no-op and exits in O(1); when one is
        due, only the submissions with due instants are processed, in a
        fixed action order the serve corpus pins: queue drops in FIFO
        order, retry purges in heap-array order, in-flight submissions
        in sid order.  Consuming an instant once is safe because every
        threshold a submission can cross (queue/retry drop at the
        deadline, in-flight kill or shed at the deadline, grace kill at
        deadline + grace) has its own live instant, and between its
        deadline and its grace bound nothing changes for it: its
        waiting set cannot repopulate after the shed and running
        fragments never revert to waiting.  So a processed submission
        either leaves the gate or its only future action is covered by
        its grace instant.
        """
        if self.deadline_policy == "off":
            return []
        now = state.now
        heap = self._deadline_heap
        while heap and not self._deadline_live(heap[0][1]):
            heapq.heappop(heap)
        if not heap or now <= heap[0][0] + _EPS:
            return []
        # Consume every due instant, keeping the live submissions.
        due_sids: set[int] = set()
        while heap and now > heap[0][0] + _EPS:
            __, sid = heapq.heappop(heap)
            if self._deadline_live(sid):
                due_sids.add(sid)
        if not due_sids:
            return []
        actions: list[Action] = []

        def drop(submission: ServiceSubmission, label: str) -> None:
            sid = submission.submission_id
            self.deadline_cancelled_at.setdefault(sid, now)
            self._cancel_instant(
                submission, label, now, submission.n_fragments
            )
            for task in submission.tasks:
                if task.task_id in self.cancelled_tasks:
                    continue
                self.cancelled_tasks.add(task.task_id)
                actions.append(Cancel(task, "deadline"))

        # Queued submissions whose budget ran out before admission: a
        # queued sid's instants are all deadline instants (grace bounds
        # exist only after admission, and admission is one-way), so a
        # due entry proves the submission overdue.  Overdue entries are
        # the oldest waiting submissions, i.e. the FIFO prefix, so the
        # ordered scan stops after roughly as many entries as there are
        # drops rather than walking the whole queue.
        queued_due = {sid for sid in due_sids if sid in self._queue}
        if queued_due:
            overdue_waiting = []
            for entry in self._queue.waiting():
                if entry.submission.submission_id in queued_due:
                    overdue_waiting.append(entry)
                    if len(overdue_waiting) == len(queued_due):
                        break
            for entry in overdue_waiting:
                self._queue.take(entry.submission.submission_id)
                drop(entry.submission, "deadline:drop")
        # Backing-off submissions whose budget ran out mid-retry (each
        # sid has at most one pending retry entry).
        if self._retries:
            overdue = [e for e in self._retries if e[1] in due_sids]
            if overdue:
                over_sids = {e[1] for e in overdue}
                self._retries = [
                    e for e in self._retries if e[1] not in over_sids
                ]
                heapq.heapify(self._retries)
                for __, sid, __attempt, submission in overdue:
                    self._retry_sids.discard(sid)
                    drop(submission, "deadline:drop")
        # Admitted submissions past their budget: kill or degrade.
        inflight_due = [
            sid for sid in sorted(due_sids) if sid in self._inflight_by_sid
        ]
        if not inflight_due:
            return actions
        running_ids = {r.task.task_id for r in state.running}
        for sid in inflight_due:
            unfinished = sorted(
                self._inflight_by_sid[sid],
                key=lambda t: (t.seq_time, t.task_id),
            )
            submission = self._by_submission[unfinished[0].task_id]
            deadline = submission.deadline
            if deadline is None or now <= deadline + _EPS:
                continue
            running = [t for t in unfinished if t.task_id in running_ids]
            waiting = [t for t in unfinished if t.task_id not in running_ids]
            grace_over = now > deadline + self.deadline_grace + _EPS
            if self.deadline_policy == "kill" or not running or grace_over:
                to_cancel = waiting + running
                self.deadline_cancelled_at.setdefault(sid, now)
                label = "deadline:kill"
            else:
                to_cancel = waiting
                if to_cancel:
                    self.degraded_at.setdefault(sid, now)
                label = "deadline:shed"
            if not to_cancel:
                continue
            self._cancel_instant(submission, label, now, len(to_cancel))
            for task in to_cancel:
                self.cancelled_tasks.add(task.task_id)
                self._allowed.discard(task.task_id)
                del self._inflight[task.task_id]
                actions.append(Cancel(task, "deadline"))
            self._allowed_version += 1
            self._inflight_list = None
            cancelled = {t.task_id for t in to_cancel}
            survivors = [
                t
                for t in self._inflight_by_sid[sid]
                if t.task_id not in cancelled
            ]
            if survivors:
                self._inflight_by_sid[sid] = survivors
            else:
                del self._inflight_by_sid[sid]
        return actions

    def next_wakeup(self, now: float) -> float | None:
        """Earliest live retry or deadline instant, so the engine wakes us."""
        times: list[float] = []
        if self._retries:
            times.append(self._retries[0][0])
        if self.deadline_policy != "off" and self._deadline_heap:
            heap = self._deadline_heap
            # Ascending pops: the first live entry past now is the min
            # deadline wake.  Live-but-boundary entries (within _EPS of
            # now, not yet consumable) are pushed back untouched.
            buffered: list[tuple[float, int]] = []
            while heap:
                t, sid = heap[0]
                if not self._deadline_live(sid):
                    heapq.heappop(heap)
                    continue
                # Nudged past the instant so the `now > deadline`
                # comparison in the enforcement pass is already true
                # when we wake.
                if t + 2 * _EPS > now + _EPS:
                    times.append(t + 2 * _EPS)
                    break
                buffered.append(heapq.heappop(heap))
            for entry in buffered:
                heapq.heappush(heap, entry)
        future = [t for t in times if t > now + _EPS]
        return min(future) if future else None

    def _refresh_inflight(self, state: EngineState) -> None:
        """Drop completed fragments from the in-flight set.

        Watermarked on ``len(state.completed_ids)``: the scan runs only
        when something completed since the last consult.
        """
        completed = state.completed_ids
        if len(completed) == self._completed_seen:
            return
        self._completed_seen = len(completed)
        done = [tid for tid in self._inflight if tid in completed]
        if not done:
            return
        for tid in done:
            del self._inflight[tid]
            sid = self._by_submission[tid].submission_id
            tasks = self._inflight_by_sid.get(sid)
            if tasks is not None:
                tasks[:] = [t for t in tasks if t.task_id != tid]
                if not tasks:
                    del self._inflight_by_sid[sid]
        self._inflight_list = None

    def _admit(self, state: EngineState) -> None:
        """Release waiting submissions while the fragment budget allows."""
        queue = self._queue
        inflight = self._inflight
        while True:
            if not len(queue):
                return
            budget = self.max_inflight_fragments - len(inflight)
            # The policy's ``head_window`` bounds how deep into the
            # FIFO prefix it can ever look, so building more than that
            # many qualifying candidates is wasted work; truncating the
            # *filtered* list preserves the exact entries (and indices)
            # the policy would have examined.
            hw = self.admission.head_window
            if inflight:
                if budget < 1:
                    return  # every bundle has >= 1 fragment: no candidates
                candidates = []
                for entry in queue.waiting():
                    if entry.submission.n_fragments <= budget:
                        candidates.append(entry)
                        if hw is not None and len(candidates) >= hw:
                            break
            else:
                # Never wedge: an empty machine always takes one query.
                waiting = queue.waiting()
                candidates = waiting if hw is None else waiting[:hw]
            if not candidates:
                return
            if self._inflight_list is None:
                self._inflight_list = list(inflight.values())
            choice = self.admission.select(
                candidates, self._inflight_list, state.machine
            )
            if choice is None:
                return
            submission = queue.take(choice.submission_id)
            sid = submission.submission_id
            self.admitted_at[sid] = state.now
            if self.tracer is not None:
                self.tracer.span(
                    f"queue-wait {submission.name}",
                    t=submission.arrival_time,
                    dur=state.now - submission.arrival_time,
                    track=f"tenant:{submission.tenant}",
                    cat="admission",
                    args={"fragments": submission.n_fragments},
                )
            for task in submission.tasks:
                self._allowed.add(task.task_id)
                inflight[task.task_id] = task
                self._by_submission[task.task_id] = submission
            self._allowed_version += 1
            self._inflight_list = None
            self._inflight_by_sid[sid] = list(submission.tasks)
            if (
                self.deadline_policy == "shed"
                and submission.deadline is not None
            ):
                heapq.heappush(
                    self._deadline_heap,
                    (submission.deadline + self.deadline_grace, sid),
                )

    def decide(self, state: EngineState) -> list[Action]:
        """One gate round: offer, admit, then let the scheduler place.

        One round covers every arrival due at this virtual instant —
        the engine drains same-timestamp arrivals into a single event
        and :meth:`_offer_arrivals` offers the whole burst before the
        admission policy is consulted once.
        """
        self.decide_rounds += 1
        if self.breaker is not None:
            if state.machine.io_bandwidth > 0:
                self.breaker.observe_bandwidth(
                    state.now,
                    state.effective_machine.io_bandwidth
                    / state.machine.io_bandwidth,
                )
        actions = self._drain_retries(state)
        actions.extend(self._offer_arrivals(state))
        self._refresh_inflight(state)
        cancelled_now = len(actions)
        actions.extend(self._enforce_deadlines(state))
        banned = {
            a.task.task_id
            for a in actions[cancelled_now:]
            if isinstance(a, Cancel)
        }
        self._admit(state)
        actions.extend(self.inner.decide(_GatedView(state, self, banned)))
        return actions


class QueryService:
    """An open multi-tenant query service over the fluid engine.

    Args:
        machine: machine configuration (defaults to the paper machine).
        admission: admission policy (defaults to balance-aware).
        scheduler: inner scheduling policy (defaults to the paper's
            INTER-WITH-ADJ, unchanged).
        queue_capacity: per-tenant waiting-queue bound.
        max_inflight_fragments: admitted-but-unfinished fragment budget.
        timeline_bucket: bucket width (seconds) of the utilization
            timeline attached to the metrics; ``None`` skips it.
        retry: shed-retry policy handed to the gate (``None`` = off).
        breaker: admission circuit breaker (``None`` = off).
        deadline_policy: end-to-end deadline enforcement — ``"off"``
            (deadlines stay soft SLO tags), ``"kill"`` (cancel every
            unfinished fragment at the deadline) or ``"shed"`` (shed
            cheapest not-yet-started fragments at the deadline, kill
            the rest after ``deadline_grace``).  See
            :class:`AdmissionGate`.
        deadline_grace: extra virtual seconds ``"shed"`` grants running
            fragments past their deadline.
        degradations: scheduled disk-bandwidth degradation windows,
            applied by the fluid engine and observed by the breaker.
        tracer: a :class:`~repro.obs.Tracer` threaded into the gate
            and the fluid engine; ``None`` (or the falsy NullTracer)
            records nothing.
        metrics: a :class:`~repro.obs.MetricsRegistry` the digest step
            populates with ``service.*`` counters, histograms and the
            breaker-state series; ``None`` skips it.
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        *,
        admission: AdmissionPolicy | None = None,
        scheduler: SchedulingPolicy | None = None,
        queue_capacity: int = 8,
        max_inflight_fragments: int = 6,
        timeline_bucket: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline_policy: str = "off",
        deadline_grace: float = 0.0,
        degradations: "Sequence[DiskDegradation] | None" = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.machine = machine or paper_machine()
        self.admission = admission or BalanceAwareAdmission()
        self.scheduler = scheduler or InterWithAdjPolicy()
        self.queue_capacity = queue_capacity
        self.max_inflight_fragments = max_inflight_fragments
        self.timeline_bucket = timeline_bucket
        self.retry = retry
        self.breaker = breaker
        self.deadline_policy = deadline_policy
        self.deadline_grace = deadline_grace
        self.degradations = tuple(degradations or ())
        self.tracer = tracer or None
        self.metrics = metrics
        self._submitted: list[ServiceSubmission] = []

    def submit(
        self,
        name: str,
        tasks: Sequence[Task],
        *,
        tenant: str = "default",
        arrival_time: float = 0.0,
        deadline: float | None = None,
        relative_deadline: float | None = None,
    ) -> ServiceSubmission:
        """Queue one submission for the next :meth:`run_submitted`.

        The deadline budget enters here: ``deadline`` is an absolute
        virtual time, ``relative_deadline`` is seconds after arrival;
        give at most one.  With ``deadline_policy="off"`` the deadline
        is a soft SLO tag; otherwise the gate enforces it end to end.
        """
        if deadline is not None and relative_deadline is not None:
            raise AdmissionError(
                -1, "give deadline or relative_deadline, not both"
            )
        if relative_deadline is not None:
            deadline = arrival_time + relative_deadline
        submission = ServiceSubmission(
            name=name,
            tenant=tenant,
            tasks=tuple(tasks),
            arrival_time=arrival_time,
            deadline=deadline,
        )
        self._submitted.append(submission)
        return submission

    def run_submitted(self) -> ServiceResult:
        """Serve everything queued by :meth:`submit`, then clear it."""
        submissions, self._submitted = self._submitted, []
        return self.run(submissions)

    def run(
        self, submissions: Sequence[ServiceSubmission]
    ) -> ServiceResult:
        """Serve one arrival stream to completion and digest the trace."""
        if not submissions:
            raise AdmissionError(-1, "empty submission stream")
        gate = AdmissionGate(
            submissions,
            inner=self.scheduler,
            admission=self.admission,
            queue_capacity=self.queue_capacity,
            max_inflight_fragments=self.max_inflight_fragments,
            retry=self.retry,
            breaker=self.breaker,
            deadline_policy=self.deadline_policy,
            deadline_grace=self.deadline_grace,
            tracer=self.tracer,
        )
        pooled = [task for s in submissions for task in s.tasks]
        simulator = FluidSimulator(
            self.machine,
            degradations=self.degradations or None,
            tracer=self.tracer,
        )
        schedule = simulator.run(pooled, gate)
        outcomes = self._collect(submissions, gate, schedule)
        metrics = self._digest(outcomes, schedule, gate)
        return ServiceResult(
            admission_name=self.admission.name,
            outcomes=outcomes,
            schedule=schedule,
            metrics=metrics,
            decide_rounds=gate.decide_rounds,
        )

    # -- digestion ----------------------------------------------------------------

    @staticmethod
    def _collect(
        submissions: Sequence[ServiceSubmission],
        gate: AdmissionGate,
        schedule: ScheduleResult,
    ) -> list[SubmissionOutcome]:
        finished: dict[int, float] = {}
        for record in schedule.records:
            finished[record.task.task_id] = record.finished_at
        outcomes = []
        for submission in sorted(
            submissions, key=lambda s: (s.arrival_time, s.submission_id)
        ):
            sid = submission.submission_id
            if sid in gate.rejected_at:
                outcomes.append(
                    SubmissionOutcome(
                        submission=submission,
                        status="rejected",
                        rejected_at=gate.rejected_at[sid],
                    )
                )
                continue
            if sid in gate.deadline_cancelled_at or sid in gate.degraded_at:
                ends = [
                    finished.get(t.task_id)
                    for t in submission.tasks
                    if t.task_id not in gate.cancelled_tasks
                ]
                if (
                    sid in gate.deadline_cancelled_at
                    or not ends
                    or any(e is None for e in ends)
                ):
                    outcomes.append(
                        SubmissionOutcome(
                            submission=submission,
                            status="deadline",
                            admitted_at=gate.admitted_at.get(sid),
                            cancelled_at=gate.deadline_cancelled_at.get(
                                sid, gate.degraded_at.get(sid)
                            ),
                        )
                    )
                else:
                    outcomes.append(
                        SubmissionOutcome(
                            submission=submission,
                            status="degraded",
                            admitted_at=gate.admitted_at[sid],
                            finished_at=max(ends),
                            cancelled_at=gate.degraded_at[sid],
                        )
                    )
                continue
            ends = [finished.get(t.task_id) for t in submission.tasks]
            if any(e is None for e in ends):
                raise AdmissionError(
                    sid, "admitted submission did not run to completion"
                )
            outcomes.append(
                SubmissionOutcome(
                    submission=submission,
                    status="completed",
                    admitted_at=gate.admitted_at[sid],
                    finished_at=max(ends),
                )
            )
        return outcomes

    def _digest(
        self,
        outcomes: list[SubmissionOutcome],
        schedule: ScheduleResult,
        gate: AdmissionGate,
    ) -> ServiceMetrics:
        tenants: dict[str, TenantMetrics] = {}
        for outcome in outcomes:
            submission = outcome.submission
            tm = tenants.setdefault(
                submission.tenant, TenantMetrics(tenant=submission.tenant)
            )
            tm.offered += 1
            tm.retries += gate.retry_counts.get(submission.submission_id, 0)
            if outcome.status == "rejected":
                tm.rejected += 1
            elif outcome.status == "deadline":
                tm.deadline_cancelled += 1
                if outcome.admitted_at is not None:
                    tm.admitted += 1
            else:
                tm.admitted += 1
                tm.completed += 1
                if outcome.status == "degraded":
                    tm.degraded += 1
                tm.response_times.append(outcome.response_time)
            if submission.deadline is not None:
                tm.slo_tagged += 1
                if outcome.slo_missed:
                    tm.slo_misses += 1
        timeline = (
            utilization_timeline(schedule, bucket=self.timeline_bucket)
            if self.timeline_bucket is not None
            else []
        )
        metrics = ServiceMetrics(
            admission_name=self.admission.name,
            elapsed=schedule.elapsed,
            tenants=tenants,
            cpu_utilization=schedule.cpu_utilization,
            io_utilization=schedule.io_utilization,
            utilization_timeline=timeline,
            breaker_timeline=(
                list(gate.breaker.timeline) if gate.breaker is not None else []
            ),
        )
        if self.metrics is not None:
            self._publish(outcomes, metrics.overall, gate, self.metrics)
        return metrics

    @staticmethod
    def _publish(
        outcomes: list[SubmissionOutcome],
        totals: TenantMetrics,
        gate: AdmissionGate,
        registry,
    ) -> None:
        """Fold the run's outcomes into a unified metrics registry.

        Populates ``service.*`` counters (offered/admitted/rejected/
        completed/retries) from the tenant totals the digest step just
        classified, the response-time and queue-wait histograms (one
        batch each, in outcome order) and the breaker-state series on
        the given :class:`~repro.obs.MetricsRegistry`.
        """
        registry.counter("service.offered").inc(totals.offered)
        registry.counter("service.admitted").inc(totals.admitted)
        registry.counter("service.rejected").inc(totals.rejected)
        registry.counter("service.completed").inc(totals.completed)
        registry.counter("service.retries").inc(totals.retries)
        registry.counter("service.deadline_cancels").inc(
            totals.deadline_cancelled
        )
        registry.counter("service.degraded").inc(totals.degraded)
        finished = [o for o in outcomes if o.finished_at is not None]
        registry.histogram("service.response_time").observe_many(
            [o.response_time for o in finished]
        )
        registry.histogram("service.queue_wait").observe_many(
            [o.queueing_delay for o in finished]
        )
        if gate.breaker is not None:
            series = registry.series("service.breaker_state")
            for t, name in gate.breaker.timeline:
                series.append(t, name)
