"""The admission gate: many users' submissions over one scheduler.

:class:`AdmissionGate` is a
:class:`~repro.core.schedulers.SchedulingPolicy` that wraps the
scheduler the engine runs (the paper's INTER-WITH-ADJ by default) and
mixes the fragments of many users' queries into it.  At each engine
consult it

1. queues newly arrived submissions, at most ``queue_capacity`` per
   tenant, shedding load (:class:`~repro.core.schedulers.Shed`
   actions) when a tenant's queue is full;
2. admits waiting submissions while the in-flight fragment budget
   allows, using the configured
   :class:`~repro.service.admission.AdmissionPolicy` to pick which one;
3. delegates to the inner scheduling policy with a *gated view* of the
   engine state whose pending set contains admitted fragments only.

Because the gate runs inside the engine's event loop it reacts online
to every arrival, completion and adjustment, exactly as a live
admission controller would.  After a run, :meth:`AdmissionGate.outcomes`
reports each submission's fate as a :class:`SubmissionOutcome`.
:class:`~repro.service.server.QueryService` builds one gate and runs it
on the fluid engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..core.schedulers import (
    Action,
    Cancel,
    EngineState,
    SchedulingPolicy,
    Shed,
)
from ..core.task import Task
from ..errors import AdmissionError
from ..faults.breaker import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..sim.ledger import ScheduleResult
from .admission import AdmissionPolicy
from .queue import ServiceSubmission

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class SubmissionOutcome:
    """What happened to one submission.

    Attributes:
        submission: the submission itself.
        status: ``"completed"``, ``"rejected"``, ``"deadline"`` (the
            deadline passed and the gate cancelled it — in the
            queue or mid-run) or ``"degraded"`` (the gate shed some
            not-yet-started fragments at the deadline but the rest ran
            to completion).
        admitted_at: when the gate released it to the scheduler
            (``None`` if it never got in).
        finished_at: when its last surviving fragment completed
            (``None`` if rejected or deadline-cancelled).
        rejected_at: when it was shed (``None`` if it ran).
        cancelled_at: when deadline enforcement cancelled or degraded it
            (``None`` otherwise).
        retries: backoff re-offers the gate made after sheds.
    """

    submission: ServiceSubmission
    status: str
    admitted_at: float | None = None
    finished_at: float | None = None
    rejected_at: float | None = None
    cancelled_at: float | None = None
    retries: int = 0

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



class _GatedView:
    """Engine state restricted to admitted fragments.

    The inner policy sees the true clock, machine and running set, but
    only the admitted subset of pending tasks — everything else is
    still waiting at the admission gate.  ``banned`` hides running
    tasks the gate is cancelling this round, so the inner policy cannot
    adjust a task that will be gone before its action applies.
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
        inflight = self._gate._inflight
        return [t for t in self._state.pending if t.task_id in inflight]


@dataclass(slots=True, eq=False)
class _Entry:
    """One submission's fate, written where each gate decision is made.

    ``where`` is ``"queued"``, ``"retry"`` (backing off) or
    ``"inflight"`` (admitted, some fragment unfinished); ``None`` before
    arrival and after the submission leaves the gate.  ``unfinished``
    holds its admitted fragments that have neither completed nor been
    cancelled; ``cancelled`` the task ids deadline enforcement
    cancelled.  Both are replaced, never mutated, so the gate builds
    one entry per submission without allocating either.
    :meth:`AdmissionGate.outcomes` is the only reader.
    """

    submission: ServiceSubmission
    where: str | None = None
    retries: int = 0
    admitted_at: float | None = None
    rejected_at: float | None = None
    killed_at: float | None = None
    degraded_at: float | None = None
    unfinished: Sequence[Task] = ()
    cancelled: frozenset[int] = frozenset()


class AdmissionGate(SchedulingPolicy):
    """The serving-mode policy wrapper (see the module docstring).

    Each submission's fate lives in one private entry, written where
    each decision is made; after a run :meth:`outcomes` turns the
    entries into :class:`SubmissionOutcome` records.

    A gate starts with an empty stream; :meth:`load` hands it one.

    Args:
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
            after consecutive sheds, rejecting offers outright until a
            cooldown probe succeeds; ``None`` disables it.
        deadline_policy: what a submission's ``deadline`` means.
            ``"off"`` (default): a soft SLO tag, recorded but never
            enforced — the pre-recovery behaviour.  ``"shed"``:
            graceful degradation — at the deadline not-yet-started
            fragments are cancelled cheapest first while running ones
            get ``deadline_grace`` extra seconds to finish; if they do,
            the submission completes ``"degraded"``, otherwise it is
            killed at the grace bound.
        deadline_grace: extra virtual seconds ``"shed"`` grants running
            fragments past the deadline before killing them.  At 0 the
            grace bound has passed by the first instant a deadline is
            enforced, so every unfinished fragment is cancelled at the
            deadline, cheapest first, and the status is ``"deadline"``.
        tracer: a :class:`~repro.obs.Tracer` recording admission
            decisions (queue-wait spans, backoff/shed instants) at
            virtual time; ``None`` records nothing.
    """

    name = "ADMISSION-GATE"

    def __init__(
        self,
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
        if queue_capacity < 1:
            raise AdmissionError(-1, "queue_capacity must be >= 1")
        if max_inflight_fragments < 1:
            raise AdmissionError(-1, "max_inflight_fragments must be >= 1")
        if deadline_policy not in ("off", "shed"):
            raise AdmissionError(
                -1,
                f"deadline_policy must be 'off' or 'shed', "
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
        self.tracer = tracer
        self.load(())

    def load(self, submissions: Sequence[ServiceSubmission]) -> None:
        """Take a new arrival stream (any order) and reset for it."""
        self._stream = sorted(
            submissions, key=lambda s: (s.arrival_time, s.submission_id)
        )
        names = [s.name for s in self._stream]
        if len(set(names)) != len(names):
            raise AdmissionError(-1, "duplicate submission names in stream")
        #: ``_stream``'s arrival instants, for the "is one due?" test.
        self._arrival_times = [s.arrival_time for s in self._stream]
        self.reset()

    def reset(self) -> None:
        """Clear all gate state before a fresh run."""
        self.inner.reset()
        self._cursor = 0
        #: Waiting submissions by id.  Dict order is global arrival
        #: (FIFO) order: ids are never re-queued while waiting, and a
        #: removal keeps the survivors' order.
        self._waiting: dict[int, ServiceSubmission] = {}
        #: Waiting submissions per tenant, against ``queue_capacity``.
        self._depths: dict[str, int] = {}
        #: One entry per submission, by id, in stream order.
        self._entries = {s.submission_id: _Entry(s) for s in self._stream}
        #: Admitted-but-unfinished fragments: task id -> (task, entry).
        self._inflight: dict[int, tuple[Task, _Entry]] = {}
        #: Deferred re-offers ``(due_time, submission_id)``.
        self._retries: list[tuple[float, int]] = []
        #: Gate consults this run (one per engine event, not per arrival).
        self.decide_rounds = 0
        #: One-shot deadline instants ``(time, sid)``; entries whose
        #: submission left the gate are dead and popped lazily.
        self._deadline_heap: list[tuple[float, int]] = []
        if self.breaker is not None:
            self.breaker.reset()

    # -- gate steps --------------------------------------------------------------

    def _note(
        self,
        submission: ServiceSubmission,
        label: str,
        now: float,
        cat: str,
        args: dict | None = None,
    ) -> None:
        """One instant on the submission's tenant track."""
        if self.tracer is not None:
            self.tracer.instant(
                f"{label} {submission.name}",
                t=now,
                track=f"tenant:{submission.tenant}",
                cat=cat,
                args=args,
            )

    def _offer_arrivals(self, state: EngineState) -> list[Action]:
        """Queue submissions that arrived by now; shed on overflow."""
        shed: list[Action] = []
        times = self._arrival_times
        while (
            self._cursor < len(times)
            and times[self._cursor] <= state.now + _EPS
        ):
            submission = self._stream[self._cursor]
            self._cursor += 1
            shed.extend(
                self._offer(self._entries[submission.submission_id], state.now)
            )
        return shed

    def _offer(self, entry: _Entry, now: float) -> list[Action]:
        """One offer of a submission to its tenant queue, breaker-gated."""
        submission = entry.submission
        if self.deadline_policy != "off" and submission.deadline is not None:
            # One-shot enforcement instant; a re-offer pushes a harmless
            # duplicate (same time, popped together).
            heapq.heappush(
                self._deadline_heap,
                (submission.deadline, submission.submission_id),
            )
        if self.breaker is not None and not self.breaker.allow(now):
            self._note(submission, "breaker:reject", now, "admission")
            return self._handle_shed(entry, now)
        tenant = submission.tenant
        depth = self._depths.get(tenant, 0)
        if depth >= self.queue_capacity:
            if self.breaker is not None:
                self.breaker.record_failure(now)
            return self._handle_shed(entry, now)
        self._waiting[submission.submission_id] = submission
        self._depths[tenant] = depth + 1
        entry.where = "queued"
        if self.breaker is not None:
            self.breaker.record_success(now)
        return []

    def _handle_shed(self, entry: _Entry, now: float) -> list[Action]:
        """Backoff-and-retry a shed submission, or reject it for good."""
        submission = entry.submission
        attempt = entry.retries
        if self.retry is not None and attempt < self.retry.max_retries:
            due = now + self.retry.backoff(submission.submission_id, attempt)
            heapq.heappush(self._retries, (due, submission.submission_id))
            entry.retries = attempt + 1
            entry.where = "retry"
            self._note(
                submission,
                "backoff",
                now,
                "admission",
                {"attempt": attempt + 1, "due": due},
            )
            return []
        entry.rejected_at = now
        self._note(
            submission, "shed", now, "admission", {"attempts": attempt + 1}
        )
        return [Shed(task) for task in submission.tasks]

    def _drain_retries(self, state: EngineState) -> list[Action]:
        """Re-offer every submission whose backoff has elapsed."""
        actions: list[Action] = []
        while self._retries and self._retries[0][0] <= state.now + _EPS:
            __, sid = heapq.heappop(self._retries)
            entry = self._entries[sid]
            entry.where = None
            actions.extend(self._offer(entry, state.now))
        return actions

    def _enforce_deadlines(self, state: EngineState) -> list[Action]:
        """Cancel work whose deadline has passed.

        Waiting and backing-off submissions past their deadline are
        dropped without ever running.  Admitted submissions past their
        deadline are degraded: not-yet-started fragments are cancelled
        cheapest first, running ones get ``deadline_grace`` more virtual
        seconds before they are killed too.  Every cancelled fragment
        becomes a :class:`~repro.core.schedulers.Cancel` action, so the
        engine releases its resources and records a ``CancelRecord`` —
        no wedged rounds, no silent disappearance.

        Enforcement is instant-driven, not a sweep.  The heap holds
        every instant at which it can act: each SLO-tagged submission's
        deadline (pushed at every offer) and its grace bound (pushed at
        admission when the grace is positive).  When no live instant is
        due the pass is provably a no-op and exits in O(1); when one is
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
        its grace instant.  Every instant is at or past its deadline,
        so a due submission is always overdue.
        """
        if self.deadline_policy == "off":
            return []
        now = state.now
        heap = self._deadline_heap
        entries = self._entries
        while heap and entries[heap[0][1]].where is None:
            heapq.heappop(heap)
        if not heap or now <= heap[0][0] + _EPS:
            return []
        # Consume every due instant, keeping the live submissions; the
        # head is live and due, so at least one is kept.
        due_sids: set[int] = set()
        while heap and now > heap[0][0] + _EPS:
            __, sid = heapq.heappop(heap)
            if entries[sid].where is not None:
                due_sids.add(sid)
        actions: list[Action] = []

        def drop(entry: _Entry) -> None:
            submission = entry.submission
            entry.where = None
            entry.killed_at = now
            self._note(
                submission,
                "deadline:drop",
                now,
                "deadline",
                {
                    "deadline": submission.deadline,
                    "fragments": submission.n_fragments,
                },
            )
            entry.cancelled = frozenset(t.task_id for t in submission.tasks)
            actions.extend(Cancel(t, "deadline") for t in submission.tasks)

        # Queued submissions whose deadline passed before admission: a
        # queued sid's instants are all deadline instants (grace bounds
        # exist only after admission, and admission is one-way), so a
        # due entry proves the submission overdue.  Overdue entries are
        # the oldest waiting submissions, i.e. the FIFO prefix, so the
        # ordered scan stops after roughly as many entries as there are
        # drops rather than walking the whole queue.
        queued_due = {sid for sid in due_sids if sid in self._waiting}
        if queued_due:
            overdue_sids = []
            for sid in self._waiting:
                if sid in queued_due:
                    overdue_sids.append(sid)
                    if len(overdue_sids) == len(queued_due):
                        break
            for sid in overdue_sids:
                self._unqueue(sid)
                drop(entries[sid])
        # Backing-off submissions whose deadline passed mid-retry (each
        # sid has at most one pending retry entry).
        if self._retries:
            overdue = [e for e in self._retries if e[1] in due_sids]
            if overdue:
                over_sids = {e[1] for e in overdue}
                self._retries = [
                    e for e in self._retries if e[1] not in over_sids
                ]
                heapq.heapify(self._retries)
                for __, sid in overdue:
                    drop(entries[sid])
        # Admitted submissions past their deadline: kill or degrade.
        inflight_due = [
            entries[sid]
            for sid in sorted(due_sids)
            if entries[sid].where == "inflight"
        ]
        if not inflight_due:
            return actions
        running_ids = {r.task.task_id for r in state.running}
        for entry in inflight_due:
            unfinished = sorted(
                entry.unfinished, key=lambda t: (t.seq_time, t.task_id)
            )
            submission = entry.submission
            deadline = submission.deadline
            running = [t for t in unfinished if t.task_id in running_ids]
            waiting = [t for t in unfinished if t.task_id not in running_ids]
            grace_over = now > deadline + self.deadline_grace + _EPS
            if not running or grace_over:
                to_cancel = waiting + running
                entry.killed_at = now
                label = "deadline:kill"
            else:
                to_cancel = waiting
                if to_cancel:
                    entry.degraded_at = now
                label = "deadline:shed"
            if not to_cancel:
                continue
            self._note(
                submission,
                label,
                now,
                "deadline",
                {"deadline": deadline, "fragments": len(to_cancel)},
            )
            entry.cancelled = entry.cancelled.union(
                t.task_id for t in to_cancel
            )
            for task in to_cancel:
                del self._inflight[task.task_id]
                actions.append(Cancel(task, "deadline"))
            entry.unfinished = [
                t for t in entry.unfinished if t.task_id not in entry.cancelled
            ]
            if not entry.unfinished:
                entry.where = None
        return actions

    def next_wakeup(self, now: float) -> float | None:
        """Earliest live retry or deadline instant, so the engine wakes us."""
        retries = self._retries
        heap = self._deadline_heap
        if not (retries or heap):
            return None
        horizon = now + _EPS
        wakeup = None
        if retries and retries[0][0] > horizon:
            wakeup = retries[0][0]
        while heap and self._entries[heap[0][1]].where is None:
            heapq.heappop(heap)
        if heap:
            # Nudged past the instant so the `now > deadline` comparison
            # in the enforcement pass is already true when we wake.
            deadline = heap[0][0] + 2 * _EPS
            if deadline > horizon and (wakeup is None or deadline < wakeup):
                wakeup = deadline
        return wakeup

    def _refresh_inflight(self, state: EngineState) -> None:
        """Drop completed fragments from the in-flight set."""
        completed = state.completed_ids
        done = [tid for tid in self._inflight if tid in completed]
        for tid in done:
            __, entry = self._inflight.pop(tid)
            entry.unfinished = [
                t for t in entry.unfinished if t.task_id != tid
            ]
            if not entry.unfinished:
                entry.where = None

    def _unqueue(self, sid: int) -> ServiceSubmission:
        """Remove one waiting submission; its tenant gets a slot back."""
        submission = self._waiting.pop(sid)
        self._depths[submission.tenant] -= 1
        return submission

    def _admit(self, state: EngineState) -> None:
        """Release waiting submissions while the fragment budget allows."""
        inflight = self._inflight
        while self._waiting:
            budget = self.max_inflight_fragments - len(inflight)
            if inflight and budget < 1:
                return  # every bundle has >= 1 fragment: no candidates
            # The policy's ``head_window`` bounds how deep into the
            # FIFO prefix it can ever look, so building more than that
            # many qualifying candidates is wasted work; truncating the
            # *filtered* list preserves the exact entries (and indices)
            # the policy would have examined.
            hw = self.admission.head_window
            waiting = list(self._waiting.values())
            if inflight:
                candidates = []
                for submission in waiting:
                    if submission.n_fragments <= budget:
                        candidates.append(submission)
                        if len(candidates) >= hw:
                            break
            else:
                # Never wedge: an empty machine always takes one query.
                candidates = waiting[:hw]
            if not candidates:
                return
            choice = self.admission.select(
                candidates,
                [task for task, __ in inflight.values()],
                state.machine,
            )
            if choice is None:
                return
            sid = choice.submission_id
            if sid not in self._waiting:
                raise AdmissionError(
                    sid, "admission policy chose a submission not waiting"
                )
            submission = self._unqueue(sid)
            entry = self._entries[sid]
            entry.where = "inflight"
            entry.admitted_at = state.now
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
                inflight[task.task_id] = (task, entry)
            entry.unfinished = submission.tasks
            # At zero grace the grace bound is the deadline instant
            # ``_offer`` already pushed.
            if (
                self.deadline_policy == "shed"
                and self.deadline_grace > 0
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

        Each step runs only when the test it opens with can pass: a
        retry is queued, an arrival is due, a fragment is in flight, the
        deadline heap's head is due, a submission waits.  About half
        of all consults emit no action at all.
        """
        self.decide_rounds += 1
        now = state.now
        actions = self._drain_retries(state) if self._retries else []
        cursor = self._cursor
        if cursor < len(self._arrival_times) and (
            self._arrival_times[cursor] <= now + _EPS
        ):
            actions.extend(self._offer_arrivals(state))
        if self._inflight:
            self._refresh_inflight(state)
        banned = None
        heap = self._deadline_heap
        if heap and now > heap[0][0] + _EPS:
            cancels = self._enforce_deadlines(state)
            if cancels:
                actions.extend(cancels)
                banned = {a.task.task_id for a in cancels}
        if self._waiting:
            self._admit(state)
        actions.extend(self.inner.decide(_GatedView(state, self, banned)))
        return actions

    def outcomes(self, schedule: ScheduleResult) -> list[SubmissionOutcome]:
        """Every submission's fate in the run that produced ``schedule``.

        One :class:`SubmissionOutcome` per submission, in stream order
        (arrival time, then submission id).

        Raises:
            AdmissionError: an admitted submission that was neither
                cancelled nor degraded did not run to completion.
        """
        finished: dict[int, float] = {}
        for record in schedule.records:
            finished[record.task.task_id] = record.finished_at
        outcomes = []
        for entry in self._entries.values():
            submission = entry.submission
            cancelled_at = (
                entry.killed_at
                if entry.killed_at is not None
                else entry.degraded_at
            )
            ends = [
                finished.get(t.task_id)
                for t in submission.tasks
                if t.task_id not in entry.cancelled
            ]
            finished_at = max(ends) if ends and None not in ends else None
            if entry.rejected_at is not None:
                status, finished_at = "rejected", None
            elif cancelled_at is None:
                if finished_at is None:
                    raise AdmissionError(
                        submission.submission_id,
                        "admitted submission did not run to completion",
                    )
                status = "completed"
            elif entry.killed_at is None and finished_at is not None:
                status = "degraded"
            else:
                status, finished_at = "deadline", None
            outcomes.append(
                SubmissionOutcome(
                    submission=submission,
                    status=status,
                    admitted_at=entry.admitted_at,
                    finished_at=finished_at,
                    rejected_at=entry.rejected_at,
                    cancelled_at=cancelled_at,
                    retries=entry.retries,
                )
            )
        return outcomes

