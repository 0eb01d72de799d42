"""Bounded per-tenant admission queues with backpressure.

A :class:`ServiceSubmission` is one user query entering the open
system: a small bundle of scheduler tasks (the query's plan fragments)
plus an arrival time, a tenant label and an optional response-time SLO.
Submissions wait in per-tenant bounded FIFO queues until the admission
controller (:mod:`repro.service.admission`) releases them to the
scheduler.  A full queue *sheds load*: the offer raises
:class:`~repro.errors.ServiceOverloadError` and the submission is never
executed — the open-system analogue of the closed batch in
``optimizer/multiquery.py``, where every query always runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from ..core.ids import submission_ids as _submission_ids
from ..core.task import Task
from ..errors import AdmissionError, ServiceOverloadError

_seq_time = attrgetter("seq_time")
_io_count = attrgetter("io_count")


@dataclass(frozen=True, slots=True)
class ServiceSubmission:
    """One query entering the service.

    Attributes:
        name: human-readable label used in traces and metrics.
        tenant: owning tenant; each tenant has its own bounded queue.
        tasks: the query's plan fragments as scheduler tasks.  Their
            ``depends_on`` edges must stay within the bundle and their
            ``arrival_time`` must equal :attr:`arrival_time` (a plan's
            :meth:`FragmentGraph.to_tasks(name=, arrival_time=)
            <repro.plans.fragments.FragmentGraph.to_tasks>` builds
            them that way).
        arrival_time: when the submission reaches the service (seconds).
        deadline: absolute response-time SLO deadline, or ``None`` when
            the submission carries no SLO.
        submission_id: unique id, auto-assigned.
        io_rate: aggregate io rate ``sum(D_i) / sum(T_i)`` of the
            bundle, computed once at construction — the
            submission-level analogue of the paper's per-task
            ``C_i = D_i / T_i``; the balance-aware admission policy
            classifies waiting submissions with it.
    """

    name: str
    tenant: str
    tasks: tuple[Task, ...]
    arrival_time: float = 0.0
    deadline: float | None = None
    submission_id: int = field(default_factory=_submission_ids)
    io_rate: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise AdmissionError(self.submission_id, "submission has no tasks")
        if self.arrival_time < 0:
            raise AdmissionError(
                self.submission_id, "arrival_time must be >= 0"
            )
        if self.deadline is not None and self.deadline < self.arrival_time:
            raise AdmissionError(
                self.submission_id, "deadline precedes the arrival time"
            )
        total = self.total_seq_time
        io_rate = self.total_io_count / total if total > 0 else 0.0
        object.__setattr__(self, "io_rate", io_rate)

    @property
    def n_fragments(self) -> int:
        """Number of plan fragments (scheduler tasks) in the bundle."""
        return len(self.tasks)

    @property
    def total_seq_time(self) -> float:
        """Total sequential work across the bundle, in seconds."""
        return sum(map(_seq_time, self.tasks))

    @property
    def total_io_count(self) -> float:
        """Total io requests issued by the bundle."""
        return sum(map(_io_count, self.tasks))


@dataclass(frozen=True, slots=True)
class QueuedSubmission:
    """Book-keeping wrapper for a submission waiting in a queue."""

    submission: ServiceSubmission
    enqueued_at: float


class AdmissionQueue:
    """Per-tenant bounded FIFO queues feeding the admission controller.

    Submissions live in one insertion-ordered dict keyed by submission
    id: dict order *is* global arrival (FIFO) order, because ids are
    never re-offered and removal preserves the order of the survivors.
    That makes :meth:`offer`/:meth:`take`/:meth:`__contains__` O(1) and
    :meth:`waiting` a memoized snapshot rather than a flatten-and-sort
    of the tenant queues — the admission gate calls ``waiting()`` on
    every engine consult.

    Args:
        capacity_per_tenant: maximum submissions waiting per tenant;
            an offer beyond this sheds load with
            :class:`~repro.errors.ServiceOverloadError`.
    """

    def __init__(self, capacity_per_tenant: int) -> None:
        if capacity_per_tenant < 1:
            raise AdmissionError(-1, "capacity_per_tenant must be >= 1")
        self.capacity_per_tenant = capacity_per_tenant
        self._entries: dict[int, QueuedSubmission] = {}
        self._depths: dict[str, int] = {}
        self._waiting_cache: list[QueuedSubmission] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, submission_id: int) -> bool:
        """Is a submission with this id currently waiting?"""
        return submission_id in self._entries

    def depth(self, tenant: str) -> int:
        """Submissions currently waiting for one tenant."""
        return self._depths.get(tenant, 0)

    def offer(self, submission: ServiceSubmission, now: float) -> None:
        """Enqueue ``submission``; shed it when the tenant queue is full.

        Raises:
            ServiceOverloadError: the tenant's queue is at capacity.
        """
        tenant = submission.tenant
        depth = self._depths.get(tenant, 0)
        if depth >= self.capacity_per_tenant:
            raise ServiceOverloadError(
                submission.submission_id, submission.tenant
            )
        entry = QueuedSubmission(submission=submission, enqueued_at=now)
        self._entries[submission.submission_id] = entry
        self._depths[tenant] = depth + 1
        if self._waiting_cache is not None:
            self._waiting_cache.append(entry)  # newest is last in FIFO order

    def waiting(self) -> list[QueuedSubmission]:
        """All waiting submissions in global arrival (FIFO) order.

        Returns a snapshot the queue may reuse across calls — callers
        must treat it as read-only (they always have).
        """
        if self._waiting_cache is None:
            self._waiting_cache = list(self._entries.values())
        return self._waiting_cache

    def take(self, submission_id: int) -> ServiceSubmission:
        """Remove and return one waiting submission by id.

        Raises:
            AdmissionError: the id is not waiting in any queue.
        """
        entry = self._entries.pop(submission_id, None)
        if entry is None:
            raise AdmissionError(submission_id, "not waiting in any queue")
        self._depths[entry.submission.tenant] -= 1
        self._waiting_cache = None
        return entry.submission
