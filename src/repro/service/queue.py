"""One user query entering the open system.

A :class:`ServiceSubmission` is a small bundle of scheduler tasks (the
query's plan fragments) plus an arrival time, a tenant label and an
optional response-time SLO.  Submissions wait at the admission gate
(:class:`~repro.service.gate.AdmissionGate`), at most ``queue_capacity``
per tenant, until its admission policy
(:mod:`repro.service.admission`) releases them to the scheduler.  An
offer to a full tenant queue *sheds load*: the submission is never
executed — the open-system analogue of the closed batch in
``optimizer/multiquery.py``, where every query always runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from ..core.ids import submission_ids as _submission_ids
from ..core.task import Task
from ..errors import AdmissionError

_seq_time = attrgetter("seq_time")
_io_count = attrgetter("io_count")


@dataclass(frozen=True, slots=True)
class ServiceSubmission:
    """One query entering the service.

    Attributes:
        name: human-readable label used in traces and metrics.
        tenant: owning tenant; the gate bounds each tenant's waiting
            submissions separately.
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
