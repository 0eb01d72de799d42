"""The online serving loop: admission gate + scheduler + engine.

:class:`QueryService` turns the closed-batch pipeline into an open
system.  Submissions arrive over time (see
:mod:`repro.service.arrivals`), wait in bounded per-tenant queues, and
are *admitted* into the scheduler a few at a time by an
:class:`~repro.service.admission.AdmissionPolicy`.  Execution is driven
by the existing :class:`~repro.sim.fluid.FluidSimulator` with the
existing :class:`~repro.core.schedulers.InterWithAdjPolicy` unchanged:
the service wraps it in an admission gate
(:class:`~repro.service.gate.AdmissionGate`), runs the stream, and
digests the gate's outcomes into :class:`ServiceResult` and its
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import MachineConfig, paper_machine
from ..core.schedulers import InterWithAdjPolicy, SchedulingPolicy
from ..core.task import Task
from ..errors import AdmissionError
from ..faults.breaker import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..sim.fluid import FluidSimulator, ScheduleResult
from .admission import AdmissionPolicy, BalanceAwareAdmission
from .gate import AdmissionGate, SubmissionOutcome
from .metrics import ServiceMetrics
from .queue import ServiceSubmission


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


class QueryService:
    """An open multi-tenant query service over the fluid engine.

    The service builds one :class:`AdmissionGate` at construction and
    keeps it as :attr:`gate`; ``admission``, ``scheduler`` (the gate's
    ``inner``), ``queue_capacity``, ``max_inflight_fragments``,
    ``retry``, ``breaker``, ``deadline_policy`` and ``deadline_grace``
    are the gate's arguments, and an invalid one raises here.
    ``admission`` defaults to balance-aware and ``scheduler`` to the
    paper's INTER-WITH-ADJ, unchanged.

    Args:
        machine: machine configuration (defaults to the paper machine).
        tracer: a :class:`~repro.obs.Tracer` threaded into the gate
            and the fluid engine; ``None`` records nothing.
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        *,
        admission: AdmissionPolicy | None = None,
        scheduler: SchedulingPolicy | None = None,
        queue_capacity: int = 8,
        max_inflight_fragments: int = 6,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline_policy: str = "off",
        deadline_grace: float = 0.0,
        tracer=None,
    ) -> None:
        self.machine = machine or paper_machine()
        self.tracer = tracer
        self.gate = AdmissionGate(
            inner=scheduler or InterWithAdjPolicy(),
            admission=admission or BalanceAwareAdmission(),
            queue_capacity=queue_capacity,
            max_inflight_fragments=max_inflight_fragments,
            retry=retry,
            breaker=breaker,
            deadline_policy=deadline_policy,
            deadline_grace=deadline_grace,
            tracer=self.tracer,
        )
        self._submitted: list[ServiceSubmission] = []

    def submit(
        self,
        name: str,
        tasks: Sequence[Task],
        *,
        tenant: str = "default",
        arrival_time: float = 0.0,
        relative_deadline: float | None = None,
    ) -> ServiceSubmission:
        """Queue one submission for the next :meth:`run_submitted`.

        The deadline enters here, as ``relative_deadline`` seconds after
        arrival.  With ``deadline_policy="off"`` it is a soft SLO tag;
        with ``"shed"`` the gate enforces it end to end.
        """
        deadline = (
            None if relative_deadline is None else arrival_time + relative_deadline
        )
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
        gate = self.gate
        gate.load(submissions)
        pooled = [task for s in submissions for task in s.tasks]
        simulator = FluidSimulator(self.machine, tracer=self.tracer)
        schedule = simulator.run(pooled, gate)
        outcomes = gate.outcomes(schedule)
        breaker = gate.breaker
        metrics = ServiceMetrics.of(
            outcomes,
            schedule,
            admission_name=gate.admission.name,
            breaker_timeline=(
                list(breaker.timeline) if breaker is not None else []
            ),
        )
        return ServiceResult(
            admission_name=gate.admission.name,
            outcomes=outcomes,
            schedule=schedule,
            metrics=metrics,
            decide_rounds=gate.decide_rounds,
        )
