"""Per-tenant and global serving metrics.

The serving mode is judged the way an online system is: counters
(offered / admitted / rejected / completed), response-time percentiles
(p50/p95/p99), SLO-miss rate and resource-utilization over time — not
the closed-batch makespan the Figure-7 experiments report.  Everything
here is plain deterministic arithmetic over the simulator trace, so a
metrics table is a pure function of ``(seed, λ, mix)`` and can be
diffed byte-for-byte across runs.  Percentiles come from
:func:`repro.obs.metrics.percentile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..bench.report import format_table
from ..errors import ServiceError
from ..obs.metrics import percentile, summarize
from ..sim.fluid import ScheduleResult
from .gate import SubmissionOutcome

__all__ = [
    "TenantMetrics",
    "ServiceMetrics",
    "utilization_timeline",
    "format_timeline",
]


@dataclass
class TenantMetrics:
    """Counters and response-time digest for one tenant."""

    tenant: str
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    #: Backoff re-offers made for this tenant's shed submissions.
    retries: int = 0
    #: Submissions killed by deadline enforcement.
    deadline_cancelled: int = 0
    #: Submissions that completed degraded (fragments shed at deadline).
    degraded: int = 0
    slo_tagged: int = 0
    slo_misses: int = 0
    response_times: list[float] = field(default_factory=list)

    @classmethod
    def of(
        cls, tenant: str, outcomes: Iterable[SubmissionOutcome]
    ) -> TenantMetrics:
        """Fold outcomes, in order, into one digest labelled ``tenant``.

        The only code that turns a submission's status into counters.
        """
        tm = cls(tenant=tenant)
        for outcome in outcomes:
            tm.offered += 1
            tm.retries += outcome.retries
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
            if outcome.submission.deadline is not None:
                tm.slo_tagged += 1
                if outcome.slo_missed:
                    tm.slo_misses += 1
        return tm

    @property
    def p50(self) -> float:
        """Median response time of completed submissions."""
        return percentile(self.response_times, 50.0)

    @property
    def p95(self) -> float:
        """95th-percentile response time."""
        return percentile(self.response_times, 95.0)

    @property
    def p99(self) -> float:
        """99th-percentile response time."""
        return percentile(self.response_times, 99.0)

    @property
    def slo_miss_rate(self) -> float:
        """Fraction of SLO-tagged submissions that missed their deadline.

        Rejected and deadline-cancelled submissions count as misses.
        """
        if self.slo_tagged == 0:
            return 0.0
        return self.slo_misses / self.slo_tagged


@dataclass
class ServiceMetrics:
    """Global serving metrics plus the per-tenant breakdown.

    Built by :meth:`of`, which folds the run's outcomes once per tenant
    and once more into :attr:`overall`.
    """

    admission_name: str
    elapsed: float
    tenants: dict[str, TenantMetrics]
    #: All tenants folded into one digest, tenant by tenant in
    #: first-seen order, so ``response_times`` is the concatenation of
    #: the tenants' lists.
    overall: TenantMetrics
    outcomes: list[SubmissionOutcome]
    cpu_utilization: float
    io_utilization: float
    #: ``(t, state)`` transitions of the admission circuit breaker
    #: (empty when no breaker guards the gate).
    breaker_timeline: list[tuple[float, str]] = field(default_factory=list)

    @classmethod
    def of(
        cls,
        outcomes: list[SubmissionOutcome],
        schedule: ScheduleResult,
        *,
        admission_name: str,
        breaker_timeline: list[tuple[float, str]],
    ) -> ServiceMetrics:
        """One run's metrics: a :class:`TenantMetrics` per tenant (in
        first-seen order), their fold into :attr:`overall`, and the
        schedule's elapsed time and utilizations."""
        groups: dict[str, list[SubmissionOutcome]] = {}
        for outcome in outcomes:
            groups.setdefault(outcome.submission.tenant, []).append(outcome)
        return cls(
            admission_name=admission_name,
            elapsed=schedule.elapsed,
            tenants={t: TenantMetrics.of(t, g) for t, g in groups.items()},
            overall=TenantMetrics.of(
                "all", [o for g in groups.values() for o in g]
            ),
            outcomes=outcomes,
            cpu_utilization=schedule.cpu_utilization,
            io_utilization=schedule.io_utilization,
            breaker_timeline=breaker_timeline,
        )

    @property
    def throughput(self) -> float:
        """Completed submissions per second of simulated time."""
        return self.overall.completed / self.elapsed if self.elapsed > 0 else 0.0

    def sections(self) -> dict:
        """The run's metrics digest (see :mod:`repro.obs.metrics`).

        The ``service.*`` counters (offered/admitted/rejected/completed/
        retries/deadline cancels/degraded) from :attr:`overall`, the
        response-time and queue-wait summaries of the finished
        submissions (zeros when none finished), no gauges and, only when
        a breaker guarded the gate, the breaker-state series.
        """
        totals = self.overall
        finished = [o for o in self.outcomes if o.finished_at is not None]
        breaker = self.breaker_timeline
        return {
            "counters": {
                "service.offered": totals.offered,
                "service.admitted": totals.admitted,
                "service.rejected": totals.rejected,
                "service.completed": totals.completed,
                "service.retries": totals.retries,
                "service.deadline_cancels": totals.deadline_cancelled,
                "service.degraded": totals.degraded,
            },
            "gauges": {},
            "histograms": {
                "service.response_time": summarize(
                    [o.response_time for o in finished]
                ),
                "service.queue_wait": summarize(
                    [o.queueing_delay for o in finished]
                ),
            },
            "series": (
                {"service.breaker_state": [[t, state] for t, state in breaker]}
                if breaker
                else {}
            ),
        }

    def to_table(self) -> str:
        """The per-tenant metrics table (plus an ``all`` summary row)."""
        rows = []
        tenant_rows = sorted(self.tenants)
        for name in tenant_rows:
            rows.append(self._row(self.tenants[name]))
        rows.append(self._row(self.overall))
        return format_table(
            [
                "tenant",
                "offered",
                "admitted",
                "rejected",
                "retries",
                "completed",
                "p50 (s)",
                "p95 (s)",
                "p99 (s)",
                "SLO miss",
            ],
            rows,
            title=(
                f"service metrics — admission={self.admission_name}, "
                f"elapsed={self.elapsed:.2f}s, "
                f"throughput={self.throughput:.3f}/s, "
                f"cpu={self.cpu_utilization:.1%}, io={self.io_utilization:.1%}"
            ),
        )

    @staticmethod
    def _row(tm: TenantMetrics) -> list[str]:
        return [
            tm.tenant,
            str(tm.offered),
            str(tm.admitted),
            str(tm.rejected),
            str(tm.retries),
            str(tm.completed),
            f"{tm.p50:.3f}",
            f"{tm.p95:.3f}",
            f"{tm.p99:.3f}",
            f"{tm.slo_miss_rate:.1%}",
        ]


def utilization_timeline(
    result: ScheduleResult, *, bucket: float = 1.0
) -> list[tuple[float, float, float]]:
    """Bucketed ``(t, cpu_fraction, io_fraction)`` utilization series.

    Rebuilds allocation over time from each task's parallelism history:
    within a bucket, a task contributes its allocated processors
    (capped at machine capacity in aggregate) and its io demand
    ``C_i * x`` capped at the nominal bandwidth ``B``.  The series is a
    diagnostic view (the engine's utilization integrals are exact); it
    shows *when* the machine was saturated, not just how much on
    average.
    """
    if bucket <= 0:
        raise ServiceError("bucket must be positive")
    machine = result.machine
    if result.elapsed <= 0:
        return []
    n_buckets = int(result.elapsed / bucket) + 1
    cpu = [0.0] * n_buckets
    io = [0.0] * n_buckets
    for record in result.records:
        history = list(record.parallelism_history)
        for i, (start, x) in enumerate(history):
            end = (
                history[i + 1][0]
                if i + 1 < len(history)
                else record.finished_at
            )
            first = int(start / bucket)
            last = int(min(end, result.elapsed - 1e-12) / bucket)
            for b in range(first, min(last, n_buckets - 1) + 1):
                b_start = max(start, b * bucket)
                b_end = min(end, (b + 1) * bucket)
                overlap = max(0.0, b_end - b_start)
                cpu[b] += x * overlap
                io[b] += record.task.io_rate * x * overlap
    series = []
    for b in range(n_buckets):
        width = min(bucket, max(result.elapsed - b * bucket, 0.0))
        if width <= 0:
            continue
        cpu_frac = min(1.0, cpu[b] / (machine.processors * width))
        io_frac = min(1.0, io[b] / (machine.io_bandwidth * width))
        series.append((b * bucket, cpu_frac, io_frac))
    return series


def format_timeline(series: list[tuple[float, float, float]]) -> str:
    """Render a utilization timeline as a fixed-width text strip chart."""
    rows = [
        (f"{t:.0f}", f"{cpu:.0%}", f"{io:.0%}", "#" * round(cpu * 20), "+" * round(io * 20))
        for t, cpu, io in series
    ]
    return format_table(
        ["t (s)", "cpu", "io", "cpu bar", "io bar"],
        rows,
        title="utilization timeline",
    )
