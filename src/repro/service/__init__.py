"""Serving mode: an open multi-tenant query service (ROADMAP north star).

Section 4 of the paper describes XPRS's multi-user mode: optimize each
query with intra-operation parallelism only and let the scheduler mix
tasks *across* queries to keep both resources busy.  This package turns
that batch-mode idea into an open system — arrival processes, bounded
per-tenant queues with load shedding, balance-aware admission control,
per-tenant SLO metrics and a stress harness that finds the
latency-vs-throughput knee.  See ``docs/SERVICE.md``.
"""

from .admission import (
    AdmissionPolicy,
    BalanceAwareAdmission,
    FifoAdmission,
    admission_by_name,
)
from .arrivals import (
    ArrivalConfig,
    mixed_tenant_config,
    onoff_stream,
    poisson_stream,
)
from .metrics import (
    ServiceMetrics,
    TenantMetrics,
    format_timeline,
    utilization_timeline,
)
from .gate import AdmissionGate, SubmissionOutcome
from .queue import ServiceSubmission
from .server import QueryService, ServiceResult
from .stress import estimate_capacity, format_sweep, smoke_lines, sweep

__all__ = [
    "AdmissionGate",
    "AdmissionPolicy",
    "ArrivalConfig",
    "BalanceAwareAdmission",
    "FifoAdmission",
    "QueryService",
    "ServiceMetrics",
    "ServiceResult",
    "ServiceSubmission",
    "SubmissionOutcome",
    "TenantMetrics",
    "admission_by_name",
    "estimate_capacity",
    "format_sweep",
    "format_timeline",
    "mixed_tenant_config",
    "onoff_stream",
    "poisson_stream",
    "smoke_lines",
    "sweep",
    "utilization_timeline",
]
