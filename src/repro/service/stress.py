"""Reproducible stress harness: offered-load sweeps and the knee table.

The ROADMAP's serving questions — where does throughput saturate, what
happens to tail latency past the knee, how graceful is overload — are
answered by sweeping the offered load λ and recording, at each point,
throughput, response-time percentiles, shed rate and utilization.
Everything is a pure function of ``(seed, λ, mix, policy)``: running
the same sweep twice prints byte-identical tables, which the service
benchmark asserts.

Offered load is expressed as a fraction ρ of the service's measured
capacity μ (see :func:`estimate_capacity`), so "80% offered load"
means the same thing across mixes and machine configurations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from ..bench.report import format_table
from ..config import MachineConfig, paper_machine
from ..errors import ConfigError
from .admission import BalanceAwareAdmission
from .arrivals import ArrivalConfig, mixed_tenant_config, poisson_stream
from .metrics import ServiceMetrics
from .queue import ServiceSubmission
from .server import QueryService

#: Submissions in the closed batch :func:`estimate_capacity` probes with.
N_PROBE = 30

#: Stream builder signature: ``(rate, seed, config, machine) -> stream``.
StreamFactory = Callable[
    [float, int, ArrivalConfig, MachineConfig], list[ServiceSubmission]
]


def _default_stream(
    rate: float,
    seed: int,
    config: ArrivalConfig,
    machine: MachineConfig,
) -> list[ServiceSubmission]:
    """Poisson arrivals — the default open-loop stream."""
    return poisson_stream(rate=rate, seed=seed, config=config, machine=machine)


def estimate_capacity(
    *,
    seed: int,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
    service: QueryService | None = None,
) -> float:
    """Measure the service rate μ (submissions/second) empirically.

    Runs a closed probe batch — :data:`N_PROBE` submissions all present at
    time zero — through the same service configuration and derives
    ``μ = completed / makespan``.  Deterministic given the seed, and
    honest about every scheduling effect (pairing, adjustment overhead,
    admission order), unlike an analytic bound.
    """
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    service = service or QueryService(machine)
    probe_config = replace(config, n_submissions=N_PROBE, slo_stretch=None)
    # A high nominal rate packs the whole probe into a negligible
    # window, approximating an all-at-once closed batch while keeping
    # the stream shape (bundles, tenants) identical to the sweep's.
    stream = poisson_stream(
        rate=1e6, seed=seed, config=probe_config, machine=machine
    )
    # Capacity probes must never shed: give the probe a queue deep
    # enough for the whole batch.
    gate = service.gate
    probe_service = QueryService(
        machine,
        admission=gate.admission,
        scheduler=gate.inner,
        queue_capacity=max(gate.queue_capacity, N_PROBE),
        max_inflight_fragments=gate.max_inflight_fragments,
    )
    result = probe_service.run(stream)
    completed = result.metrics.overall.completed
    if completed == 0 or result.elapsed <= 0:
        raise ConfigError("capacity probe completed no submissions")
    return completed / result.elapsed


def sweep(
    *,
    rhos: Sequence[float] = (0.4, 0.6, 0.8, 0.9, 1.0, 1.2),
    seed: int = 0,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
    service: QueryService | None = None,
    stream_factory: StreamFactory = _default_stream,
) -> list[tuple[float, float, ServiceMetrics]]:
    """Sweep offered load ρ·μ and return the knee-table rows.

    Each row is ``(ρ, λ, metrics)``: the offered-load fraction, the
    arrival rate ``ρ·μ`` and the metrics of the run served at it.

    One service instance serves the whole sweep, and the arrival
    builder memoizes its task pools across λ points (only the arrival
    times depend on the rate), so a long sweep pays the stream setup
    cost once instead of once per point.

    Args:
        rhos: offered-load fractions of the measured capacity μ.
        seed: stream seed (one seed serves the whole sweep).
        config: arrival-stream shape.
        machine: machine configuration.
        service: the service to sweep; ``None`` builds a default
            balance-aware one.
        stream_factory: arrival process (Poisson by default).
    """
    if not rhos:
        raise ConfigError("sweep needs at least one offered-load point")
    if any(r <= 0 for r in rhos):
        raise ConfigError("offered-load fractions must be positive")
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    service = service or QueryService(machine)
    mu = estimate_capacity(
        seed=seed, config=config, machine=machine, service=service
    )
    rows = []
    for rho in rhos:
        rate = rho * mu
        result = service.run(stream_factory(rate, seed, config, machine))
        rows.append((rho, rate, result.metrics))
    return rows


def smoke_lines(*, seed: int = 0) -> list[str]:
    """Deterministic end-to-end serving trace for ``serve --smoke``.

    Ten mixed-tenant submissions through a default balance-aware gate:
    one line per outcome plus a summary, and a trailing ``smoke failed``
    line when nothing completed.  The CLI turns that prefix into a
    non-zero exit code, the same contract every other smoke command
    (``trace``, ``recover``, ``check``) honours.
    """
    machine = paper_machine()
    service = QueryService(
        machine,
        admission=BalanceAwareAdmission(),
        queue_capacity=20,
        max_inflight_fragments=2,
    )
    stream = poisson_stream(
        rate=0.2, seed=seed, config=mixed_tenant_config(10), machine=machine
    )
    result = service.run(stream)
    lines = []
    for outcome in result.outcomes:
        line = (
            f"t={outcome.submission.arrival_time:8.2f}  "
            f"{outcome.submission.name:<4s} {outcome.submission.tenant:<5s} "
            f"{outcome.status}"
        )
        if outcome.status == "completed":
            line += f"  response={outcome.response_time:.2f}s"
        lines.append(line)
    completed = result.metrics.overall.completed
    lines.append(
        f"smoke: {completed}/{len(stream)} completed "
        f"in {result.elapsed:.2f}s simulated"
    )
    if completed == 0:
        lines.append("smoke failed: no submissions completed")
    return lines


def _sweep_row(rho: float, rate: float, metrics: ServiceMetrics) -> list[str]:
    overall = metrics.overall
    return [
        f"{rho:.2f}",
        f"{rate:.4f}",
        str(overall.offered),
        str(overall.completed),
        str(overall.rejected),
        f"{metrics.throughput:.4f}",
        f"{overall.p50:.2f}",
        f"{overall.p95:.2f}",
        f"{overall.p99:.2f}",
        f"{overall.slo_miss_rate:.1%}",
        f"{metrics.cpu_utilization:.1%}",
        f"{metrics.io_utilization:.1%}",
    ]


def format_sweep(
    rows: Sequence[tuple[float, float, ServiceMetrics]],
    *,
    title: str | None = None,
) -> str:
    """Render sweep rows as the latency-vs-throughput knee table."""
    return format_table(
        [
            "rho",
            "lambda/s",
            "offered",
            "done",
            "shed",
            "thruput/s",
            "p50 (s)",
            "p95 (s)",
            "p99 (s)",
            "SLO miss",
            "cpu",
            "io",
        ],
        [_sweep_row(*row) for row in rows],
        title=title or "latency-vs-throughput knee",
    )
