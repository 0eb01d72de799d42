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

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..bench.report import format_table
from ..config import MachineConfig, paper_machine
from ..errors import ConfigError
from .admission import AdmissionPolicy, BalanceAwareAdmission
from .arrivals import ArrivalConfig, mixed_tenant_config, poisson_stream
from ..obs.metrics import percentile
from .queue import ServiceSubmission
from .server import QueryService, ServiceResult

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


@dataclass(frozen=True)
class StressPoint:
    """One row of the latency-vs-throughput knee table."""

    rho: float
    rate: float
    offered: int
    completed: int
    rejected: int
    throughput: float
    p50: float
    p95: float
    p99: float
    slo_miss_rate: float
    cpu_utilization: float
    io_utilization: float

    def row(self) -> list[str]:
        """The point formatted as a knee-table row."""
        return [
            f"{self.rho:.2f}",
            f"{self.rate:.4f}",
            str(self.offered),
            str(self.completed),
            str(self.rejected),
            f"{self.throughput:.4f}",
            f"{self.p50:.2f}",
            f"{self.p95:.2f}",
            f"{self.p99:.2f}",
            f"{self.slo_miss_rate:.1%}",
            f"{self.cpu_utilization:.1%}",
            f"{self.io_utilization:.1%}",
        ]


def estimate_capacity(
    *,
    seed: int,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
    service: QueryService | None = None,
    n_probe: int = 30,
) -> float:
    """Measure the service rate μ (submissions/second) empirically.

    Runs a closed probe batch — ``n_probe`` submissions all present at
    time zero — through the same service configuration and derives
    ``μ = completed / makespan``.  Deterministic given the seed, and
    honest about every scheduling effect (pairing, adjustment overhead,
    admission order), unlike an analytic bound.
    """
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    service = service or QueryService(machine)
    probe_config = replace(config, n_submissions=n_probe, slo_stretch=None)
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
        queue_capacity=max(gate.queue_capacity, n_probe),
        max_inflight_fragments=gate.max_inflight_fragments,
    )
    result = probe_service.run(stream)
    completed = sum(1 for o in result.outcomes if o.status == "completed")
    if completed == 0 or result.elapsed <= 0:
        raise ConfigError("capacity probe completed no submissions")
    return completed / result.elapsed


def run_point(
    *,
    rate: float,
    rho: float,
    seed: int,
    config: ArrivalConfig,
    machine: MachineConfig,
    service: QueryService,
    stream_factory: StreamFactory = _default_stream,
) -> tuple[StressPoint, ServiceResult]:
    """Serve one offered-load point and digest it into a StressPoint."""
    stream = stream_factory(rate, seed, config, machine)
    result = service.run(stream)
    overall = result.metrics.overall
    responses = overall.response_times
    return (
        StressPoint(
            rho=rho,
            rate=rate,
            offered=overall.offered,
            completed=overall.completed,
            rejected=overall.rejected,
            throughput=result.metrics.throughput,
            p50=percentile(responses, 50.0),
            p95=percentile(responses, 95.0),
            p99=percentile(responses, 99.0),
            slo_miss_rate=overall.slo_miss_rate,
            cpu_utilization=result.metrics.cpu_utilization,
            io_utilization=result.metrics.io_utilization,
        ),
        result,
    )


def sweep(
    *,
    rhos: Sequence[float] = (0.4, 0.6, 0.8, 0.9, 1.0, 1.2),
    seed: int = 0,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
    admission: AdmissionPolicy | None = None,
    service: QueryService | None = None,
    stream_factory: StreamFactory = _default_stream,
    capacity: float | None = None,
) -> list[StressPoint]:
    """Sweep offered load ρ·μ and return the knee-table points.

    One service instance serves the whole sweep, and the arrival
    builder memoizes its task pools across λ points (only the arrival
    times depend on the rate), so a long sweep pays the stream setup
    cost once instead of once per point.

    Args:
        rhos: offered-load fractions of the measured capacity μ.
        seed: stream seed (one seed serves the whole sweep).
        config: arrival-stream shape.
        machine: machine configuration.
        admission: admission policy for a default-configured service.
        service: fully custom service (overrides ``admission``).
        stream_factory: arrival process (Poisson by default).
        capacity: known service rate μ in submissions/second; ``None``
            measures it with :func:`estimate_capacity`.  Passing a
            previously measured μ lets repeated sweeps (e.g. one per
            admission policy over the same mix) skip the probe run.
    """
    if not rhos:
        raise ConfigError("sweep needs at least one offered-load point")
    if any(r <= 0 for r in rhos):
        raise ConfigError("offered-load fractions must be positive")
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    if service is None:
        service = QueryService(
            machine, admission=admission or BalanceAwareAdmission()
        )
    if capacity is not None and capacity <= 0:
        raise ConfigError("capacity must be positive when given")
    mu = capacity
    if mu is None:
        mu = estimate_capacity(
            seed=seed, config=config, machine=machine, service=service
        )
    points = []
    for rho in rhos:
        point, __ = run_point(
            rate=rho * mu,
            rho=rho,
            seed=seed,
            config=config,
            machine=machine,
            service=service,
            stream_factory=stream_factory,
        )
        points.append(point)
    return points


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


def format_sweep(
    points: Sequence[StressPoint], *, title: str | None = None
) -> str:
    """Render sweep points as the latency-vs-throughput knee table."""
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
        [p.row() for p in points],
        title=title or "latency-vs-throughput knee",
    )
