"""The end-to-end trace harness behind ``python -m repro trace``.

One :func:`run_trace` call drives a representative slice of the whole
system — phase-1 optimization, a short serving-mode arrival stream and
a (optionally faulted) micro-engine run — with a single live
:class:`~repro.obs.Tracer` threaded through every layer.  The result is
one unified trace whose Chrome export opens in Perfetto with a lane per
task, tenant, disk and subsystem.  The
metrics digest is read off what each phase returned, once all three
are over.

Every event and every metric is virtual time or a count, so the trace
and the digest are pure functions of the seed: two runs export
byte-identical Chrome and flat JSON, which the determinism tests pin
down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .export import chrome_events, chrome_json, summary_table
from .tracer import Tracer

# The engine/service/optimizer imports happen inside run_trace():
# repro.service.metrics imports repro.obs for the shared percentile, so
# a module-level import here would close an import cycle through the
# package __init__.

#: Chrome trace-event fields every exported record must carry.
_REQUIRED_FIELDS = ("ph", "ts", "pid", "tid")


@dataclass
class TraceReport:
    """Everything one :func:`run_trace` call produced.

    Attributes:
        seed: the seed the run was keyed on.
        tracer: the populated tracer (all three phases).
        metrics: the metrics digest: the optimized query's
            ``optimizer.*`` cache counters, the stream's ``service.*``
            sections and the micro run's ``sim.*`` (plus
            ``faults.crashes`` when faulted).
        faulted: whether the micro phase ran under the mixed fault
            preset.
    """

    seed: int
    tracer: Tracer
    metrics: dict
    faulted: bool

    def chrome_json(self) -> str:
        """The unified Chrome trace-event export (byte-stable per seed)."""
        return chrome_json(self.tracer)

    def summary(self) -> str:
        """The per-category trace summary table."""
        return summary_table(self.tracer)


def run_trace(seed: int = 0, *, faulted: bool = True) -> TraceReport:
    """Trace one optimizer + service + micro-engine slice of the system.

    The slice: a four-relation star join, a ten-submission stream and a
    four-task micro-engine mix of at most 200 pages per task.  All three
    phases share one tracer, and the metrics digest is read off their
    results; every timestamp is simulator virtual time, so the report's
    exports are byte-identical across runs of the same arguments.

    Args:
        seed: keys the join workload, the arrival stream and the
            micro-engine page scatter.
        faulted: run the micro phase under the deterministic ``mixed``
            fault preset so the trace shows degradation, stall and
            crash instants.
    """
    from ..config import paper_machine
    from ..core.ids import id_scope
    from ..core.schedulers import InterWithAdjPolicy
    from ..faults.breaker import CircuitBreaker
    from ..faults.retry import RetryPolicy
    from ..faults.schedule import preset_schedule
    from ..optimizer import OptimizerMode, TwoPhaseOptimizer
    from ..service.arrivals import mixed_tenant_config, poisson_stream
    from ..service.server import QueryService
    from ..sim.micro import MicroSimulator
    from ..workloads import WorkloadConfig, WorkloadKind
    from ..workloads.mixes import generate_specs
    from ..workloads.queries import star_join

    tracer = Tracer()

    # Phase 1: optimize a seeded star join; the tracer gets one
    # deterministic instant, the result the cache counters (the
    # optimizer is fresh, so they are this query's alone).
    # Scoped node ids, so in-process reruns build byte-identical
    # schemas; row counts keep the search small but non-trivial.
    with id_scope():
        schema = star_join(3, fact_rows=400, dimension_rows=80, seed=seed)
    optimizer = TwoPhaseOptimizer(schema.catalog, tracer=tracer)
    optimized = optimizer.optimize(schema.query, mode=OptimizerMode.BUSHY_PAR)

    # Phase 2: a short open-system stream through the admission gate,
    # sized to provoke some queueing (small queues, tight in-flight
    # budget, retry + breaker wired into the same tracer).
    machine = paper_machine()
    service = QueryService(
        machine,
        queue_capacity=2,
        max_inflight_fragments=2,
        # Full default jitter: submission ids are stream-scoped now, so
        # the jitter hash is repeatable within one process.
        retry=RetryPolicy(max_retries=2, base_delay=1.0, seed=seed),
        breaker=CircuitBreaker(tracer=tracer),
        tracer=tracer,
    )
    stream = poisson_stream(
        rate=0.5,
        seed=seed,
        config=mixed_tenant_config(10),
        machine=machine,
    )
    served = service.run(stream)

    # Phase 3: a seeded RANDOM mix on the page-level engine, under the
    # mixed fault preset when asked, so the trace carries task spans,
    # adjustment rounds and fault instants.
    specs = generate_specs(
        WorkloadKind.RANDOM,
        seed=seed,
        machine=machine,
        config=WorkloadConfig(n_tasks=4, max_pages=200),
    )
    faults = preset_schedule("mixed", horizon=6.0) if faulted else None
    micro = MicroSimulator(
        machine, seed=seed, faults=faults, fault_seed=seed, tracer=tracer
    )
    micro_result = micro.run(specs, InterWithAdjPolicy(integral=True))

    # The metrics digest: each value read off one phase's result.
    metrics = served.metrics.sections()
    counters = metrics["counters"]
    for key, value in (optimized.stats or {}).items():
        counters[f"optimizer.{key}"] = value
    counters["sim.pages"] = int(micro_result.io_served)
    counters["sim.adjustments"] = micro_result.adjustments
    if micro_result.fault_log is not None:
        counters["faults.crashes"] = micro_result.fault_log.crashes
    metrics["gauges"]["sim.elapsed"] = micro_result.elapsed

    return TraceReport(
        seed=seed,
        tracer=tracer,
        metrics=metrics,
        faulted=faulted,
    )


def validate_chrome(text: str) -> str | None:
    """Check a Chrome trace-event export; ``None`` if valid, else why.

    Valid means: a JSON array of objects, each carrying the ``ph``,
    ``ts``, ``pid`` and ``tid`` fields Perfetto requires.
    """
    try:
        records = json.loads(text)
    except json.JSONDecodeError as error:
        return f"not JSON: {error}"
    if not isinstance(records, list) or not records:
        return "not a non-empty JSON array"
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            return f"record {i} is not an object"
        for fields in _REQUIRED_FIELDS:
            if fields not in record:
                return f"record {i} lacks {fields!r}"
    return None


def smoke_lines(*, seed: int = 0) -> list[str]:
    """Byte-stable output of one tiny traced run.

    Reports only simulated quantities (event counts, counter deltas,
    simulated elapsed), never wall-clock, so two runs print the same
    bytes — the CLI smoke contract.  Appends ``smoke failed: ...``
    lines on any violated invariant.
    """
    report = run_trace(seed)
    counters = report.metrics["counters"]
    opt = {
        key: counters.get(f"optimizer.{key}", 0)
        for key in ("candidates", "pruned", "costed")
    }
    lines = [
        f"smoke: trace {len(report.tracer)} events across "
        f"{len(report.tracer.tracks())} tracks, seed {seed}",
        f"smoke: optimizer candidates={opt['candidates']} "
        f"pruned={opt['pruned']} costed={opt['costed']}",
        f"smoke: service {counters['service.completed']}/"
        f"{counters['service.offered']} completed, "
        f"{counters['service.rejected']} rejected",
        f"smoke: micro {counters['sim.pages']} pages, "
        f"simulated {report.metrics['gauges']['sim.elapsed']:.4f}s"
        + (" (faulted)" if report.faulted else ""),
    ]
    if len(report.tracer) == 0:
        lines.append("smoke failed: the trace is empty")
    if counters["service.completed"] == 0:
        lines.append("smoke failed: no submissions completed")
    problem = validate_chrome(report.chrome_json())
    if problem is not None:
        lines.append(f"smoke failed: chrome export invalid ({problem})")
    spans = [e for e in report.tracer.events if e.kind == "span"]
    if not spans:
        lines.append("smoke failed: no spans recorded")
    n_chrome = len(chrome_events(report.tracer))
    if n_chrome <= len(report.tracer):
        lines.append(
            "smoke failed: chrome export lost events "
            f"({n_chrome} records for {len(report.tracer)} events)"
        )
    return lines
