"""The five benchmark workloads.

Each workload is a pair of functions over public ``repro`` callables:

* ``build(seed, scale)`` generates the inputs (catalogs, arrival
  streams, scan specs) inside an ``id_scope`` — this is what
  ``setup_s`` times;
* ``run(inputs)`` is the timed phase.  It hands the program only the
  generated inputs and returns a :class:`PassResult` holding the raw
  engine results; :func:`check` (untimed) turns those into pass/fail
  counts and a ``float.hex`` digest.

Two clocks: everything named ``sim_*``/``*_vs`` is *virtual* time of
the modelled 8-CPU/4-disk machine and is a pure function of the seed;
wall time is measured by the caller around ``build`` and ``run``.

Offered rates are frozen constants (``*_RATE``/``*_MU`` below), never
re-derived from a capacity probe, so a behaviour change cannot silently
change the offered load.  Arrivals are virtual stamps, so the open-loop
generator cannot run late.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from e2e_stats import percentile
from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core.balance import intra_time
from repro.core.ids import id_scope
from repro.core.schedulers import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
)
from repro.faults import RetryPolicy, preset_schedule
from repro.obs import Tracer
from repro.optimizer import (
    OptimizerMode,
    Query,
    TwoPhaseOptimizer,
    plan_shape_key,
    rewire_dependencies,
)
from repro.plans import fragment_plan
from repro.plans.costing import estimate_plan
from repro.recovery import RecoveryManager
from repro.service import (
    BalanceAwareAdmission,
    FifoAdmission,
    QueryService,
    mixed_tenant_config,
    poisson_stream,
)
from repro.service.arrivals import clear_pool_cache
from repro.sim import MicroSimulator
from repro.workloads import (
    WorkloadConfig,
    WorkloadKind,
    chain_join,
    generate_specs,
    star_join,
)

# --------------------------------------------------------------------------
# frozen workload constants
# --------------------------------------------------------------------------

#: serve_queries: queries per pass, the frozen capacity of the two-tenant
#: mix (queries/s a closed batch sustains, seeds 0-3) and the frozen
#: offered rate.  rho is ~0.62, not 0.8: at 0.8 the tail of a 500-query
#: stream is one or two random bursts and no latency figure is stable
#: across seeds (p95 spread ~70%), while 0.62 still keeps both resources
#: above 40% busy so IO/CPU pairing stays live.
QUERIES_PER_PASS = 500
QUERY_MU = 0.97
QUERY_RATE = 0.6
#: Response-time SLO of a query, as a multiple of its fragments' summed
#: stand-alone time (the stretch ``repro.service.arrivals`` uses).
SLO_STRETCH = 6.0
#: SLO-miss share a rung may show and still count as "in SLO".
SLO_MISS_LIMIT = 0.20

#: serve_sweep: stream length per rung, the frozen capacity of the
#: ETL/OLAP mix under this gate (subs/s) and the offered-load ladder.
SWEEP_SUBMISSIONS = 1000
SWEEP_MU = 0.295
SWEEP_RHOS = (0.5, 0.8, 0.95, 1.1, 1.5, 3.0)

#: optimize_bushy: rounds per pass and the optbench row scales that keep
#: the 8-relation bushy search tractable.
BUSHY_ROUNDS = 3
STAR_DIMENSIONS = (3, 5, 7)
CHAIN_RELATIONS = (4, 6, 8)
BUSHY_MODES = (OptimizerMode.BUSHY_PAR, OptimizerMode.LEFT_DEEP_SEQ)

#: micro_hooks: tasks, page cap, engine seeds per pass and the virtual
#: horizon the ``mixed`` fault preset is spread over.
HOOK_TASKS = 40
HOOK_MAX_PAGES = 2000
HOOK_SEEDS = 4
HOOK_HORIZON = 60.0


@dataclass
class PassResult:
    """What one timed pass produced (raw, unchecked).

    Attributes:
        ops: operations the pass performed (the workload's unit).
        results: the engine/optimizer/service result objects, in order.
        extra: workload-specific context :func:`check` needs.
    """

    ops: int
    results: list
    extra: dict = field(default_factory=dict)


@dataclass
class Checked:
    """Output checks and virtual-time figures of one pass.

    ``attempted``/``failed`` count operations; ``problems`` names each
    failed check.  ``virtual`` holds the deterministic virtual-clock
    figures, ``counts`` the exact per-layer counts, ``digest`` the
    sha256 of the ``float.hex`` rendering of every virtual result.
    """

    attempted: int
    failed: int
    problems: list[str]
    virtual: dict[str, float]
    counts: dict[str, float]
    digest: str
    rungs: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and how to build/run/check it."""

    name: str
    why: str
    op: str
    build: Callable[[int, float], object]
    run: Callable[[object], PassResult]
    check: Callable[[object, PassResult], Checked]
    #: Optional untimed cross-check run once per process:
    #: ``inputs -> (operations attempted, problems found)``.
    verify: Callable[[object], tuple[int, list[str]]] | None = None


def _hx(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _sha(rows: list) -> str:
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()
    ).hexdigest()


def _rank(values: list[float], p: int) -> float:
    """Nearest-rank percentile of an unsorted sample (0 if empty)."""
    return percentile(sorted(values), p)


def _knee(ladder: list[tuple[float, float]]) -> float:
    """Offered load at which the SLO-miss share crosses the limit.

    ``ladder`` is ``(rho, miss share)`` by rising rho.  The crossing is
    interpolated linearly between the last rung inside the limit and the
    first outside it (from the origin if the first rung is outside), so
    the figure moves smoothly instead of jumping a whole rung; a ladder
    that never leaves the limit reports its top rung.
    """
    previous = (0.0, 0.0)
    for rho, miss in ladder:
        if miss > SLO_MISS_LIMIT:
            (rho0, miss0) = previous
            return rho0 + (rho - rho0) * (SLO_MISS_LIMIT - miss0) / (miss - miss0)
        previous = (rho, miss)
    return previous[0]


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def _busy_share(schedules: list, resource: str) -> float:
    """Elapsed-weighted mean of ``cpu_utilization``/``io_utilization``."""
    elapsed = sum(s.elapsed for s in schedules)
    return sum(getattr(s, resource) * s.elapsed for s in schedules) / elapsed


#: A closed batch carries no deadlines and is offered exactly what the
#: machine takes, so both serving figures read 1 on it by definition.
_NO_DEADLINES = {"sim_slo_share": 1.0, "sim_max_rho_in_slo": 1.0}


# --------------------------------------------------------------------------
# serve_queries — the full request path
# --------------------------------------------------------------------------


@dataclass
class _QueryStream:
    schemas: dict
    optimizers: dict
    items: list  # (name, tenant, Query, arrival)


def _subquery(schema, rng, tenant: str) -> Query:
    """A connected 3-6-relation sub-query of a tenant's schema."""
    full = schema.query
    k = int(rng.integers(3, 7))
    if tenant == "wide":  # star: the fact table plus k-1 dimensions
        picks = sorted(rng.choice(len(full.relations) - 1, size=k - 1, replace=False))
        relations = ["fact"] + [full.relations[1 + int(p)] for p in picks]
    else:  # chain: a contiguous run of k relations
        start = int(rng.integers(0, len(full.relations) - k + 1))
        relations = list(full.relations[start : start + k])
    inside = set(relations)
    joins = [
        j for j in full.joins if j.left_rel in inside and j.right_rel in inside
    ]
    return Query(relations=relations, joins=joins)


def build_serve_queries(seed: int, scale: float) -> _QueryStream:
    rng = np.random.default_rng(seed)
    schemas = {
        # IO-bound fragments (~40-65 ios/s): four 2 kB rows per page.
        "wide": star_join(6, payload=2000, seed=seed),
        # CPU-bound fragments (~2-18 ios/s): selective joins of thin rows.
        "narrow": chain_join(7, payload=40, key_range=400, seed=seed + 1),
    }
    clock = 0.0
    items = []
    for i in range(_scaled(QUERIES_PER_PASS, scale, 20)):
        tenant = "wide" if rng.random() < 0.5 else "narrow"
        clock += float(rng.exponential(1.0 / QUERY_RATE))
        items.append((f"q{i}", tenant, _subquery(schemas[tenant], rng, tenant), clock))
    # One optimizer per catalog, shared by every query of the pass
    # (Section 4's multi-user mode); rebuilt per pass because its node
    # memo is keyed on ids that restart with the pass's id_scope.
    optimizers = {t: TwoPhaseOptimizer(s.catalog) for t, s in schemas.items()}
    return _QueryStream(schemas, optimizers, items)


def wire_tasks(name: str, fragments, arrival: float) -> list:
    """Fragments -> arrival-stamped scheduler tasks with intact edges."""
    named = [
        f.to_task(name=f"{name}/frag{f.fragment_id}") for f in fragments.fragments
    ]
    task_of = {
        f.fragment_id: t.task_id for f, t in zip(fragments.fragments, named)
    }
    wired = [
        t.with_dependencies(task_of[d] for d in f.depends_on)
        for f, t in zip(fragments.fragments, named)
    ]
    return rewire_dependencies(wired, [t.with_arrival(arrival) for t in wired])


def run_serve_queries(inputs: _QueryStream) -> PassResult:
    service = QueryService(
        admission=BalanceAwareAdmission(),
        scheduler=InterWithAdjPolicy(),
        queue_capacity=64,
        max_inflight_fragments=8,
    )
    n_fragments = 0
    for name, tenant, query, arrival in inputs.items:
        optimizer = inputs.optimizers[tenant]
        plan = optimizer.choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
        estimate = estimate_plan(
            plan,
            optimizer.catalog,
            machine=optimizer.machine,
            cache=optimizer.caches.node_estimates,
        )
        tasks = wire_tasks(name, fragment_plan(plan, estimate), arrival)
        n_fragments += len(tasks)
        ideal = sum(intra_time(t, optimizer.machine) for t in tasks)
        service.submit(
            name,
            tasks,
            tenant=tenant,
            arrival_time=arrival,
            relative_deadline=SLO_STRETCH * ideal,
        )
    result = service.run_submitted()
    stats = [inputs.optimizers[t].cache_stats.as_dict() for t in ("wide", "narrow")]
    return PassResult(
        ops=len(inputs.items),
        results=[result],
        extra={"fragments": n_fragments, "optimizer_stats": stats},
    )


# --------------------------------------------------------------------------
# serve_sweep — the lambda ladder, no optimizer
# --------------------------------------------------------------------------


def build_serve_sweep(seed: int, scale: float) -> list:
    clear_pool_cache()  # every pass pays the cold task-pool build
    config = mixed_tenant_config(_scaled(SWEEP_SUBMISSIONS, scale, 40))
    return [
        (rho, poisson_stream(rate=rho * SWEEP_MU, seed=seed, config=config))
        for rho in SWEEP_RHOS
    ]


def run_serve_sweep(streams: list) -> PassResult:
    results, rungs = [], []
    for admission in (FifoAdmission, BalanceAwareAdmission):
        service = QueryService(
            admission=admission(),
            scheduler=InterWithAdjPolicy(),
            queue_capacity=32,
            max_inflight_fragments=6,
            retry=RetryPolicy(max_retries=6, base_delay=0.5, max_delay=8.0),
            deadline_policy="shed",
            deadline_grace=5.0,
        )
        for rho, stream in streams:
            results.append(service.run(stream))
            rungs.append(rho)
    return PassResult(
        ops=sum(len(stream) for __, stream in streams) * 2,
        results=results,
        extra={"rungs": rungs},
    )


def _service_rows(result) -> list:
    """``float.hex`` rows of everything one serving run decided."""
    rows = [result.admission_name, _hx(result.elapsed), result.decide_rounds]
    for o in result.outcomes:
        rows.append(
            [
                o.submission.name,
                o.status,
                _hx(o.admitted_at),
                _hx(o.finished_at),
                _hx(o.rejected_at),
                _hx(o.cancelled_at),
            ]
        )
    rows.append(_hx(result.metrics.cpu_utilization))
    rows.append(_hx(result.metrics.io_utilization))
    return rows


def _add_optimizer_stats(counts: dict, all_stats: list) -> None:
    for stats in all_stats:
        for key, value in stats.items():
            counts[f"optimizer.{key}"] = counts.get(f"optimizer.{key}", 0) + value


def check_service(inputs, done: PassResult) -> Checked:
    """Submission conservation per run; misses count refusals and cancels."""
    problems: list[str] = []
    failed = 0
    rows, responses, slowdowns, waits, rungs = [], [], [], [], []
    totals = dict.fromkeys(
        ("offered", "refused", "in_slo", "retries", "rounds", "adjustments"), 0.0
    )
    labels = done.extra.get("rungs") or [QUERY_RATE / QUERY_MU]
    for rho, result in zip(labels, done.results):
        statuses = [o.status for o in result.outcomes]
        count = {
            s: statuses.count(s)
            for s in ("completed", "rejected", "deadline", "degraded")
        }
        offered = len(result.outcomes)
        if sum(count.values()) != offered:
            failed += abs(offered - sum(count.values()))
            problems.append(
                f"{result.admission_name}@{rho:g}: {offered} offered but "
                f"{sum(count.values())} accounted for"
            )
        finished = [o for o in result.outcomes if o.finished_at is not None]
        run_responses = [o.response_time for o in finished]
        responses += run_responses
        waits += [o.queueing_delay for o in finished]
        # Every deadline is arrival + SLO_STRETCH x stand-alone time, so
        # the stand-alone time is read back off the deadline.
        slowdowns += [
            o.response_time
            * SLO_STRETCH
            / (o.submission.deadline - o.submission.arrival_time)
            for o in finished
        ]
        # Refused and cancelled submissions never finish: slo_missed
        # counts them as misses.
        misses = sum(1 for o in result.outcomes if o.slo_missed)
        rungs.append(
            {
                "admission": result.admission_name,
                "rho": rho,
                "offered": offered,
                **count,
                "p95_response_vs": _rank(run_responses, 95),
                "slo_miss_share": misses / offered,
                "elapsed_vs": result.elapsed,
            }
        )
        totals["offered"] += offered
        totals["refused"] += count["rejected"] + count["deadline"]
        totals["in_slo"] += offered - misses
        totals["retries"] += result.metrics.overall.retries
        totals["rounds"] += result.decide_rounds
        totals["adjustments"] += result.schedule.adjustments
        rows.append(_service_rows(result))
    schedules = [result.schedule for result in done.results]
    counts = {
        "service.decide_rounds": totals["rounds"],
        "service.queue_wait_p95_vs": _rank(waits, 95),
        "service.response_p95_vs": _rank(responses, 95),
        "service.refused_share": totals["refused"] / totals["offered"],
        "service.retries": totals["retries"],
        "core.adjustments": totals["adjustments"],
        "sim.fluid.elapsed_vs": sum(s.elapsed for s in schedules),
        "sim.fluid.cpu_utilization": _busy_share(schedules, "cpu_utilization"),
        "sim.fluid.io_utilization": _busy_share(schedules, "io_utilization"),
        "plans.fragments": float(done.extra.get("fragments", 0)),
    }
    _add_optimizer_stats(counts, done.extra.get("optimizer_stats", []))
    # The gate under test is the balance-aware one; FIFO is the control.
    ladder = [
        (r["rho"], r["slo_miss_share"]) for r in rungs if r["admission"] == "BALANCE"
    ]
    return Checked(
        attempted=done.ops,
        failed=failed,
        problems=problems,
        virtual={
            "sim_stretch": _rank(slowdowns, 50),
            "sim_slo_share": totals["in_slo"] / totals["offered"],
            "sim_max_rho_in_slo": _knee(ladder),
        },
        counts=counts,
        digest=_sha(rows),
        rungs=rungs,
    )


# --------------------------------------------------------------------------
# optimize_bushy — Section 4 single-user, cold caches
# --------------------------------------------------------------------------


def build_optimize_bushy(seed: int, scale: float) -> list:
    stars = STAR_DIMENSIONS if scale >= 1 else STAR_DIMENSIONS[:1]
    chains = CHAIN_RELATIONS if scale >= 1 else CHAIN_RELATIONS[:1]
    schemas = [
        star_join(d, fact_rows=400, dimension_rows=80, seed=seed) for d in stars
    ]
    schemas += [chain_join(n, rows_per_relation=300, seed=seed) for n in chains]
    return schemas


def _search_all(schemas: list, *, fast_path: bool) -> tuple[list, list]:
    optimized, stats = [], []
    for schema in schemas:
        for mode in BUSHY_MODES:
            optimizer = TwoPhaseOptimizer(schema.catalog, fast_path=fast_path)
            optimized.append(optimizer.optimize(schema.query, mode=mode))
            stats.append(optimized[-1].stats)
    return optimized, stats


def run_optimize_bushy(schemas: list) -> PassResult:
    results, stats = [], []
    for __ in range(BUSHY_ROUNDS):
        optimized, round_stats = _search_all(schemas, fast_path=True)
        results += optimized
        stats += round_stats
    return PassResult(ops=len(results), results=results, extra={"optimizer_stats": stats})


def _plan_rows(optimized: list) -> list:
    return [
        [o.mode.value, plan_shape_key(o.plan), _hx(o.predicted_elapsed)]
        for o in optimized
    ]


def check_optimize_bushy(schemas: list, done: PassResult) -> Checked:
    """Every round must repeat round 0's plan shapes and hex costs."""
    per_round = len(schemas) * len(BUSHY_MODES)
    rows = _plan_rows(done.results)
    problems = [
        f"plan {i % per_round} of round {i // per_round} differs from round 0"
        for i in range(per_round, len(rows))
        if rows[i] != rows[i % per_round]
    ]
    counts: dict[str, float] = {}
    _add_optimizer_stats(counts, done.extra["optimizer_stats"])
    schedules = [o.parallel.schedule for o in done.results]
    counts["core.adjustments"] = float(sum(s.adjustments for s in schedules))
    counts["sim.fluid.elapsed_vs"] = sum(s.elapsed for s in schedules)
    counts["sim.fluid.cpu_utilization"] = _busy_share(schedules, "cpu_utilization")
    counts["sim.fluid.io_utilization"] = _busy_share(schedules, "io_utilization")
    cost = {
        mode: sum(o.predicted_elapsed for o in done.results if o.mode == mode)
        for mode in BUSHY_MODES
    }
    return Checked(
        attempted=done.ops,
        failed=len(problems),
        problems=problems,
        virtual={
            # Section 4's comparison: what the bushy/parcost choices are
            # predicted to take against the left-deep/seqcost choices.
            "sim_stretch": cost[OptimizerMode.BUSHY_PAR]
            / cost[OptimizerMode.LEFT_DEEP_SEQ],
            **_NO_DEADLINES,
        },
        counts=counts,
        digest=_sha(rows),
    )


def verify_optimize_bushy(schemas: list) -> tuple[int, list[str]]:
    """One untimed round with ``fast_path=False``: same shapes, same hex costs."""
    fast, __ = _search_all(schemas, fast_path=True)
    slow, __ = _search_all(schemas, fast_path=False)
    return len(fast), [
        f"plan {i}: fast path chose {a} but the exhaustive search chose {b}"
        for i, (a, b) in enumerate(zip(_plan_rows(fast), _plan_rows(slow)))
        if a != b
    ]


# --------------------------------------------------------------------------
# micro_fig7 / micro_hooks — the page-level engine, hot and cold
# --------------------------------------------------------------------------


def _pages(grid: list) -> int:
    return sum(spec.n_pages for specs in grid for spec in specs)


def _fig7_policies() -> list:
    return [
        IntraOnlyPolicy(integral=True),
        InterWithoutAdjPolicy(integral=True),
        InterWithAdjPolicy(integral=True),
    ]


def build_micro_fig7(seed: int, scale: float) -> dict:
    machine = paper_machine()
    config = WorkloadConfig(max_pages=_scaled(10_000, scale, 200))
    return {
        "machine": machine,
        "seed": seed,
        "grid": [
            generate_specs(kind, seed=seed, machine=machine, config=config)
            for kind in WorkloadKind
        ],
    }


def run_micro_fig7(inputs: dict) -> PassResult:
    results, ran = [], []
    for specs in inputs["grid"]:
        for policy in _fig7_policies():
            simulator = MicroSimulator(inputs["machine"], seed=inputs["seed"])
            results.append(simulator.run(list(specs), policy))
            ran.append(specs)
    return PassResult(ops=_pages(ran), results=results, extra={"specs": ran})


def build_micro_hooks(seed: int, scale: float) -> dict:
    machine = paper_machine()
    config = WorkloadConfig(
        n_tasks=_scaled(HOOK_TASKS, scale, 4),
        max_pages=_scaled(HOOK_MAX_PAGES, scale, 200),
    )
    seeds = [seed * HOOK_SEEDS + i for i in range(HOOK_SEEDS)]
    return {
        "machine": machine,
        "seeds": seeds,
        "faults": preset_schedule("mixed", horizon=HOOK_HORIZON * min(1.0, scale)),
        "grid": [
            generate_specs(WorkloadKind.RANDOM, seed=s, machine=machine, config=config)
            for s in seeds
        ],
    }


#: The four micro-engine hooks, by the layer that owns each.
HOOKS = ("faults", "recovery", "obs", "check")


def run_micro_hooks(inputs: dict, hooks: tuple[str, ...] = HOOKS) -> PassResult:
    """The 40-task mix with the named hooks on (all four by default)."""
    results, probes = [], []
    for seed, specs in zip(inputs["seeds"], inputs["grid"]):
        tracer = Tracer() if "obs" in hooks else None
        invariants = InvariantChecker(collect=True) if "check" in hooks else None
        recovery = RecoveryManager() if "recovery" in hooks else None
        simulator = MicroSimulator(
            inputs["machine"],
            seed=seed,
            faults=inputs["faults"] if "faults" in hooks else None,
            fault_seed=seed,
            recovery=recovery,
            tracer=tracer,
            invariants=invariants,
        )
        results.append(simulator.run(list(specs), InterWithAdjPolicy(integral=True)))
        probes.append((tracer, invariants, recovery))
    return PassResult(
        ops=_pages(inputs["grid"]),
        results=results,
        extra={"specs": inputs["grid"], "probes": probes},
    )


def _schedule_rows(result) -> list:
    rows = [result.policy_name, _hx(result.elapsed), result.adjustments, _hx(result.io_served)]
    rows += [
        [r.task.name, _hx(r.started_at), _hx(r.finished_at)] for r in result.records
    ]
    rows += [[c.task.name, _hx(c.cancelled_at), c.reason] for c in result.cancel_records]
    return rows


def check_micro(inputs: dict, done: PassResult) -> Checked:
    """Page conservation on healthy runs, task conservation on faulted ones."""
    machine = inputs["machine"]
    problems: list[str] = []
    failed = 0
    rows = []
    floor = 0.0
    counts = dict.fromkeys(
        ("faults.injected", "recovery.checkpoints", "obs.events", "check.violations"),
        0.0,
    )
    probes = done.extra.get("probes") or [(None, None, None)] * len(done.results)
    for specs, result, (tracer, invariants, recovery) in zip(
        done.extra["specs"], done.results, probes
    ):
        pages = sum(s.n_pages for s in specs)
        if result.fault_log is not None:
            counts["faults.injected"] += result.fault_log.faults_injected
        elif int(result.io_served) != pages:
            failed += abs(int(result.io_served) - pages)
            problems.append(
                f"{result.policy_name}: {int(result.io_served)} ios served "
                f"for {pages} pages"
            )
        accounted = len(result.records) + len(result.cancel_records)
        if accounted != len(specs):
            failed += pages
            problems.append(
                f"{result.policy_name}: {accounted} of {len(specs)} tasks "
                "recorded or cancelled"
            )
        if invariants is not None and not invariants.ok:
            failed += len(invariants.violations)
            counts["check.violations"] += len(invariants.violations)
            problems += invariants.violations[:3]
        if tracer is not None:
            counts["obs.events"] += len(tracer)
        if recovery is not None:
            counts["recovery.checkpoints"] += recovery.captures
        tasks = [spec.to_task(machine) for spec in specs]
        # No schedule beats the busier resource running flat out.
        floor += max(
            sum(t.seq_time for t in tasks) / machine.processors,
            sum(t.io_count for t in tasks) / machine.io_bandwidth,
        )
        rows.append(_schedule_rows(result))
    elapsed = sum(r.elapsed for r in done.results)
    counts["sim.micro.elapsed_vs"] = elapsed
    counts["sim.micro.pages"] = float(sum(r.io_served for r in done.results))
    counts["sim.micro.adjust_rounds"] = float(sum(r.adjustments for r in done.results))
    counts["core.adjustments"] = counts["sim.micro.adjust_rounds"]
    counts["sim.micro.cpu_utilization"] = _busy_share(done.results, "cpu_utilization")
    counts["sim.micro.io_utilization"] = _busy_share(done.results, "io_utilization")
    return Checked(
        attempted=done.ops,
        failed=min(failed, done.ops),
        problems=problems,
        virtual={"sim_stretch": elapsed / floor, **_NO_DEADLINES},
        counts=counts,
        digest=_sha(rows),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve_queries",
            "the only workload where every layer of the request path runs "
            "(optimize, fragment, submit, gate, fluid engine, collect); says "
            "which layer owns the wall clock",
            "query",
            build_serve_queries,
            run_serve_queries,
            check_service,
        ),
        Workload(
            "serve_sweep",
            "the lambda ladder with no optimizer, so gate, inner policy and "
            "fluid engine do the work; calm rungs exercise pairing, rho=3.0 "
            "keeps the congestion regime",
            "submission",
            build_serve_sweep,
            run_serve_sweep,
            check_service,
        ),
        Workload(
            "optimize_bushy",
            "optimizer-dominated with parcost running the fluid engine "
            "nested inside; cold and bushy where serve_queries is warm and "
            "left-deep, so a cache that helps one and costs the other shows",
            "plan search",
            build_optimize_bushy,
            run_optimize_bushy,
            check_optimize_bushy,
            verify_optimize_bushy,
        ),
        Workload(
            "micro_fig7",
            "the sim.micro hot loop and nothing else: the Figure-7 grid at "
            "paper scale, page- and range-partitioned scans, all three "
            "policies, every hook off",
            "page",
            build_micro_fig7,
            run_micro_fig7,
            check_micro,
        ),
        Workload(
            "micro_hooks",
            "the cold/hook path of the code micro_fig7 runs hot: faults, "
            "tracer, invariants and checkpoints all on, so folding the two "
            "paths together shows its cost on each side",
            "page",
            build_micro_hooks,
            run_micro_hooks,
            check_micro,
        ),
    )
}


def build(workload: Workload, seed: int, scale: float = 1.0):
    """Generate a workload's inputs from ``seed`` inside a fresh id scope."""
    with id_scope():
        return workload.build(seed, scale)


def run(workload: Workload, inputs) -> PassResult:
    """The timed phase: ids restart so every pass is bit-identical."""
    with id_scope():
        return workload.run(inputs)


