"""Differential checks: run the same workload through independent paths.

Each check returns a list of divergence strings (empty = agreement), so
the fuzzer can aggregate them and tests can assert emptiness.  The four
pairs, and what "agreement" means for each:

* **micro vs fluid** — same specs, same integral policy.  The engines
  model the same Section-2 schedule at different granularity (pages vs
  rates), so elapsed time, io utilization and CPU utilization must
  agree to a *bounded* divergence; exact equality is not expected.
  CPU utilization is compared like-with-like in both semantics —
  *occupancy* (processors held, the fluid engine's native integral)
  against occupancy, and *service* (processors computing, the micro
  engine's native per-page sum) against service — now that each engine
  reports both; comparing one engine's occupancy against the other's
  service would diverge by ~0.45 on IO-heavy mixes and told us
  nothing.  See docs/CHECKING.md.
* **recursion vs fluid** — the ``T_n(S)`` closed-form recursion and
  the fluid engine with zero adjustment overhead are the same
  function; they must agree to numerical tolerance (1e-4 relative).
* **optimizer fast path vs reference** — byte-identical plan shape and
  bit-identical parcost on every query; the fast path promises plan
  identity, so *any* difference is a bug.
* **real executor vs protocol semantics** — the multiprocessing
  Figure-5/6 executor must run every round of its adjustment schedule
  and deliver every row exactly once, under both protocols: the same
  exactly-once guarantee the micro engine's conservation invariant
  asserts for the simulated protocol.
"""

from __future__ import annotations

from ..config import MachineConfig, paper_machine
from ..core import InterWithAdjPolicy
from ..core.recursion import elapsed_time_recursion
from ..sim.fluid import FluidSimulator
from ..sim.micro import MicroSimulator

#: Bounded-divergence tolerances for micro-vs-fluid, calibrated over
#: the seeded workload mixes and fuzz campaigns.  Three regimes, from
#: tight to loose (see docs/CHECKING.md for the mechanics):
#:
#: * page-partitioned sequential scans agree tightly (worst observed
#:   rel elapsed 0.17 across the seeded mixes);
#: * random-io tasks diverge more — micro simulates per-disk queueing,
#:   and integral slaves over 4 disks leave disks idle in ways the
#:   fluid bandwidth split cannot see (a lone random scan shows ~0.13);
#: * range-partitioned (Figure 6) scans can phase-lock: contiguous key
#:   intervals over round-robin striping make every slave rotate disks
#:   in step, and when interval starts collide mod ``disks`` one disk
#:   serves two slaves every cycle while another idles (a lone 5-slave
#:   range scan shows ~0.55).  Inherent to the protocol, not a bug —
#:   recorded in ROADMAP "Open items".
REL_ELAPSED_SEQ = 0.25
REL_ELAPSED_RANDOM = 0.45
REL_ELAPSED_RANGE = 0.65
ABS_IO_UTIL = 0.25
ABS_IO_UTIL_LOOSE = 0.35
#: CPU utilization, compared per semantics (occupancy vs occupancy,
#: service vs service).  Worst observed across the seeded mixes (four
#: kinds x four seeds) is 0.026; the loose tier covers random io's
#: disk-queueing artifacts, and the range tier covers Figure-6
#: phase-lock, where slaves hold their processors through serialized
#: disk rotations (worst observed 0.27 over the 100-seed fuzz
#: campaign) — the same protocol artifact behind REL_ELAPSED_RANGE.
ABS_CPU_UTIL = 0.10
ABS_CPU_UTIL_LOOSE = 0.20
ABS_CPU_UTIL_RANGE = 0.35
#: The recursion and overhead-free fluid compute one function: they
#: agree to this relative tolerance.
REL_RECURSION = 1e-4


def check_micro_vs_fluid(
    specs,
    machine: MachineConfig | None = None,
    *,
    policy=None,
    invariants=None,
) -> list[str]:
    """Run ``specs`` through both engines; return divergences past the
    tier constants above (the loosest tier any spec falls in)."""
    from ..core.task import IOPattern

    machine = machine or paper_machine()
    policy = policy or InterWithAdjPolicy(integral=True)
    any_random = any(s.pattern == IOPattern.RANDOM for s in specs)
    any_range = any(s.partitioning == "range" for s in specs)
    rel_elapsed = REL_ELAPSED_SEQ
    abs_cpu_util = ABS_CPU_UTIL
    if any_random:
        rel_elapsed = REL_ELAPSED_RANDOM
        abs_cpu_util = ABS_CPU_UTIL_LOOSE
    if any_range:
        rel_elapsed = REL_ELAPSED_RANGE
        abs_cpu_util = ABS_CPU_UTIL_RANGE
    abs_io_util = ABS_IO_UTIL_LOOSE if any_random or any_range else ABS_IO_UTIL
    tasks = [spec.to_task(machine) for spec in specs]
    micro = MicroSimulator(machine, invariants=invariants).run(specs, policy)
    if invariants is not None:
        invariants.new_run()
    fluid = FluidSimulator(machine, invariants=invariants).run(tasks, policy)
    if invariants is not None:
        invariants.new_run()
    divergences: list[str] = []
    denom = max(fluid.elapsed, 1e-9)
    rel = abs(micro.elapsed - fluid.elapsed) / denom
    if rel > rel_elapsed:
        divergences.append(
            f"micro-vs-fluid elapsed diverges: micro={micro.elapsed:.4f} "
            f"fluid={fluid.elapsed:.4f} (rel {rel:.3f} > {rel_elapsed})"
        )
    d_io = abs(micro.io_utilization - fluid.io_utilization)
    if d_io > abs_io_util:
        divergences.append(
            f"micro-vs-fluid io utilization diverges: "
            f"micro={micro.io_utilization:.3f} "
            f"fluid={fluid.io_utilization:.3f} (delta {d_io:.3f})"
        )
    for semantics, micro_cpu, fluid_cpu in (
        ("occupancy", micro.cpu_utilization_occupancy, fluid.cpu_utilization_occupancy),
        ("service", micro.cpu_utilization_service, fluid.cpu_utilization_service),
    ):
        d_cpu = abs(micro_cpu - fluid_cpu)
        if d_cpu > abs_cpu_util:
            divergences.append(
                f"micro-vs-fluid cpu utilization ({semantics}) diverges: "
                f"micro={micro_cpu:.3f} fluid={fluid_cpu:.3f} (delta {d_cpu:.3f})"
            )
    return divergences


def check_recursion_vs_fluid(
    tasks, machine: MachineConfig | None = None
) -> list[str]:
    """The closed-form recursion and the overhead-free fluid engine,
    equal to :data:`REL_RECURSION` relative."""
    machine = machine or paper_machine()
    recursion = elapsed_time_recursion(list(tasks), machine)
    fluid = (
        FluidSimulator(machine, adjustment_overhead=0.0)
        .run(list(tasks), InterWithAdjPolicy())
        .elapsed
    )
    if abs(fluid - recursion) > REL_RECURSION * max(abs(recursion), 1.0):
        return [
            f"recursion-vs-fluid elapsed diverges: recursion={recursion!r} "
            f"fluid={fluid!r}"
        ]
    return []


def check_optimizer_fast_path(schema) -> list[str]:
    """Fast path must reproduce the reference plan bit-for-bit, in every
    search space."""
    from ..optimizer import (
        OptimizerCaches,
        ParcostObjective,
        enumerate_space,
        parcost,
        plan_shape_key,
    )

    divergences: list[str] = []
    for space in ("left-deep", "right-deep", "bushy"):
        chosen = {}
        for fast_path in (False, True):
            caches = OptimizerCaches() if fast_path else None
            objective = ParcostObjective(schema.catalog, caches=caches)
            stats = caches.stats if caches is not None else None
            plan = enumerate_space(
                schema.query, schema.catalog, objective, space=space, stats=stats
            )
            chosen[fast_path] = (
                plan_shape_key(plan),
                parcost(plan, schema.catalog).hex(),
            )
        if chosen[False] != chosen[True]:
            divergences.append(
                f"optimizer fast path diverges in {space}: "
                f"reference={chosen[False]} fast={chosen[True]}"
            )
    return divergences


def check_executor_vs_protocol(
    *,
    n_rows: int = 400,
    parallelism: int = 2,
    adjustments=(),
) -> list[str]:
    """The real mp executor runs every round and delivers every row once.

    This is the executor-side twin of the micro engine's page
    conservation invariant, under both protocols: a page-partitioned
    sequential scan (Figure 5) and a range-partitioned index scan
    (Figure 6) run the same schedule.  ``adjustments`` are ``(fraction,
    parallelism)`` steps; a step fires once that fraction of the scan's
    pages (index scan: keys) has been read, so the thresholds follow
    the heap's size.  A step fires whenever a slave is still running,
    and a round leaves at least its n' slaves running, so every step
    must run as long as each one but the last keeps two or more.
    """
    from ..catalog import Schema
    from ..parallel import AdjustmentPlan, ParallelIndexScan, ParallelSeqScan
    from ..storage import BTreeIndex, DiskArray, HeapFile

    heap = HeapFile(
        Schema.of(("a", "int4"), ("b", "text")),
        DiskArray(MachineConfig(processors=2, disks=2)),
        name="check",
    )
    heap.insert_many([(i, f"p-{i}" + "x" * 40) for i in range(n_rows)])
    index = BTreeIndex()
    for rid, row in heap.scan():
        index.insert(row[0], rid)
    divergences: list[str] = []
    arms = (("seq", "pages", heap.page_count), ("index", "keys", n_rows))
    for arm, unit, total in arms:
        plans = [
            AdjustmentPlan(after_pages=max(1, int(f * total)), parallelism=p)
            for f, p in adjustments
        ]
        if arm == "seq":
            scan = ParallelSeqScan(heap, parallelism=parallelism, adjustments=plans)
        else:
            scan = ParallelIndexScan(
                heap,
                index,
                low=0,
                high=n_rows - 1,
                parallelism=parallelism,
                adjustments=plans,
            )
        report = scan.run()
        got = sorted(r[0] for r in report.rows)
        if got != list(range(n_rows)):
            missing = sorted(set(range(n_rows)) - set(got))
            extra = sorted(k for k in set(got) if got.count(k) > 1)
            divergences.append(
                f"executor {arm} scan row conservation violated: "
                f"missing={missing[:8]} duplicated={extra[:8]}"
            )
        if report.pages_read != total:
            divergences.append(
                f"executor {arm} scan {unit} diverge: read "
                f"{report.pages_read} of {total}"
            )
        if report.adjustments != len(plans):
            divergences.append(
                f"executor {arm} scan ran {report.adjustments} of "
                f"{len(plans)} adjustment rounds"
            )
    return divergences
