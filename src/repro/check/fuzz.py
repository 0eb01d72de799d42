"""Seeded property-based fuzzer with shrinking (repro.check pillar 3).

A :class:`Scenario` is a plain-data description of one randomized
workload: task rates, sizes, io patterns, partitioning styles, arrival
offsets, a scheduling policy, and optionally a fault schedule.
:func:`generate_scenario` derives one deterministically from a seed;
:func:`run_case` runs it through every applicable invariant and
differential check and returns failure strings; :func:`shrink` greedily
minimizes a failing scenario (drop tasks, halve sizes, simplify
patterns, drop faults) while it keeps failing, yielding the smallest
reproducer to debug.  ``python -m repro check`` drives all of this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..config import MachineConfig, paper_machine
from ..core import InterWithAdjPolicy, policy_by_name
from ..core.task import IOPattern
from ..errors import ReproError
from ..sim.fluid import FluidSimulator
from ..sim.micro import MicroSimulator, spec_for_io_rate
from .differential import (
    check_executor_vs_protocol,
    check_micro_vs_fluid,
    check_optimizer_fast_path,
    check_recursion_vs_fluid,
)
from .invariants import InvariantChecker

#: Candidates :func:`shrink` tries before it returns what it has.
SHRINK_STEPS = 200

#: The policies a scenario draws from, by paper name; the order fixes
#: which policy each seed gets.
_POLICY_DRAW = ("INTER-WITH-ADJ", "INTRA-ONLY", "INTER-WITHOUT-ADJ")


@dataclass(frozen=True)
class SpecParams:
    """One fuzzed task, as shrinkable plain data."""

    io_rate: float
    n_pages: int
    pattern: str = "seq"  # "seq" | "random"
    partitioning: str = "page"  # "page" | "range"
    arrival: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """One fuzz case; printable as a minimal reproducer."""

    seed: int
    specs: tuple[SpecParams, ...]
    policy: str = "INTER-WITH-ADJ"
    faults: bool = False

    def describe(self) -> str:
        """Render the scenario as a paste-able reproducer block."""
        lines = [f"Scenario(seed={self.seed}, policy={self.policy!r}, "
                 f"faults={self.faults})"]
        for i, s in enumerate(self.specs):
            lines.append(
                f"  t{i}: io_rate={s.io_rate:.2f} n_pages={s.n_pages} "
                f"pattern={s.pattern} partitioning={s.partitioning} "
                f"arrival={s.arrival:g}"
            )
        return "\n".join(lines)


def generate_scenario(seed: int) -> Scenario:
    """Deterministically derive a scenario from one seed."""
    rng = random.Random(seed)
    n_tasks = rng.randint(2, 6)
    specs = []
    for __ in range(n_tasks):
        pattern = "random" if rng.random() < 0.25 else "seq"
        # Random io is capped by the disks' random service rate;
        # sequential by the almost-sequential rate.
        rate = rng.uniform(5.0, 30.0 if pattern == "random" else 55.0)
        partitioning = "range" if rng.random() < 0.3 else "page"
        arrival = round(rng.uniform(0.0, 2.0), 3) if rng.random() < 0.3 else 0.0
        specs.append(
            SpecParams(
                io_rate=round(rate, 2),
                n_pages=rng.randint(50, 400),
                pattern=pattern,
                partitioning=partitioning,
                arrival=arrival,
            )
        )
    return Scenario(
        seed=seed,
        specs=tuple(specs),
        policy=rng.choice(_POLICY_DRAW),
        faults=rng.random() < 0.15,
    )


def _build_specs(scenario: Scenario, machine: MachineConfig):
    return [
        spec_for_io_rate(
            f"t{i}",
            machine,
            io_rate=p.io_rate,
            n_pages=p.n_pages,
            pattern=IOPattern.RANDOM if p.pattern == "random" else IOPattern.SEQUENTIAL,
            partitioning=p.partitioning,
            arrival_time=p.arrival,
        )
        for i, p in enumerate(scenario.specs)
    ]


def run_case(
    scenario: Scenario,
    machine: MachineConfig | None = None,
    *,
    executor: bool = False,
) -> list[str]:
    """All applicable checks for one scenario; returns failure strings."""
    machine = machine or paper_machine()
    failures: list[str] = []
    try:
        specs = _build_specs(scenario, machine)
    except ReproError as exc:
        return [f"scenario build failed: {exc}"]
    tasks = [s.to_task(machine) for s in specs]
    policy = policy_by_name(scenario.policy, integral=True)
    invariants = InvariantChecker(collect=True)

    if scenario.faults:
        # Fault runs exercise the invariants under crashes and stalls;
        # the fluid engine has no fault model, so no differential.
        from ..faults.schedule import random_schedule

        schedule = random_schedule(
            scenario.seed, task_names=tuple(s.name for s in specs)
        )
        try:
            MicroSimulator(machine, faults=schedule, invariants=invariants).run(
                specs, policy
            )
        except ReproError as exc:
            failures.append(f"micro fault run raised: {exc}")
        failures.extend(invariants.violations)
        return failures

    try:
        failures.extend(
            check_micro_vs_fluid(
                specs, machine, policy=policy, invariants=invariants
            )
        )
    except ReproError as exc:
        failures.append(f"engine run raised: {exc}")
    failures.extend(invariants.violations)

    if all(p.arrival == 0.0 for p in scenario.specs):
        # The T_n(S) recursion has no arrival model.
        try:
            failures.extend(check_recursion_vs_fluid(tasks, machine))
        except ReproError as exc:
            failures.append(f"recursion check raised: {exc}")

    if scenario.seed % 5 == 0:
        failures.extend(_optimizer_case(scenario.seed))

    if executor and scenario.seed % 25 == 0:
        rng = random.Random(scenario.seed ^ 0xE0)
        n_rows = rng.randrange(200, 500)
        parallelism = rng.randint(1, 3)
        # Each step changes the degree, and the first keeps two or more
        # slaves running so the second is sure to fire.
        first = rng.choice([p for p in (2, 3, 4) if p != parallelism])
        second = rng.choice([p for p in (1, 2, 3, 4) if p != first])
        failures.extend(
            check_executor_vs_protocol(
                n_rows=n_rows,
                parallelism=parallelism,
                adjustments=(
                    (rng.uniform(0.1, 0.5), first),
                    (rng.uniform(0.5, 1.0), second),
                ),
            )
        )
    return failures


def random_join_schema(seed: int):
    """One seeded random chain or star join (schema, catalog, query)."""
    from ..workloads.queries import chain_join, star_join

    rng = random.Random(seed ^ 0x0F)
    if rng.random() < 0.5:
        return chain_join(
            rng.randint(3, 5), rows_per_relation=rng.randrange(100, 600), seed=seed
        )
    return star_join(
        rng.randint(2, 4),
        fact_rows=rng.randrange(200, 800),
        dimension_rows=rng.randrange(40, 160),
        seed=seed,
    )


def _optimizer_case(seed: int) -> list[str]:
    """Fast-path-vs-reference on one seeded random query."""
    return check_optimizer_fast_path(random_join_schema(seed))


# ---------------------------------------------------------------------------
# shrinking


def _candidates(scenario: Scenario):
    """Simplification steps, most aggressive first."""
    specs = scenario.specs
    if len(specs) > 1:
        for i in range(len(specs)):
            yield replace(scenario, specs=specs[:i] + specs[i + 1 :])
    if scenario.faults:
        yield replace(scenario, faults=False)
    for i, p in enumerate(specs):
        if p.n_pages > 20:
            yield replace(
                scenario,
                specs=specs[:i]
                + (replace(p, n_pages=max(10, p.n_pages // 2)),)
                + specs[i + 1 :],
            )
        if p.arrival > 0:
            yield replace(
                scenario,
                specs=specs[:i] + (replace(p, arrival=0.0),) + specs[i + 1 :],
            )
        if p.pattern == "random":
            yield replace(
                scenario,
                specs=specs[:i] + (replace(p, pattern="seq"),) + specs[i + 1 :],
            )
        if p.partitioning == "range":
            yield replace(
                scenario,
                specs=specs[:i]
                + (replace(p, partitioning="page"),)
                + specs[i + 1 :],
            )
    if scenario.policy != "INTRA-ONLY":
        yield replace(scenario, policy="INTRA-ONLY")


def shrink(
    scenario: Scenario,
    machine: MachineConfig | None = None,
    *,
    run=None,
) -> Scenario:
    """Greedily minimize a failing scenario while it keeps failing.

    Tries at most :data:`SHRINK_STEPS` candidates.  ``run`` defaults to
    :func:`run_case`; tests inject predicates to exercise the shrinker
    without needing a real engine bug on hand.
    """
    machine = machine or paper_machine()
    if run is None:
        run = run_case
    if not run(scenario, machine):
        return scenario
    current = scenario
    steps = 0
    improved = True
    while improved and steps < SHRINK_STEPS:
        improved = False
        for candidate in _candidates(current):
            steps += 1
            if run(candidate, machine):
                current = candidate
                improved = True
                break
            if steps >= SHRINK_STEPS:
                break
    return current


# ---------------------------------------------------------------------------
# fuzz campaign + smoke


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    cases: int = 0
    failures: list[tuple[Scenario, list[str]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    n: int,
    *,
    seed: int = 0,
    executor: bool = False,
    do_shrink: bool = False,
    progress=None,
) -> FuzzReport:
    """Run ``n`` seeded cases starting at ``seed`` on the paper machine."""
    machine = paper_machine()
    report = FuzzReport()
    for i in range(n):
        scenario = generate_scenario(seed + i)
        failures = run_case(scenario, machine, executor=executor)
        report.cases += 1
        if failures:
            if do_shrink:
                scenario = shrink(scenario, machine)
                failures = run_case(scenario, machine)
            report.failures.append((scenario, failures))
        if progress is not None and (i + 1) % 25 == 0:
            progress(i + 1, n, len(report.failures))
    return report


def smoke_lines(seed: int = 0) -> list[str]:
    """One quick pass over every pillar; lines for the CLI smoke."""
    machine = paper_machine()
    lines: list[str] = []

    def report(label: str, failures: list[str]) -> None:
        if failures:
            lines.append(f"smoke failed: {label}: {failures[0]}")
        else:
            lines.append(f"smoke ok: {label}")

    inv = InvariantChecker(collect=True)
    scenario = generate_scenario(seed)
    report("invariants+micro-vs-fluid", run_case(scenario, machine))

    from ..workloads.mixes import WorkloadKind, generate_specs, generate_tasks

    for kind in (WorkloadKind.ALL_IO, WorkloadKind.RANDOM):
        specs = generate_specs(kind, seed=seed, machine=machine)
        report(
            f"differential {kind.name.lower()}",
            check_micro_vs_fluid(specs, machine, invariants=inv),
        )
    report("invariant hooks", [] if inv.ok else inv.violations)
    # QueryService's policy, the continuous INTER-WITH-ADJ, on fluid:
    # RANDOM at seed 1 has a balance point with x < 1 to seat.
    serving = InvariantChecker(collect=True)
    tasks = generate_tasks(WorkloadKind.RANDOM, seed=1, machine=machine)
    FluidSimulator(machine, invariants=serving).run(tasks, InterWithAdjPolicy())
    report("serving policy on fluid (continuous INTER-WITH-ADJ)", serving.violations)

    from ..core import make_task

    tasks = [
        make_task("io", io_rate=55.0, seq_time=12.0),
        make_task("cpu", io_rate=8.0, seq_time=20.0),
    ]
    report("recursion-vs-fluid", check_recursion_vs_fluid(tasks, machine))
    report("optimizer fast-path", _optimizer_case(seed))
    report(
        "executor rounds + exactly-once (Figures 5 and 6)",
        check_executor_vs_protocol(
            n_rows=300, parallelism=2, adjustments=((0.25, 4), (0.5, 2))
        ),
    )
    return lines
