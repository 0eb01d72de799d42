"""ext3 — fault injection: degradation-aware rebalancing and tolerance.

Two experiments on the page-level simulator:

1. **Degradation-aware beats static-B.**  The canonical IO-bound /
   CPU-bound pair (io0 at 55 ios/s, cpu0 at 8 ios/s) runs under a
   scheduled fault: disk 0 drops to 50% bandwidth at t = T/3 (T the
   healthy elapsed time) and stays degraded.  The static arm keeps
   scheduling against the nominal B = 240 ios/s; the degradation-aware
   arm recomputes the IO-CPU balance point from the *measured* per-disk
   bandwidth and shifts processors from the IO-bound scan to the
   CPU-bound one.  The aware arm must finish at least 5% sooner on
   every seed, with every page conserved and no wedged adjustment.

2. **Tolerance under the mixed preset.**  The full chaos workload runs
   under the ``mixed`` preset (degradation + stall + crashes + dropped
   and delayed protocol messages) for three seeds.  Every task must
   complete (page conservation is engine-enforced: completion with a
   duplicate or lost page raises), and every adjustment timeout must
   resolve by abort-and-restart.
"""

from conftest import emit

from repro.bench import format_table
from repro.core.schedulers import InterWithAdjPolicy
from repro.core.task import IOPattern
from repro.faults.chaos import run_chaos
from repro.faults.schedule import DiskDegradation, FaultSchedule
from repro.sim.micro import MicroSimulator, spec_for_io_rate

SEEDS = (0, 1, 2)
FACTOR = 0.5
MIN_GAIN = 0.05


def _pair(machine):
    """The io-bound/cpu-bound pair the degradation experiment schedules."""
    return [
        spec_for_io_rate(
            "io0",
            machine,
            io_rate=55.0,
            n_pages=1500,
            pattern=IOPattern.SEQUENTIAL,
            partitioning="page",
        ),
        spec_for_io_rate(
            "cpu0",
            machine,
            io_rate=8.0,
            n_pages=400,
            pattern=IOPattern.SEQUENTIAL,
            partitioning="page",
        ),
    ]


def _run(machine, schedule, seed, *, aware):
    policy = InterWithAdjPolicy(integral=True, degradation_aware=aware)
    sim = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=1.0,
        faults=schedule,
        fault_seed=seed,
    )
    return sim.run(_pair(machine), policy)


def test_ext_faults_degradation_aware_beats_static(benchmark, machine):
    healthy = MicroSimulator(machine, seed=0, consult_interval=1.0).run(
        _pair(machine), InterWithAdjPolicy(integral=True)
    )
    schedule = FaultSchedule(
        (
            DiskDegradation(
                disk=0,
                start=healthy.elapsed / 3.0,
                duration=10.0 * healthy.elapsed,
                factor=FACTOR,
            ),
        )
    )

    def run():
        return [
            (
                seed,
                _run(machine, schedule, seed, aware=False),
                _run(machine, schedule, seed, aware=True),
            )
            for seed in SEEDS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for seed, static, aware in results:
        gain = (static.elapsed - aware.elapsed) / static.elapsed
        rows.append(
            (
                str(seed),
                f"{healthy.elapsed:.2f}",
                f"{static.elapsed:.2f}",
                f"{aware.elapsed:.2f}",
                f"{gain:.1%}",
                str(aware.adjustments),
            )
        )
        # The headline claim: recomputing B from measured bandwidth
        # beats scheduling against the nominal machine.
        assert gain >= MIN_GAIN, f"seed {seed}: gain {gain:.1%} below {MIN_GAIN:.0%}"
        # Both arms completed both tasks with every page conserved
        # (the engine raises on a duplicate; completion implies no loss).
        for arm in (static, aware):
            assert len(arm.records) == 2
            assert arm.fault_log is not None
            wedged = arm.fault_log.adjust_timeouts - arm.fault_log.adjust_aborts
            assert wedged == 0, f"seed {seed}: {wedged} wedged adjustments"
    emit(
        benchmark,
        format_table(
            ["seed", "healthy (s)", "static B (s)", "aware (s)", "gain", "adjusts"],
            rows,
            title=(
                "ext3: disk 0 at 50% bandwidth from t=T/3 — "
                "degradation-aware vs static-B INTER-WITH-ADJ"
            ),
        ),
    )


def test_ext_faults_mixed_preset_tolerated(benchmark):
    def run():
        return [run_chaos(preset="mixed", seed=seed, scale=0.5) for seed in SEEDS]

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for seed, report in zip(SEEDS, reports):
        log = report.log
        rows.append(
            (
                str(seed),
                f"{report.healthy.elapsed:.2f}",
                f"{report.faulted.elapsed:.2f}",
                str(log.faults_injected),
                str(log.crashes),
                str(log.pages_reread),
                f"{log.adjust_aborts}/{log.adjust_timeouts}",
            )
        )
        assert report.ok, f"seed {seed}: chaos verdict FAILED"
        assert report.wedged_adjustments == 0
        assert len(report.faulted.records) == 3
    emit(
        benchmark,
        format_table(
            [
                "seed",
                "healthy (s)",
                "faulted (s)",
                "faults",
                "crashes",
                "re-read",
                "aborts/timeouts",
            ],
            rows,
            title="ext3: mixed fault preset — all tasks complete, no page lost",
        ),
    )
