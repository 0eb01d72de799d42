"""abl5 — the sequential/random effective-bandwidth correction.

Section 2.3's refinement: two interleaved sequential streams do not see
the full sequential bandwidth, so the balance point must be solved with
``B = Br + (1 - r)(Bs - Br)``.  This ablation runs the scheduler with
and without the correction on an engine that *always* models the
bandwidth drop, showing that ignoring the correction oversubscribes the
disks and slows the mixed workloads down.
"""

from statistics import mean

from conftest import emit
from repro.bench import format_table
from repro.core import InterWithAdjPolicy, make_task
from repro.core.balance import balance_point
from repro.sim import FluidSimulator
from repro.workloads import WorkloadKind, generate_tasks

SEEDS = range(8)


def test_abl_effective_bandwidth_solver(benchmark, machine, workload_config):
    def run():
        out = {"corrected": [], "nominal": []}
        for seed in SEEDS:
            tasks = generate_tasks(
                WorkloadKind.EXTREME, seed=seed, machine=machine, config=workload_config
            )
            for key, use in (("corrected", True), ("nominal", False)):
                policy = InterWithAdjPolicy(use_effective_bandwidth=use)
                sim = FluidSimulator(machine)
                out[key].append(sim.run(list(tasks), policy).elapsed)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    corrected = mean(results["corrected"])
    nominal = mean(results["nominal"])
    emit(
        benchmark,
        format_table(
            ["balance solver", "mean elapsed (s)"],
            [
                ("with bandwidth correction (paper, Sec 2.3)", f"{corrected:.2f}"),
                ("nominal B = 240 (uncorrected)", f"{nominal:.2f}"),
            ],
            title="abl5 — solving the balance point with vs without the correction",
        ),
    )
    # Ignoring the correction oversubscribes the disks.
    assert corrected <= nominal * 1.02


def test_abl_correction_shrinks_io_allocation(benchmark, machine):
    """The corrected balance point allocates fewer slaves to the io task."""

    def solve():
        fi = make_task("io", io_rate=55.0, seq_time=10.0)
        fj = make_task("cpu", io_rate=10.0, seq_time=10.0)
        corrected = balance_point(fi, fj, machine, use_effective_bandwidth=True)
        nominal = balance_point(fi, fj, machine, use_effective_bandwidth=False)
        return corrected, nominal

    corrected, nominal = benchmark.pedantic(solve, rounds=1, iterations=1)
    emit(
        benchmark,
        format_table(
            ["solver", "x_io", "x_cpu", "B at point"],
            [
                (
                    "corrected",
                    f"{corrected.x_io:.2f}",
                    f"{corrected.x_cpu:.2f}",
                    f"{corrected.bandwidth:.0f}",
                ),
                (
                    "nominal",
                    f"{nominal.x_io:.2f}",
                    f"{nominal.x_cpu:.2f}",
                    f"{nominal.bandwidth:.0f}",
                ),
            ],
            title="abl5 — balance point with and without the correction",
        ),
    )
    assert corrected.x_io < nominal.x_io
    assert corrected.bandwidth < nominal.bandwidth
