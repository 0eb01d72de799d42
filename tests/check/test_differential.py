"""Tests for the cross-engine differential harness.

Includes the Section-2.3 demand-scaling parity tests: the fluid engine
folds ``cpu_scale`` into the io demand before the sequential/random
bandwidth split, which is safe exactly because
``effective_bandwidth`` is invariant under uniform scaling of its
rates — both facts are pinned here.
"""

import pytest

from repro.check import differential
from repro.check.differential import (
    check_executor_vs_protocol,
    check_micro_vs_fluid,
    check_optimizer_fast_path,
    check_recursion_vs_fluid,
)
from repro.check.invariants import InvariantChecker
from repro.config import paper_machine
from repro.core import make_task
from repro.core.balance import effective_bandwidth
from repro.core.task import IOPattern
from repro.sim.micro import spec_for_io_rate
from repro.workloads.mixes import WorkloadKind, generate_specs
from repro.workloads.queries import chain_join

MACHINE = paper_machine()


class TestMicroVsFluid:
    @pytest.mark.parametrize(
        "kind", [WorkloadKind.ALL_IO, WorkloadKind.ALL_CPU, WorkloadKind.EXTREME]
    )
    def test_seeded_mixes_agree(self, kind):
        specs = generate_specs(kind, seed=0, machine=MACHINE)
        assert check_micro_vs_fluid(specs, MACHINE) == []

    def test_random_mix_agrees_at_loose_tier(self):
        specs = generate_specs(WorkloadKind.RANDOM, seed=0, machine=MACHINE)
        assert check_micro_vs_fluid(specs, MACHINE) == []

    def test_tiny_tolerance_forces_divergence_report(self, monkeypatch):
        for tier in ("REL_ELAPSED_SEQ", "REL_ELAPSED_RANDOM", "REL_ELAPSED_RANGE"):
            monkeypatch.setattr(differential, tier, 1e-9)
        specs = generate_specs(WorkloadKind.EXTREME, seed=0, machine=MACHINE)
        divergences = check_micro_vs_fluid(specs, MACHINE)
        assert divergences
        assert "elapsed diverges" in divergences[0]

    def test_shared_invariants_cover_both_engines(self):
        inv = InvariantChecker(collect=True)
        specs = generate_specs(WorkloadKind.EXTREME, seed=1, machine=MACHINE)
        assert check_micro_vs_fluid(specs, MACHINE, invariants=inv) == []
        assert inv.checks > 0
        assert inv.ok


class TestCpuUtilizationSemantics:
    """Satellite: both engines report occupancy *and* service CPU time.

    Fluid natively charges occupancy (a slave holds its processor while
    io-throttled); micro natively books service (per-page CPU bursts).
    With both semantics reported by both engines, the differential
    check compares like with like instead of excluding the metric.
    """

    def _run_both(self, kind, seed=0):
        from repro.core import InterWithAdjPolicy
        from repro.sim.fluid import FluidSimulator
        from repro.sim.micro import MicroSimulator

        specs = generate_specs(kind, seed=seed, machine=MACHINE)
        tasks = [s.to_task(MACHINE) for s in specs]
        micro = MicroSimulator(MACHINE).run(
            specs, InterWithAdjPolicy(integral=True)
        )
        fluid = FluidSimulator(MACHINE).run(
            tasks, InterWithAdjPolicy(integral=True)
        )
        return micro, fluid

    def test_native_semantics_are_preserved(self):
        micro, fluid = self._run_both(WorkloadKind.EXTREME)
        assert fluid.cpu_busy == fluid.cpu_busy_occupancy
        assert micro.cpu_busy == micro.cpu_busy_service
        assert fluid.cpu_utilization == fluid.cpu_utilization_occupancy
        assert micro.cpu_utilization == micro.cpu_utilization_service

    def test_occupancy_dominates_service(self):
        # A processor that is computing is also held, so occupancy is
        # an upper bound on service in both engines.
        for kind in (WorkloadKind.ALL_IO, WorkloadKind.ALL_CPU):
            micro, fluid = self._run_both(kind)
            assert micro.cpu_busy_occupancy >= micro.cpu_busy_service
            assert fluid.cpu_busy_occupancy >= fluid.cpu_busy_service

    def test_engines_agree_like_with_like(self):
        # The native-vs-native gap on IO-heavy mixes is ~0.45 — the
        # reason the metric used to be excluded.  Like-with-like, the
        # seeded mixes agree to ~0.03.
        micro, fluid = self._run_both(WorkloadKind.ALL_IO)
        occ_gap = abs(
            micro.cpu_utilization_occupancy - fluid.cpu_utilization_occupancy
        )
        svc_gap = abs(
            micro.cpu_utilization_service - fluid.cpu_utilization_service
        )
        cross_gap = abs(
            micro.cpu_utilization_service - fluid.cpu_utilization_occupancy
        )
        assert occ_gap < 0.05 and svc_gap < 0.05
        assert cross_gap > 0.3

    def test_fluid_service_matches_page_cpu_budget(self):
        # One scan run alone: micro's service time is exactly
        # n_pages * cpu_per_page, and the fluid integral lands on the
        # same budget (plus the adjustment-overhead seconds it charges
        # as extra work).
        from repro.core import InterWithAdjPolicy
        from repro.sim.fluid import FluidSimulator
        from repro.sim.micro import MicroSimulator

        spec = spec_for_io_rate("solo", MACHINE, io_rate=20.0, n_pages=200)
        budget = spec.n_pages * spec.cpu_per_page
        micro = MicroSimulator(MACHINE).run([spec], InterWithAdjPolicy())
        assert micro.cpu_busy_service == pytest.approx(budget)
        fluid = FluidSimulator(MACHINE, adjustment_overhead=0.0).run(
            [spec.to_task(MACHINE)], InterWithAdjPolicy()
        )
        assert fluid.cpu_busy_service == pytest.approx(budget, rel=1e-6)

    def test_tiny_cpu_tolerance_forces_divergence_report(self, monkeypatch):
        for tier in ("ABS_CPU_UTIL", "ABS_CPU_UTIL_LOOSE", "ABS_CPU_UTIL_RANGE"):
            monkeypatch.setattr(differential, tier, 1e-9)
        specs = generate_specs(WorkloadKind.EXTREME, seed=3, machine=MACHINE)
        divergences = check_micro_vs_fluid(specs, MACHINE)
        assert any("cpu utilization" in d for d in divergences)


class TestDemandScalingParity:
    """Satellite: Section-2.3 demand scaling, micro vs fluid."""

    def test_effective_bandwidth_is_scale_invariant(self):
        # Only the interleave and seq-share *ratios* enter the formula,
        # so scaling every demand uniformly (what folding cpu_scale into
        # io demand does) cannot move the effective bandwidth.
        seq = [40.0, 25.0, 10.0]
        rnd = 30.0
        base = effective_bandwidth(MACHINE, seq, rnd)
        for k in (0.1, 0.5, 0.9, 2.0):
            scaled = effective_bandwidth(
                MACHINE, [k * r for r in seq], k * rnd
            )
            assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_cpu_throttled_seq_scans_agree_tightly(self, seed, monkeypatch):
        # CPU-bound tasks are where the demand-scaling choice shows up:
        # their io demand is throttled by cpu_scale, shifting the
        # seq/random split.  Page-partitioned sequential scans must
        # still agree well inside the seq tier.
        import random

        rng = random.Random(seed)
        specs = [
            spec_for_io_rate(
                f"t{i}",
                MACHINE,
                io_rate=rng.uniform(5.0, 15.0),
                n_pages=rng.randint(80, 250),
            )
            for i in range(3)
        ]
        # Well inside the seq tier.
        monkeypatch.setattr(differential, "REL_ELAPSED_SEQ", 0.15)
        assert check_micro_vs_fluid(specs, MACHINE) == []

    def test_mixed_demand_split_agrees(self):
        # One CPU-throttled scan sharing disks with a random scan: the
        # throttled demand enters the seq/random split on both sides.
        specs = [
            spec_for_io_rate("cpu", MACHINE, io_rate=8.0, n_pages=200),
            spec_for_io_rate(
                "rng",
                MACHINE,
                io_rate=25.0,
                n_pages=150,
                pattern=IOPattern.RANDOM,
            ),
        ]
        assert check_micro_vs_fluid(specs, MACHINE) == []


class TestRecursionVsFluid:
    def test_agreement_on_paper_mix(self):
        tasks = [
            make_task("io", io_rate=55.0, seq_time=12.0),
            make_task("cpu", io_rate=8.0, seq_time=20.0),
            make_task("mid", io_rate=30.0, seq_time=6.0),
        ]
        assert check_recursion_vs_fluid(tasks, MACHINE) == []

    def test_divergent_inputs_are_reported(self):
        # The closed-form recursion has no arrival model, so an
        # arrival-offset mix is a guaranteed, legitimate divergence —
        # exercising the reporting branch.
        tasks = [
            make_task("io", io_rate=55.0, seq_time=12.0),
            make_task("late", io_rate=8.0, seq_time=20.0, arrival_time=30.0),
        ]
        divergences = check_recursion_vs_fluid(tasks, MACHINE)
        assert divergences
        assert "recursion-vs-fluid" in divergences[0]


class TestOptimizerFastPath:
    def test_chain3_identical_in_all_spaces(self):
        schema = chain_join(3, rows_per_relation=300, seed=7)
        assert check_optimizer_fast_path(schema) == []


class TestExecutorVsProtocol:
    def test_exactly_once_under_adjustments(self):
        assert (
            check_executor_vs_protocol(
                n_rows=300, parallelism=2, adjustments=((0.25, 4), (0.5, 1))
            )
            == []
        )
