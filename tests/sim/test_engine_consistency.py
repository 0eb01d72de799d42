"""Cross-engine consistency: the fluid and micro engines must agree on
the *shape* of every result, and closely on solo-task timings."""

import pytest

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    IntraOnlyPolicy,
    SchedulingPolicy,
    Start,
)
from repro.sim import FluidSimulator, MicroSimulator, spec_for_io_rate
from repro.workloads import WorkloadConfig, WorkloadKind, generate_specs

MACHINE = paper_machine()
CONFIG = WorkloadConfig(max_pages=800)


class FixedStart(SchedulingPolicy):
    name = "fixed"

    def __init__(self, x):
        self.x = x

    def decide(self, state):
        if state.pending and not state.running:
            return [Start(state.pending[0], self.x)]
        return []


class TestSoloTaskAgreement:
    """For a single task at fixed parallelism, both engines reduce to
    T / x (until a resource wall) and must agree within queueing noise."""

    @pytest.mark.parametrize("rate,x", [(10.0, 4), (10.0, 8), (40.0, 2), (55.0, 4)])
    def test_engines_agree_on_solo_runs(self, rate, x):
        spec = spec_for_io_rate("solo", MACHINE, io_rate=rate, n_pages=1200)
        micro = MicroSimulator(MACHINE).run([spec], FixedStart(x))
        fluid = FluidSimulator(MACHINE).run(
            [spec.to_task(MACHINE)], FixedStart(float(x))
        )
        assert micro.elapsed == pytest.approx(fluid.elapsed, rel=0.06)

    def test_engines_agree_on_bandwidth_wall(self):
        # 8 slaves of a 55 ios/s task: both engines cap at B = 240.
        spec = spec_for_io_rate("wall", MACHINE, io_rate=55.0, n_pages=2400)
        micro = MicroSimulator(MACHINE).run([spec], FixedStart(8))
        fluid = FluidSimulator(MACHINE).run(
            [spec.to_task(MACHINE)], FixedStart(8.0)
        )
        assert micro.elapsed == pytest.approx(fluid.elapsed, rel=0.08)


class TestWorkloadShapeAgreement:
    """On full workloads the engines differ in protocol costs and
    integral parallelism, but must rank the schedulers identically."""

    @pytest.mark.parametrize("kind", [WorkloadKind.EXTREME, WorkloadKind.RANDOM])
    def test_adaptive_beats_intra_on_both_engines(self, kind):
        wins = {"micro": [], "fluid": []}
        for seed in range(3):
            specs = generate_specs(kind, seed=seed, machine=MACHINE, config=CONFIG)
            tasks = [s.to_task(MACHINE) for s in specs]
            for engine, result_pair in (
                (
                    "micro",
                    (
                        MicroSimulator(MACHINE).run(
                            list(specs), IntraOnlyPolicy(integral=True)
                        ),
                        MicroSimulator(MACHINE).run(
                            list(specs), InterWithAdjPolicy(integral=True)
                        ),
                    ),
                ),
                (
                    "fluid",
                    (
                        FluidSimulator(MACHINE).run(list(tasks), IntraOnlyPolicy()),
                        FluidSimulator(MACHINE).run(list(tasks), InterWithAdjPolicy()),
                    ),
                ),
            ):
                intra, adaptive = result_pair
                wins[engine].append((intra.elapsed - adaptive.elapsed) / intra.elapsed)
        # Mean win positive on both engines.
        assert sum(wins["micro"]) / len(wins["micro"]) > 0
        assert sum(wins["fluid"]) / len(wins["fluid"]) > 0

    def test_uniform_workload_ties_on_both_engines(self):
        specs = generate_specs(
            WorkloadKind.ALL_CPU, seed=1, machine=MACHINE, config=CONFIG
        )
        tasks = [s.to_task(MACHINE) for s in specs]
        micro_intra = MicroSimulator(MACHINE).run(
            list(specs), IntraOnlyPolicy(integral=True)
        )
        micro_adaptive = MicroSimulator(MACHINE).run(
            list(specs), InterWithAdjPolicy(integral=True)
        )
        fluid_intra = FluidSimulator(MACHINE).run(list(tasks), IntraOnlyPolicy())
        fluid_adaptive = FluidSimulator(MACHINE).run(list(tasks), InterWithAdjPolicy())
        assert micro_adaptive.elapsed == pytest.approx(micro_intra.elapsed, rel=0.02)
        assert fluid_adaptive.elapsed == pytest.approx(fluid_intra.elapsed, rel=0.02)

    def test_engines_within_a_sane_band_of_each_other(self):
        # Absolute elapsed differs (queueing, protocols) but not wildly.
        specs = generate_specs(
            WorkloadKind.RANDOM, seed=2, machine=MACHINE, config=CONFIG
        )
        tasks = [s.to_task(MACHINE) for s in specs]
        micro = MicroSimulator(MACHINE).run(list(specs), IntraOnlyPolicy(integral=True))
        fluid = FluidSimulator(MACHINE).run(list(tasks), IntraOnlyPolicy())
        assert micro.elapsed == pytest.approx(fluid.elapsed, rel=0.25)
