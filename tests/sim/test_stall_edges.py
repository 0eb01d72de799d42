"""Engine stall edges must terminate with a diagnostic, never hang.

The dangerous corner: the fluid engine's next-event horizon is
``None`` while unfinished tasks remain (every progress rate below
``_EPS`` and no pending arrival).  Pre-diagnostic code reported this as
a generic "deadlock"; now a run that wedges names the stalled tasks,
their degrees and their remaining work.  The micro engine's equivalent
is an empty event heap with unfinished tasks.
"""

import random

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, SchedulingPolicy, Start, make_task
from repro.errors import SimulationError
from repro.sim.fluid import FluidSimulator
from repro.sim.micro import MicroSimulator, spec_for_io_rate

MACHINE = paper_machine()


class Never(SchedulingPolicy):
    """A policy that refuses to start anything."""

    name = "never"

    def decide(self, state):
        return []


class StartAll(SchedulingPolicy):
    """Start every pending task at parallelism 1, no adjustments."""

    name = "start-all"

    def decide(self, state):
        return [Start(t, 1.0) for t in state.pending]


def zero_rate_task(name="wedged"):
    """A task whose progress rate underflows ``_EPS``.

    io demand so far above the machine's bandwidth that the io scale
    throttles the rate to ~1e-10 — running, unfinished, no event due.
    """
    return make_task(name, io_rate=1e12, seq_time=1.0)


class TestFluidStalls:
    def test_zero_rate_task_raises_stall_diagnostic(self):
        with pytest.raises(SimulationError, match="stall") as excinfo:
            FluidSimulator(MACHINE).run([zero_rate_task()], StartAll())
        # The diagnostic names the wedged task and its remaining work.
        assert "wedged" in str(excinfo.value)
        assert "remaining" in str(excinfo.value)

    def test_refusing_policy_raises_deadlock_diagnostic(self):
        tasks = [make_task("idle", io_rate=10.0, seq_time=5.0)]
        with pytest.raises(SimulationError, match="deadlock"):
            FluidSimulator(MACHINE).run(tasks, Never())

    def test_stall_beats_event_budget(self):
        # A healthy task plus a wedged one: the run must diagnose the
        # stall once the healthy task finishes, not spin to the budget.
        tasks = [
            make_task("fine", io_rate=10.0, seq_time=2.0),
            zero_rate_task(),
        ]
        with pytest.raises(SimulationError, match="stall"):
            FluidSimulator(MACHINE).run(tasks, StartAll())


class TestMicroStalls:
    def test_refusing_policy_raises_stall_diagnostic(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=20.0, n_pages=50)
        with pytest.raises(SimulationError, match="stalled"):
            MicroSimulator(MACHINE).run([spec], Never())


class TestStallProperty:
    """Across fuzzer seeds, a wedged workload always raises, never hangs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fluid_always_diagnoses(self, seed):
        rng = random.Random(seed)
        tasks = [
            make_task(
                f"t{i}",
                io_rate=rng.uniform(5.0, 55.0),
                seq_time=rng.uniform(0.5, 5.0),
            )
            for i in range(rng.randint(1, 4))
        ]
        tasks.append(zero_rate_task(f"wedged{seed}"))
        with pytest.raises(SimulationError, match="stall|deadlock"):
            FluidSimulator(MACHINE).run(tasks, StartAll())

    @pytest.mark.parametrize("seed", range(8))
    def test_micro_always_diagnoses(self, seed):
        rng = random.Random(seed)
        specs = [
            spec_for_io_rate(
                f"t{i}",
                MACHINE,
                io_rate=rng.uniform(5.0, 55.0),
                n_pages=rng.randint(20, 100),
            )
            for i in range(rng.randint(1, 4))
        ]
        with pytest.raises(SimulationError, match="stalled"):
            MicroSimulator(MACHINE).run(specs, Never())

    @pytest.mark.parametrize("seed", range(4))
    def test_healthy_workloads_still_finish(self, seed):
        rng = random.Random(seed)
        specs = [
            spec_for_io_rate(
                f"t{i}",
                MACHINE,
                io_rate=rng.uniform(5.0, 55.0),
                n_pages=rng.randint(20, 100),
            )
            for i in range(rng.randint(1, 4))
        ]
        tasks = [s.to_task(MACHINE) for s in specs]
        policy = InterWithAdjPolicy(integral=True)
        assert MicroSimulator(MACHINE).run(specs, policy).elapsed > 0
        assert FluidSimulator(MACHINE).run(tasks, policy).elapsed > 0
