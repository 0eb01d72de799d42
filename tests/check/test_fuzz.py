"""Tests for the seeded fuzzer, its shrinker and the CLI smoke pass."""

import pytest

from repro.check import fuzz as fuzz_module
from repro.check.fuzz import (
    Scenario,
    SpecParams,
    fuzz,
    generate_scenario,
    run_case,
    shrink,
    smoke_lines,
)
from repro.config import paper_machine
from repro.core.schedulers import POLICIES

MACHINE = paper_machine()


class TestGeneration:
    def test_deterministic(self):
        assert generate_scenario(42) == generate_scenario(42)
        assert generate_scenario(42) != generate_scenario(43)

    @pytest.mark.parametrize("seed", range(20))
    def test_scenarios_are_well_formed(self, seed):
        s = generate_scenario(seed)
        assert 2 <= len(s.specs) <= 6
        assert s.policy in POLICIES
        for p in s.specs:
            assert p.io_rate > 0
            assert p.n_pages >= 50
            assert p.pattern in ("seq", "random")
            assert p.partitioning in ("page", "range")
            assert p.arrival >= 0.0

    def test_describe_is_a_reproducer(self):
        text = generate_scenario(7).describe()
        assert "seed=7" in text
        assert "io_rate=" in text


class TestRunCase:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
    def test_healthy_seeds_pass(self, seed):
        assert run_case(generate_scenario(seed), MACHINE) == []

    def test_fault_seed_passes(self):
        # Find a seed whose scenario injects faults, then run it.
        seed = next(s for s in range(50) if generate_scenario(s).faults)
        assert run_case(generate_scenario(seed), MACHINE) == []


class TestShrink:
    def test_healthy_scenario_is_untouched(self):
        scenario = generate_scenario(0)
        assert shrink(scenario, MACHINE) == scenario

    def test_converges_to_single_small_task(self):
        # Predicate: fails whenever any random-pattern task is present.
        # The minimal reproducer is then one small random task.
        def failing(s, machine):
            if any(p.pattern == "random" for p in s.specs):
                return ["random task present"]
            return []

        big = Scenario(
            seed=0,
            specs=(
                SpecParams(io_rate=20.0, n_pages=400, pattern="random"),
                SpecParams(io_rate=40.0, n_pages=300),
                SpecParams(io_rate=10.0, n_pages=200, partitioning="range"),
            ),
            policy="INTER-WITH-ADJ",
            faults=True,
        )
        small = shrink(big, MACHINE, run=failing)
        assert failing(small, MACHINE)
        assert len(small.specs) == 1
        assert small.specs[0].pattern == "random"
        assert small.specs[0].n_pages <= 20
        assert not small.faults
        assert small.policy == "INTRA-ONLY"

    def test_respects_step_budget(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "SHRINK_STEPS", 5)
        calls = []

        def always_fails(s, machine):
            calls.append(s)
            return ["boom"]

        shrink(generate_scenario(3), MACHINE, run=always_fails)
        # 1 initial confirmation + at most SHRINK_STEPS candidate runs.
        assert len(calls) <= 6


class TestCampaign:
    def test_short_campaign_is_clean(self):
        report = fuzz(10, seed=0)
        assert report.cases == 10
        assert report.ok

    def test_progress_callback_fires(self):
        ticks = []
        fuzz(25, seed=0, progress=lambda *a: ticks.append(a))
        assert ticks == [(25, 25, 0)]


class TestSmoke:
    def test_all_pillars_ok(self):
        lines = smoke_lines(seed=0)
        assert len(lines) == 8
        for line in lines:
            assert line.startswith("smoke ok:"), line


@pytest.mark.fuzz
class TestLongCampaign:
    """Excluded from tier-1 via the ``fuzz`` marker; CI runs a shard."""

    def test_hundred_seeds(self):
        report = fuzz(100, seed=0, executor=False)
        assert report.ok, [f for _, f in report.failures]
