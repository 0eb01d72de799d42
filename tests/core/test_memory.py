"""Tests for memory-constrained scheduling (the paper's future work).

"We cannot run two hashjoins in parallel unless there is enough memory
for both hash tables."  The memory-aware policies refuse pairings whose
combined working sets exceed the machine's work memory.
"""

import dataclasses

import pytest

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    Task,
    make_task,
)
from repro.core.schedulers import memory_fits
from repro.errors import ConfigError, SchedulingError
from repro.sim import FluidSimulator

MACHINE = paper_machine()
MB = 1024.0 * 1024.0


def task(rate, seq_time=10.0, memory=0.0, name=None):
    base = make_task(name or f"c{rate}", io_rate=rate, seq_time=seq_time)
    return base.with_memory(memory)


def tight_machine(budget_mb):
    return dataclasses.replace(MACHINE, work_memory_bytes=budget_mb * MB)


class TestTaskMemory:
    def test_default_zero(self):
        assert task(10.0).memory_bytes == 0.0

    def test_with_memory_keeps_id(self):
        t = task(10.0)
        t2 = t.with_memory(5 * MB)
        assert t2.task_id == t.task_id
        assert t2.memory_bytes == 5 * MB

    def test_negative_rejected(self):
        with pytest.raises(SchedulingError):
            Task("bad", seq_time=1.0, io_count=1.0, memory_bytes=-1.0)

    def test_machine_budget_validated(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(MACHINE, work_memory_bytes=0.0)

    def test_memory_fits(self):
        machine = tight_machine(10)
        assert memory_fits(machine, task(10.0, memory=4 * MB), task(60.0, memory=5 * MB))
        assert not memory_fits(
            machine, task(10.0, memory=6 * MB), task(60.0, memory=5 * MB)
        )


class TestMemoryAwarePairing:
    def test_infeasible_pair_runs_sequentially(self):
        machine = tight_machine(10)
        tasks = [
            task(60.0, memory=8 * MB, name="io"),
            task(8.0, memory=8 * MB, name="cpu"),
        ]
        result = FluidSimulator(machine).run(list(tasks), InterWithAdjPolicy())
        recs = sorted(result.records, key=lambda r: r.started_at)
        # No overlap: the pair never fit together.
        assert recs[1].started_at >= recs[0].finished_at - 1e-9
        assert result.peak_memory <= machine.work_memory_bytes

    def test_feasible_pair_overlaps(self):
        machine = tight_machine(20)
        tasks = [
            task(60.0, memory=8 * MB, name="io"),
            task(8.0, memory=8 * MB, name="cpu"),
        ]
        result = FluidSimulator(machine).run(list(tasks), InterWithAdjPolicy())
        recs = sorted(result.records, key=lambda r: r.started_at)
        assert recs[0].started_at == recs[1].started_at == 0.0
        assert result.peak_memory == pytest.approx(16 * MB)

    def test_scheduler_picks_a_fitting_partner(self):
        # The most CPU-bound task is too fat; the next one fits.
        machine = tight_machine(10)
        tasks = [
            task(60.0, memory=4 * MB, name="io"),
            task(5.0, memory=9 * MB, name="fat-cpu"),
            task(9.0, memory=2 * MB, name="slim-cpu"),
        ]
        result = FluidSimulator(machine).run(list(tasks), InterWithAdjPolicy())
        io_rec = next(r for r in result.records if r.task.name == "io")
        slim = next(r for r in result.records if r.task.name == "slim-cpu")
        # The slim task is co-scheduled with the io task from the start.
        assert slim.started_at == pytest.approx(io_rec.started_at)
        assert result.peak_memory <= machine.work_memory_bytes

    def test_without_adj_also_respects_memory(self):
        machine = tight_machine(10)
        tasks = [
            task(60.0, memory=8 * MB, name="io"),
            task(8.0, memory=8 * MB, name="cpu"),
        ]
        result = FluidSimulator(machine).run(list(tasks), InterWithoutAdjPolicy())
        assert result.peak_memory <= machine.work_memory_bytes

    def test_unlimited_budget_reproduces_paper_behaviour(self):
        tasks_limited = [
            task(60.0, 20.0, memory=8 * MB, name="io"),
            task(8.0, 20.0, memory=8 * MB, name="cpu"),
        ]
        unlimited = FluidSimulator(MACHINE).run(
            [t.with_memory(0.0) for t in tasks_limited], InterWithAdjPolicy()
        )
        roomy = FluidSimulator(tight_machine(1000)).run(
            list(tasks_limited), InterWithAdjPolicy()
        )
        assert roomy.elapsed == pytest.approx(unlimited.elapsed)

    def test_tight_memory_costs_elapsed_time(self):
        tasks = [
            task(60.0, 20.0, memory=8 * MB, name="io"),
            task(8.0, 20.0, memory=8 * MB, name="cpu"),
        ]
        roomy = FluidSimulator(tight_machine(100)).run(list(tasks), InterWithAdjPolicy())
        tight = FluidSimulator(tight_machine(10)).run(list(tasks), InterWithAdjPolicy())
        assert tight.elapsed > roomy.elapsed

    def test_intra_only_ignores_memory(self):
        # One task at a time never violates a per-pair budget anyway.
        machine = tight_machine(10)
        tasks = [task(60.0, memory=8 * MB), task(8.0, memory=8 * MB)]
        result = FluidSimulator(machine).run(list(tasks), IntraOnlyPolicy())
        assert result.peak_memory <= machine.work_memory_bytes


class TestFragmentMemory:
    def test_hash_join_fragment_pins_build_side(self):
        import numpy as np

        from repro.catalog import Catalog, Schema
        from repro.plans import HashJoinNode, SeqScanNode, analyze_table, estimate_plan, fragment_plan
        from repro.storage import DiskArray, HeapFile

        array = DiskArray(MACHINE)
        catalog = Catalog()
        rng = np.random.default_rng(0)
        for name, cols in [("r1", ("a", "b1")), ("r2", ("b2", "c2"))]:
            schema = Schema.of(*[(c, "int4") for c in cols], (f"{name}_p", "text"))
            heap = HeapFile(schema, array, name=name)
            for __ in range(300):
                heap.insert(
                    (int(rng.integers(0, 50)), int(rng.integers(0, 50)), "x" * 30)
                )
            catalog.create_table(name, schema, heap)
            analyze_table(catalog, name)
        plan = HashJoinNode(SeqScanNode("r1"), SeqScanNode("r2"), "b1", "b2")
        estimate = estimate_plan(plan, catalog)
        graph = fragment_plan(plan, estimate)
        probe = graph.fragments[0]
        build = graph.fragments[1]
        # The probe fragment (with the hash join) pins the table.
        assert probe.memory_bytes > 0
        assert build.memory_bytes == 0.0
        task = probe.to_task()
        assert task.memory_bytes == pytest.approx(probe.memory_bytes)
