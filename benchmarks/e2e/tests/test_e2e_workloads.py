"""Workload generation, checks and the traced run, at smoke size."""

import json
from pathlib import Path

import pytest

import e2e_workloads as W
import run as harness

SMOKE = 0.05
SPEC = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())


def _checked(name, seed):
    workload = W.WORKLOADS[name]
    inputs = W.build(workload, seed, SMOKE)
    return workload.check(inputs, W.run(workload, inputs))


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_gives_identical_inputs_and_results(name):
    first, again, other = _checked(name, 3), _checked(name, 3), _checked(name, 4)
    assert first.failed == 0 and not first.problems
    assert first.digest == again.digest
    assert first.virtual == again.virtual and first.counts == again.counts
    assert first.digest != other.digest
    assert all(value > 0 for value in first.virtual.values())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    record = harness.measure("micro_hooks", 0, 0.0, SMOKE, True, None)
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(record["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    line = json.loads(harness.contract_line(record, True, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_traced_run_restores_every_wrapped_callable():
    from repro.optimizer import TwoPhaseOptimizer
    from repro.service import AdmissionGate
    from repro.sim import FluidSimulator

    watched = [
        (TwoPhaseOptimizer, "choose_plan"),
        (AdmissionGate, "decide"),
        (FluidSimulator, "run"),
        (W, "fragment_plan"),
        (W, "wire_tasks"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    record = harness.measure("serve_queries", 0, 0.0, SMOKE, True, None)
    assert [vars(owner)[attr] for owner, attr in watched] == before
    layers = record["per_layer"]
    assert layers["optimizer.self_s"] > 0 and layers["sim.fluid.runs"] == 1
    assert layers["sim.micro.self_s"] == 0
    assert 0 <= layers["bench.unattributed_share"] < 0.5


def test_knee_interpolates_between_rungs():
    assert W._knee([(0.5, 0.0), (1.0, 0.1), (1.5, 0.3)]) == pytest.approx(1.25)
    assert W._knee([(0.5, 0.4)]) == pytest.approx(0.25)
    assert W._knee([(0.5, 0.1), (0.8, 0.2)]) == 0.8


def test_a_broken_output_is_counted_as_failed():
    workload = W.WORKLOADS["micro_fig7"]
    inputs = W.build(workload, 0, SMOKE)
    done = W.run(workload, inputs)
    done.results[0].io_served -= 5
    checked = workload.check(inputs, done)
    assert checked.failed == 5 and "ios served" in checked.problems[0]
