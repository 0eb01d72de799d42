"""Instrumentation must never perturb the engines.

Two contracts are pinned here against the frozen trace corpus
(``tests/sim/data/trace_corpus.json``):

* a **live tracer** attached to the micro engine replays the corpus
  byte-identically — the tracer only copies timestamps the engine
  already holds, it never changes a schedule;
* ``None``, the disabled default, replays it too and stores no tracer
  (zero overhead on the per-page hot path, nothing branched in the loop);
* every constructor that takes a ``tracer`` keeps the one it is given,
  even an empty (but truthy) one.
"""

from repro.catalog import Catalog
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy, policy_by_name
from repro.faults import CircuitBreaker, preset_schedule
from repro.obs import Tracer
from repro.optimizer import TwoPhaseOptimizer
from repro.service import AdmissionGate, FifoAdmission, QueryService
from repro.sim.fluid import FluidSimulator
from repro.sim.micro import MicroSimulator
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs

from tests.corpus import corpora
from tests.sim.corpus_tools import corpus_specs, faulted_specs, trace_digest

CORPUS = corpora()["trace"].read()


def run_healthy(seed, policy_name, tracer):
    machine = paper_machine()
    sim = MicroSimulator(
        machine, seed=seed, consult_interval=0.5, tracer=tracer
    )
    result = sim.run(
        corpus_specs(machine, seed), policy_by_name(policy_name, integral=True)
    )
    return sim, result


def run_faulted(seed, tracer):
    machine = paper_machine()
    sim = MicroSimulator(
        machine,
        seed=seed,
        consult_interval=1.0,
        faults=preset_schedule("mixed", horizon=4.0),
        fault_seed=seed,
        tracer=tracer,
    )
    result = sim.run(
        faulted_specs(machine),
        InterWithAdjPolicy(integral=True, degradation_aware=True),
    )
    return sim, result


class TestTracedRunsMatchFrozenCorpus:
    def test_live_tracer_replays_healthy_corpus_byte_identically(self):
        for policy_name in ("INTRA-ONLY", "INTER-WITH-ADJ"):
            _, result = run_healthy(0, policy_name, Tracer())
            frozen = CORPUS[f"healthy/seed0/{policy_name}"]
            assert trace_digest(result) == frozen, policy_name

    def test_live_tracer_replays_faulted_corpus_byte_identically(self):
        tracer = Tracer()
        _, result = run_faulted(0, tracer)
        assert trace_digest(result) == CORPUS["faulted/seed0"]
        # ...and the tracer actually saw the run: task spans plus the
        # preset's degradation/stall/crash fault instants.
        cats = set(tracer.by_category())
        assert "task" in cats
        assert "fault" in cats

    def test_null_tracer_is_exactly_the_disabled_default(self):
        sim, result = run_healthy(1, "INTER-WITH-ADJ", None)
        assert sim.tracer is None
        assert trace_digest(result) == CORPUS["healthy/seed1/INTER-WITH-ADJ"]


class TestMicroTraceContent:
    def test_task_spans_match_schedule_records(self):
        tracer = Tracer()
        _, result = run_healthy(0, "INTER-WITH-ADJ", tracer)
        spans = {
            e.name: e
            for e in tracer.events
            if e.kind == "span" and e.cat == "task"
        }
        assert len(spans) == len(result.records)
        for record in result.records:
            span = spans[record.task.name]
            assert span.start == record.started_at
            assert span.start + span.dur == record.finished_at
            assert span.args["pages"] > 0

    def test_adjustment_spans_are_recorded(self):
        tracer = Tracer()
        _, result = run_healthy(0, "INTER-WITH-ADJ", tracer)
        adjust = [e for e in tracer.events if e.cat == "adjust"]
        assert len(adjust) == result.adjustments
        assert all(e.kind == "span" for e in adjust)

    def test_running_tasks_counter_tracks_starts_and_completions(self):
        tracer = Tracer()
        _, result = run_healthy(0, "INTER-WITH-ADJ", tracer)
        samples = [e for e in tracer.events if e.kind == "counter"]
        assert samples
        # Every start and every completion samples the counter once.
        assert len(samples) == 2 * len(result.records)
        assert samples[-1].value == 0.0


class TestFluidInstrumentation:
    def run_fluid(self, tracer):
        machine = paper_machine()
        specs = generate_specs(
            WorkloadKind.RANDOM,
            seed=0,
            machine=machine,
            config=WorkloadConfig(n_tasks=4, max_pages=300),
        )
        tasks = [spec.to_task(machine) for spec in specs]
        sim = FluidSimulator(machine, tracer=tracer)
        return sim, sim.run(tasks, InterWithAdjPolicy())

    def test_tracer_does_not_change_the_schedule(self):
        _, baseline = self.run_fluid(None)
        _, traced = self.run_fluid(Tracer())
        assert traced.elapsed == baseline.elapsed
        assert traced.adjustments == baseline.adjustments

    def test_fluid_spans_match_records(self):
        tracer = Tracer()
        _, result = self.run_fluid(tracer)
        spans = [
            e for e in tracer.events if e.kind == "span" and e.cat == "task"
        ]
        assert len(spans) == len(result.records)


def test_every_constructor_keeps_the_tracer_it_is_given():
    # An empty Tracer has no events; it must still be stored, not
    # swapped for None by a truthiness test.
    tracer = Tracer()
    machine = paper_machine()
    service = QueryService(machine, tracer=tracer)
    holders = [
        FluidSimulator(machine, tracer=tracer),
        MicroSimulator(machine, tracer=tracer),
        AdmissionGate(
            inner=InterWithAdjPolicy(), admission=FifoAdmission(), tracer=tracer
        ),
        service,
        service.gate,
        TwoPhaseOptimizer(Catalog(), machine=machine, tracer=tracer),
        CircuitBreaker(tracer=tracer),
    ]
    for holder in holders:
        assert holder.tracer is tracer, type(holder).__name__
