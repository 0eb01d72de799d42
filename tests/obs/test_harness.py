"""Tests for the end-to-end trace harness (``python -m repro trace``)."""

import json

import pytest

from repro.__main__ import main
from repro.faults.chaos import run_soak
from repro.obs import run_trace, smoke_lines, validate_chrome
from repro.optimizer import TwoPhaseOptimizer
from repro.recovery import RecoveryManager
from repro.service import QueryService


@pytest.fixture(scope="module")
def report():
    """One shared traced run (the harness drives all three phases)."""
    return run_trace(0)


class TestRunTrace:
    def test_all_three_phases_reach_the_trace(self, report):
        cats = set(report.tracer.by_category())
        assert "optimizer" in cats  # phase 1
        assert "admission" in cats  # phase 2
        assert "task" in cats  # phase 3
        assert "fault" in cats  # the mixed preset

    def test_unified_registry_spans_subsystems(self, report):
        digest = report.metrics
        counters = digest["counters"]
        assert counters["service.completed"] > 0
        assert counters["sim.pages"] > 0
        assert counters["optimizer.candidates"] > 0
        assert digest["histograms"]["service.response_time"]["count"] > 0
        assert "service.breaker_state" in digest["series"]

    def test_registry_is_read_off_the_phase_results(self):
        # The digest is the report's one copy of each phase's counts;
        # the smoke lines read them off it and match the lines printed
        # when the report also kept its own copies.
        assert smoke_lines(seed=0) == [
            "smoke: trace 57 events across 19 tracks, seed 0",
            "smoke: optimizer candidates=76 pruned=65 costed=11",
            "smoke: service 9/10 completed, 1 rejected",
            "smoke: micro 559 pages, simulated 5.8661s (faulted)",
        ]

    def test_no_registry_is_threaded_into_a_run(self):
        # Metrics are read off results; nothing takes a live sink (the
        # call fails at argument binding, before any work).
        for build in (
            lambda: TwoPhaseOptimizer(None, metrics={}),
            lambda: QueryService(metrics={}),
            lambda: RecoveryManager(metrics={}),
            lambda: run_soak(n_schedules=0, machine=None),
        ):
            with pytest.raises(TypeError):
                build()

    def test_report_counts_are_consistent(self, report):
        digest = report.metrics
        counters = digest["counters"]
        assert counters["service.offered"] > 0
        assert 0 < counters["service.completed"] <= counters["service.offered"]
        assert counters["sim.pages"] > 0
        assert digest["gauges"]["sim.elapsed"] > 0
        assert counters["optimizer.candidates"] > 0

    def test_chrome_export_is_byte_identical_across_runs(self, report):
        # The acceptance bar: same seed, same bytes — in-process repeat.
        again = run_trace(0)
        assert again.chrome_json() == report.chrome_json()

    def test_different_seeds_differ(self, report):
        other = run_trace(3)
        assert other.chrome_json() != report.chrome_json()

    def test_chrome_export_validates(self, report):
        assert validate_chrome(report.chrome_json()) is None

    def test_healthy_run_has_no_fault_events(self):
        healthy = run_trace(0, faulted=False)
        assert "fault" not in healthy.tracer.by_category()
        assert not healthy.faulted


# The seed-0 metrics of ``python -m repro trace`` (faulted, then
# ``--healthy``), frozen as printed: the table's exact lines and the
# ``metrics`` object of the ``--json`` file.  Both variants share the
# optimizer and service phases; only the micro phase differs.
_FAULTED_TABLE = [
    "metrics",
    "metric                     kind       value                                               ",
    "-------------------------  ---------  ----------------------------------------------------",
    "faults.crashes             counter    2                                                   ",
    "optimizer.candidates       counter    76                                                  ",
    "optimizer.costed           counter    11                                                  ",
    "optimizer.estimate_hits    counter    24                                                  ",
    "optimizer.estimate_misses  counter    11                                                  ",
    "optimizer.parcost_hits     counter    2                                                   ",
    "optimizer.parcost_misses   counter    9                                                   ",
    "optimizer.pruned           counter    65                                                  ",
    "optimizer.subplan_hits     counter    0                                                   ",
    "optimizer.subplan_misses   counter    11                                                  ",
    "service.admitted           counter    9                                                   ",
    "service.breaker_state      series     1 points                                            ",
    "service.completed          counter    9                                                   ",
    "service.deadline_cancels   counter    0                                                   ",
    "service.degraded           counter    0                                                   ",
    "service.offered            counter    10                                                  ",
    "service.queue_wait         histogram  n=9 mean=4.7390 p50=5.4475 p95=11.3274 p99=11.5193  ",
    "service.rejected           counter    1                                                   ",
    "service.response_time      histogram  n=9 mean=10.7875 p50=11.0117 p95=15.4382 p99=16.8681",
    "service.retries            counter    2                                                   ",
    "sim.adjustments            counter    2                                                   ",
    "sim.elapsed                gauge      5.86614                                             ",
    "sim.pages                  counter    559                                                 ",
]
_HEALTHY_TABLE = [
    "metrics",
    "metric                     kind       value                                               ",
    "-------------------------  ---------  ----------------------------------------------------",
    "optimizer.candidates       counter    76                                                  ",
    "optimizer.costed           counter    11                                                  ",
    "optimizer.estimate_hits    counter    24                                                  ",
    "optimizer.estimate_misses  counter    11                                                  ",
    "optimizer.parcost_hits     counter    2                                                   ",
    "optimizer.parcost_misses   counter    9                                                   ",
    "optimizer.pruned           counter    65                                                  ",
    "optimizer.subplan_hits     counter    0                                                   ",
    "optimizer.subplan_misses   counter    11                                                  ",
    "service.admitted           counter    9                                                   ",
    "service.breaker_state      series     1 points                                            ",
    "service.completed          counter    9                                                   ",
    "service.deadline_cancels   counter    0                                                   ",
    "service.degraded           counter    0                                                   ",
    "service.offered            counter    10                                                  ",
    "service.queue_wait         histogram  n=9 mean=4.7390 p50=5.4475 p95=11.3274 p99=11.5193  ",
    "service.rejected           counter    1                                                   ",
    "service.response_time      histogram  n=9 mean=10.7875 p50=11.0117 p95=15.4382 p99=16.8681",
    "service.retries            counter    2                                                   ",
    "sim.adjustments            counter    2                                                   ",
    "sim.elapsed                gauge      4.99316                                             ",
    "sim.pages                  counter    557                                                 ",
]
_SHARED_COUNTERS = {
    "optimizer.candidates": 76,
    "optimizer.costed": 11,
    "optimizer.estimate_hits": 24,
    "optimizer.estimate_misses": 11,
    "optimizer.parcost_hits": 2,
    "optimizer.parcost_misses": 9,
    "optimizer.pruned": 65,
    "optimizer.subplan_hits": 0,
    "optimizer.subplan_misses": 11,
    "service.admitted": 9,
    "service.completed": 9,
    "service.deadline_cancels": 0,
    "service.degraded": 0,
    "service.offered": 10,
    "service.rejected": 1,
    "service.retries": 2,
    "sim.adjustments": 2,
}
_SHARED_SECTIONS = {
    "histograms": {
        "service.queue_wait": {
            "count": 9,
            "mean": 4.739031945955599,
            "p50": 5.447469680380607,
            "p95": 11.32740370521052,
            "p99": 11.519327720772793,
        },
        "service.response_time": {
            "count": 9,
            "mean": 10.78750168611153,
            "p50": 11.011698154571821,
            "p95": 15.438157440193875,
            "p99": 16.868123879108197,
        },
    },
    "series": {"service.breaker_state": [[0.0, "closed"]]},
}
_FAULTED_JSON = {
    "counters": {**_SHARED_COUNTERS, "faults.crashes": 2, "sim.pages": 559},
    "gauges": {"sim.elapsed": 5.866144142593499},
    **_SHARED_SECTIONS,
}
_HEALTHY_JSON = {
    "counters": {**_SHARED_COUNTERS, "sim.pages": 557},
    "gauges": {"sim.elapsed": 4.993161258377169},
    **_SHARED_SECTIONS,
}


class TestFrozenMetrics:
    """``trace`` prints and writes the same metrics bytes, seed 0."""

    @pytest.mark.parametrize(
        "flags, table, digest",
        [
            ([], _FAULTED_TABLE, _FAULTED_JSON),
            (["--healthy"], _HEALTHY_TABLE, _HEALTHY_JSON),
        ],
        ids=["faulted", "healthy"],
    )
    def test_table_and_json_metrics_are_frozen(
        self, capsys, tmp_path, flags, table, digest
    ):
        path = tmp_path / "trace.json"
        assert main(["trace", "--json", str(path), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("metrics")
        assert lines[start:-1] == table
        assert lines[-1] == f"wrote flat trace JSON to {path}"
        assert json.loads(path.read_text())["metrics"] == digest


class TestValidateChrome:
    def test_rejects_non_json(self):
        assert "not JSON" in validate_chrome("[oops")

    def test_rejects_non_array(self):
        assert validate_chrome(json.dumps({"a": 1})) is not None
        assert validate_chrome("[]") is not None

    def test_rejects_non_object_record(self):
        assert "not an object" in validate_chrome("[1]")

    def test_rejects_missing_required_field(self):
        record = {"ph": "X", "ts": 0, "pid": 1}  # no tid
        problem = validate_chrome(json.dumps([record]))
        assert "tid" in problem

    def test_accepts_minimal_valid_record(self):
        record = {"ph": "i", "ts": 0, "pid": 1, "tid": 1}
        assert validate_chrome(json.dumps([record])) is None


class TestSmokeLines:
    def test_smoke_is_byte_stable(self):
        assert smoke_lines(seed=0) == smoke_lines(seed=0)

    def test_smoke_reports_all_phases_and_no_failures(self):
        lines = smoke_lines(seed=0)
        assert len(lines) == 4
        assert lines[0].startswith("smoke: trace ")
        assert "optimizer candidates=" in lines[1]
        assert "completed" in lines[2]
        assert "(faulted)" in lines[3]
        assert not any(line.startswith("smoke failed") for line in lines)


class TestJitteredRepeatability:
    """Satellite regression: full default retry jitter, scoped ids.

    The harness used to pin ``jitter=0`` because backoff jitter hashes
    ``(seed, submission_id, attempt)`` and submission ids were
    process-global — a second in-process run drew different ids and
    different jitter.  Ids are stream-scoped now, so two jittered runs
    must be byte-identical with the workaround gone.
    """

    def test_jitter_path_is_exercised(self):
        report = run_trace(0)
        # The scenario actually retries: the jitter hash is in play.
        assert report.metrics["counters"]["service.retries"] > 0

    def test_two_jittered_runs_are_byte_identical(self):
        first, second = run_trace(0), run_trace(0)
        assert first.chrome_json() == second.chrome_json()
        assert first.metrics == second.metrics
