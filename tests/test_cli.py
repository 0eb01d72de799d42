"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import EXIT_REPRO_ERROR, EXIT_USAGE, main


class TestCli:
    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "r_min scan io rate" in out
        assert "240 ios/s" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "IO-bound" in capsys.readouterr().out

    def test_fig4_custom_rates(self, capsys):
        assert main(["fig4", "--io-rate", "50", "--cpu-rate", "8"]) == 0
        out = capsys.readouterr().out
        assert "x_io" in out
        assert "100.0%" in out

    def test_figure7_fluid_small(self, capsys):
        assert main(
            ["figure7", "--engine", "fluid", "--seeds", "1", "--max-pages", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "INTER-WITH-ADJ" in out

    def test_gantt(self, capsys):
        assert main(["gantt", "--workload", "Extreme", "--max-pages", "300"]) == 0
        out = capsys.readouterr().out
        assert "policy=INTER-WITH-ADJ" in out

    def test_gantt_workload_is_validated_when_parsed(self, capsys):
        assert main(["gantt", "--workload", "Earthquake"]) == EXIT_USAGE
        assert "choose from AllCPU, AllIO, Extreme, Random" in capsys.readouterr().err

    def test_demo_sql(self, capsys):
        assert main(["demo-sql", "SELECT count(*) FROM s1"]) == 0
        assert "(" in capsys.readouterr().out

    def test_demo_sql_error(self, capsys):
        assert main(["demo-sql", "SELECT FROM"]) == 1
        assert "SQL error" in capsys.readouterr().err

    def test_unknown_command_exits_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_command_exits_usage(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_repro_error_exits_distinct_code(self, capsys):
        # A negative rate raises ConfigError (a ReproError): exit 3,
        # distinct from argparse usage errors (exit 2).
        assert main(["serve", "--rate", "-1"]) == EXIT_REPRO_ERROR
        assert "error:" in capsys.readouterr().err

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke: 10/10 completed" in out
        assert "q0" in out and "response=" in out

    def test_serve_smoke_is_deterministic(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_smoke_failure_exits_one(self, capsys, monkeypatch):
        # _cmd_serve resolves smoke_lines off the package at call time,
        # so patching the attribute simulates a gate that starves.
        import repro.service

        monkeypatch.setattr(
            repro.service,
            "smoke_lines",
            lambda *, seed=0: ["smoke failed: no submissions completed"],
        )
        assert main(["serve", "--smoke"]) == 1
        assert "smoke failed" in capsys.readouterr().out

    def test_serve_metrics_table(self, capsys):
        assert main(["serve", "--n", "20", "--arrivals", "onoff"]) == 0
        out = capsys.readouterr().out
        assert "service metrics" in out
        assert "etl" in out and "olap" in out

    def test_serve_sweep(self, capsys):
        assert main(
            ["serve", "--sweep", "--rho-points", "0.6", "--n", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "latency-vs-throughput knee" in out
        assert "0.60" in out


@pytest.mark.chaos
class TestChaosCommand:
    def test_chaos_smoke_exits_zero_on_tolerated_faults(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "fault log:" in out
        assert "adjust aborts" in out

    def test_chaos_preset_choices_are_validated(self, capsys):
        assert main(["chaos", "--preset", "earthquake"]) == EXIT_USAGE
        capsys.readouterr()

    def test_chaos_schedule_file(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            json.dumps(
                {
                    "faults": [
                        {
                            "kind": "degrade",
                            "disk": 0,
                            "start": 0.5,
                            "duration": 5.0,
                            "factor": 0.5,
                        },
                        {"kind": "crash", "at": 1.0, "task": "io0"},
                    ]
                }
            )
        )
        assert main(["chaos", "--smoke", "--schedule", str(path)]) == 0
        out = capsys.readouterr().out
        assert "faults=2 scheduled" in out
        assert "verdict: OK" in out

    def test_chaos_missing_schedule_exits_repro_error(self, capsys):
        assert main(
            ["chaos", "--schedule", "/no/such/file.json"]
        ) == EXIT_REPRO_ERROR
        assert "cannot read fault schedule" in capsys.readouterr().err

    def test_chaos_random_schedule(self, capsys):
        assert main(["chaos", "--smoke", "--random", "4", "--horizon", "3"]) == 0
        assert "verdict: OK" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_prints_summary_and_metrics(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "optimizer" in out and "admission" in out
        assert "service.completed" in out

    def test_trace_smoke_exits_zero(self, capsys):
        assert main(["trace", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke: trace " in out
        assert "(faulted)" in out
        assert "smoke failed" not in out

    def test_trace_smoke_is_byte_stable(self, capsys):
        assert main(["trace", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_trace_smoke_failure_exits_one(self, capsys, monkeypatch):
        # _cmd_trace resolves smoke_lines off the package at call time,
        # so patching the attribute simulates a violated invariant.
        import repro.obs

        monkeypatch.setattr(
            repro.obs,
            "smoke_lines",
            lambda *, seed=0: ["smoke failed: the trace is empty"],
        )
        assert main(["trace", "--smoke"]) == 1
        assert "smoke failed" in capsys.readouterr().out

    def test_trace_chrome_export_validates(self, capsys, tmp_path):
        from repro.obs import validate_chrome

        path = tmp_path / "trace.json"
        assert main(["trace", "--chrome", str(path)]) == 0
        assert "open in Perfetto" in capsys.readouterr().out
        assert validate_chrome(path.read_text()) is None

    def test_trace_json_export(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        assert main(["trace", "--json", str(path), "--healthy"]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["events"]
        assert "sim.pages" in payload["metrics"]["counters"]

    def test_trace_rejects_bad_seed(self, capsys):
        assert main(["trace", "--seed", "not-a-number"]) == EXIT_USAGE


class TestRecoverCommand:
    def test_recover_smoke_exits_zero(self, capsys):
        assert main(["recover", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "recover seed=0" in out
        assert "gain:" in out
        assert "restores 3" in out

    def test_recover_smoke_is_byte_stable(self, capsys):
        assert main(["recover", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["recover", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_recover_smoke_failure_exits_one(self, capsys, monkeypatch):
        import repro.recovery.harness

        monkeypatch.setattr(
            repro.recovery.harness,
            "smoke_lines",
            lambda *, seed=0: ["smoke failed: resume arm never restored"],
        )
        assert main(["recover", "--smoke"]) == 1
        assert "smoke failed" in capsys.readouterr().out

    def test_recover_full_run(self, capsys):
        assert main(["recover", "--scale", "0.2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "recover seed=1" in out
        assert "scratch: total" in out
        assert "resumed: total" in out

    def test_recover_schedule_file(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            json.dumps(
                {"faults": [{"kind": "master-crash", "at": 0.2}]}
            )
        )
        assert main(
            ["recover", "--scale", "0.2", "--schedule", str(path)]
        ) == 0
        assert "faults=1 scheduled" in capsys.readouterr().out

    def test_recover_missing_schedule_exits_repro_error(self, capsys):
        assert main(
            ["recover", "--schedule", "/no/such/file.json"]
        ) == EXIT_REPRO_ERROR
        assert "cannot read fault schedule" in capsys.readouterr().err

    def test_recover_preset_choices_are_validated(self, capsys):
        assert main(["recover", "--preset", "earthquake"]) == EXIT_USAGE
        capsys.readouterr()

    def test_recover_bad_scale_exits_repro_error(self, capsys):
        assert main(["recover", "--scale", "0"]) == EXIT_REPRO_ERROR
        assert "scale must be positive" in capsys.readouterr().err


class TestChaosSoak:
    def test_soak_exits_zero_and_reports(self, capsys):
        assert main(["chaos", "--soak", "2", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "soak: 6 runs" in out
        assert "verdict: OK" in out

    def test_soak_failure_exits_one(self, capsys, monkeypatch):
        from repro.faults import chaos as chaos_module

        def broken_soak(**kwargs):
            report = chaos_module.SoakReport(n_schedules=1, seeds=(0,))
            report.runs = 1
            report.failures.append("seed=0 schedule=0: 2/3 tasks, 0 wedged")
            return report

        monkeypatch.setattr(chaos_module, "run_soak", broken_soak)
        assert main(["chaos", "--soak", "1", "--smoke"]) == 1
        captured = capsys.readouterr()
        assert "verdict: FAILED" in captured.out
        assert "soak verdict FAILED" in captured.err

    def test_cli_random_and_soak_draw_over_the_same_workload(
        self, capsys, monkeypatch
    ):
        """``chaos --random`` and ``run_soak`` name the same tasks and
        disks: both derive them from the chaos workload and machine."""
        from repro.faults import chaos as chaos_module

        drawn = []
        real = chaos_module.random_schedule

        def spy(seed, **kwargs):
            drawn.append((kwargs["n_disks"], kwargs["task_names"]))
            return real(seed, **kwargs)

        monkeypatch.setattr(chaos_module, "random_schedule", spy)
        assert main(["chaos", "--smoke", "--random", "4", "--horizon", "3"]) == 0
        assert main(["chaos", "--soak", "1", "--smoke"]) == 0
        capsys.readouterr()
        assert len(drawn) == 4 and len(set(drawn)) == 1
        machine = chaos_module.paper_machine()
        names = tuple(s.name for s in chaos_module.chaos_workload(machine))
        assert drawn[0] == (machine.disks, names)
