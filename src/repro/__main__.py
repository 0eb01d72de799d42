"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure7``   — run the headline experiment and print the table.
* ``calibrate`` — re-measure the paper's Section-3 constants.
* ``fig3``      — the IO/CPU classification table.
* ``fig4``      — a worked IO-CPU balance point.
* ``gantt``     — schedule one workload and draw its Gantt chart.
* ``demo-sql``  — build a demo database and run a SQL statement.
* ``serve``     — serving mode: open arrival stream + admission control.
* ``chaos``     — run the simulator under an injected fault schedule.
* ``recover``   — compare checkpointed resume against restart-from-scratch.
* ``trace``     — record a unified trace and export it (Chrome/JSON).
* ``check``     — runtime invariants, differential checks and fuzzing.

Exit codes: ``0`` success, ``1`` command-specific failure, ``2`` bad
arguments (argparse usage errors), ``3`` a :class:`~repro.errors.ReproError`
escaped a command.
"""

from __future__ import annotations

import argparse
import sys

#: Exit code for malformed command lines (argparse's own convention).
EXIT_USAGE = 2
#: Exit code when a command dies with a ReproError.
EXIT_REPRO_ERROR = 3


def _print_smoke(lines: list[str]) -> int:
    """Print a ``--smoke`` report; exit 1 if it holds a ``smoke failed`` line."""
    print("\n".join(lines))
    return 1 if any(line.startswith("smoke failed") for line in lines) else 0


def _workload_kind(value: str):
    """argparse ``type`` of ``gantt --workload``.  Resolved when the
    flag is parsed, so building the parser imports no workload code."""
    from .workloads import WorkloadKind

    try:
        return WorkloadKind(value)
    except ValueError:
        kinds = ", ".join(kind.value for kind in WorkloadKind)
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {kinds})"
        ) from None


def _cmd_figure7(args: argparse.Namespace) -> int:
    from .bench import run_figure7
    from .workloads import WorkloadConfig

    result = run_figure7(
        engine=args.engine,
        seeds=tuple(range(args.seeds)),
        config=WorkloadConfig(max_pages=args.max_pages),
    )
    print(result.to_table())
    print()
    print(result.to_bar_chart())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .bench import calibrate

    print(calibrate().to_table())
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .bench import figure3

    print(figure3().to_table())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from .bench import figure4

    print(figure4(args.io_rate, args.cpu_rate).to_table())
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .bench.gantt import render_gantt
    from .config import paper_machine
    from .core import policy_by_name
    from .sim import FluidSimulator
    from .workloads import WorkloadConfig, generate_tasks

    machine = paper_machine()
    kind = args.workload
    tasks = generate_tasks(
        kind,
        seed=args.seed,
        machine=machine,
        config=WorkloadConfig(max_pages=args.max_pages),
    )
    result = FluidSimulator(machine).run(tasks, policy_by_name(args.policy))
    print(
        render_gantt(
            result,
            title=f"{kind.value} workload under {args.policy} "
            f"(digits = degree of parallelism)",
        )
    )
    return 0


def _cmd_demo_sql(args: argparse.Namespace) -> int:
    from .sql import SqlError, run_sql
    from .workloads import chain_join

    schema = chain_join(3, rows_per_relation=500, seed=0)
    print(
        "Demo tables: s1(s1_l, s1_r, s1_pad), s2(s2_l, s2_r, s2_pad), "
        "s3(s3_l, s3_r, s3_pad)"
    )
    try:
        rows = run_sql(args.sql, schema.catalog)
    except SqlError as error:
        print(f"SQL error: {error}", file=sys.stderr)
        return 1
    for row in rows[: args.max_rows]:
        print(row)
    if len(rows) > args.max_rows:
        print(f"... ({len(rows)} rows total)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .config import paper_machine
    from .service import (
        QueryService,
        admission_by_name,
        estimate_capacity,
        format_sweep,
        format_timeline,
        mixed_tenant_config,
        onoff_stream,
        poisson_stream,
        smoke_lines,
        sweep,
        utilization_timeline,
    )

    if args.smoke:
        return _print_smoke(smoke_lines(seed=args.seed))

    machine = paper_machine()
    config = mixed_tenant_config(args.n)
    service = QueryService(
        machine,
        admission=admission_by_name(args.admission),
        queue_capacity=args.queue_cap,
        max_inflight_fragments=args.inflight,
    )

    def stream_factory(rate, seed, cfg, mach):
        if args.arrivals == "onoff":
            return onoff_stream(
                rate=rate,
                seed=seed,
                on_fraction=args.on_fraction,
                period=args.period,
                config=cfg,
                machine=mach,
            )
        return poisson_stream(rate=rate, seed=seed, config=cfg, machine=mach)

    if args.sweep:
        rows = sweep(
            rhos=tuple(args.rho_points),
            seed=args.seed,
            config=config,
            machine=machine,
            service=service,
            stream_factory=stream_factory,
        )
        print(
            format_sweep(
                rows,
                title=f"latency-vs-throughput knee ({args.admission} admission, "
                f"{args.arrivals} arrivals, seed {args.seed})",
            )
        )
        return 0

    rate = args.rate
    if rate is None:
        mu = estimate_capacity(
            seed=args.seed, config=config, machine=machine, service=service
        )
        rate = args.rho * mu
    stream = stream_factory(rate, args.seed, config, machine)
    result = service.run(stream)
    lines = [result.metrics.to_table()]
    if args.bucket is not None:
        timeline = utilization_timeline(result.schedule, bucket=args.bucket)
        lines += ["", format_timeline(timeline)]
    print("\n".join(lines))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .errors import SimulationError
    from .faults import load_schedule
    from .faults.chaos import random_chaos_schedule, run_chaos, run_soak

    if args.soak is not None:
        try:
            soak = run_soak(
                n_schedules=args.soak,
                scale=0.2 if args.smoke else args.scale,
            )
        except SimulationError as error:
            print(f"chaos failed: {error}", file=sys.stderr)
            return 1
        print("\n".join(soak.to_lines()))
        if not soak.ok:
            print("chaos failed: soak verdict FAILED", file=sys.stderr)
            return 1
        return 0
    schedule = None
    if args.schedule is not None:
        schedule = load_schedule(args.schedule)
    elif args.random is not None:
        schedule = random_chaos_schedule(args.random, horizon=args.horizon)
    scale = 0.2 if args.smoke else args.scale
    try:
        report = run_chaos(
            schedule=schedule,
            preset=args.preset,
            seed=args.seed,
            scale=scale,
        )
    except SimulationError as error:
        # A tolerance invariant broke mid-run (e.g. page conservation):
        # that is a chaos *failure*, distinct from a usage error.
        print(f"chaos failed: {error}", file=sys.stderr)
        return 1
    print("\n".join(report.to_lines()))
    if not report.ok:
        print("chaos failed: fault tolerance verdict FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .faults import load_schedule
    from .recovery.harness import run_recover, smoke_lines

    if args.smoke:
        return _print_smoke(smoke_lines(seed=args.seed))
    schedule = (
        load_schedule(args.schedule) if args.schedule is not None else None
    )
    report = run_recover(
        seed=args.seed,
        scale=args.scale,
        preset=args.preset,
        schedule=schedule,
    )
    print("\n".join(report.to_lines()))
    if not report.complete:
        print(
            "recover failed: an arm did not finish every task",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import (
        flat_json,
        metrics_table,
        run_trace,
        smoke_lines,
        validate_chrome,
    )

    if args.smoke:
        # Byte-stable: virtual-time event counts and simulated
        # quantities only, never wall-clock.
        return _print_smoke(smoke_lines(seed=args.seed))
    report = run_trace(args.seed, faulted=not args.healthy)
    print(report.summary())
    print()
    print(metrics_table(report.metrics))
    if args.chrome is not None:
        text = report.chrome_json()
        problem = validate_chrome(text)
        if problem is not None:
            print(f"trace failed: chrome export invalid ({problem})", file=sys.stderr)
            return 1
        Path(args.chrome).write_text(text)
        print(f"wrote Chrome trace to {args.chrome} (open in Perfetto)")
    if args.json is not None:
        Path(args.json).write_text(flat_json(report.tracer, report.metrics))
        print(f"wrote flat trace JSON to {args.json}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check.fuzz import fuzz, generate_scenario, run_case, smoke_lines

    if args.smoke:
        # One quick pass over every pillar: invariant hooks in both
        # engines, each differential pair, and the real executor.
        return _print_smoke(smoke_lines(seed=args.seed))
    if args.invariants:
        scenario = generate_scenario(args.seed)
        print(scenario.describe())
        failures = run_case(scenario, executor=args.executor)
        for failure in failures:
            print(f"check failed: {failure}")
        return 1 if failures else 0
    n = args.fuzz if args.fuzz is not None else 50

    def progress(done: int, total: int, failed: int) -> None:
        print(f"fuzz: {done}/{total} cases, {failed} failing", flush=True)

    report = fuzz(
        n,
        seed=args.seed,
        executor=args.executor,
        do_shrink=args.shrink,
        progress=progress,
    )
    if report.ok:
        print(f"check ok: {report.cases} cases, 0 failures")
        return 0
    print(f"check failed: {len(report.failures)} of {report.cases} cases")
    for scenario, failures in report.failures:
        print()
        print(scenario.describe())
        for failure in failures:
            print(f"  {failure}")
    if args.shrink:
        print()
        print("reproduce the first failure with:")
        print(f"  python -m repro check --invariants --seed {report.failures[0][0].seed}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from .core.schedulers import POLICIES
    from .faults.schedule import FAULT_PRESETS
    from .service.admission import ADMISSION_POLICIES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="XPRS inter-operation parallelism reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figure7 = commands.add_parser("figure7", help="run the Figure-7 experiment")
    figure7.add_argument("--engine", choices=("micro", "fluid"), default="micro")
    figure7.add_argument("--seeds", type=int, default=3)
    figure7.add_argument("--max-pages", type=int, default=2000)
    figure7.set_defaults(func=_cmd_figure7)

    calibrate = commands.add_parser("calibrate", help="re-measure Section-3 constants")
    calibrate.set_defaults(func=_cmd_calibrate)

    fig3 = commands.add_parser("fig3", help="IO/CPU classification table")
    fig3.set_defaults(func=_cmd_fig3)

    fig4 = commands.add_parser("fig4", help="a worked IO-CPU balance point")
    fig4.add_argument("--io-rate", type=float, default=55.0)
    fig4.add_argument("--cpu-rate", type=float, default=10.0)
    fig4.set_defaults(func=_cmd_fig4)

    gantt = commands.add_parser("gantt", help="draw one workload's schedule")
    gantt.add_argument(
        "--workload",
        type=_workload_kind,
        default="Extreme",
        help="one of the four Figure-7 workload mixes",
    )
    gantt.add_argument(
        "--policy",
        choices=tuple(POLICIES),
        default="INTER-WITH-ADJ",
    )
    gantt.add_argument("--seed", type=int, default=0)
    gantt.add_argument("--max-pages", type=int, default=2000)
    gantt.set_defaults(func=_cmd_gantt)

    demo_sql = commands.add_parser("demo-sql", help="run SQL on a demo database")
    demo_sql.add_argument("sql", help="a SELECT statement")
    demo_sql.add_argument("--max-rows", type=int, default=20)
    demo_sql.set_defaults(func=_cmd_demo_sql)

    serve = commands.add_parser(
        "serve", help="serving mode: open arrivals + admission control"
    )
    serve.add_argument(
        "--admission", choices=tuple(ADMISSION_POLICIES), default="balance"
    )
    serve.add_argument(
        "--arrivals", choices=("poisson", "onoff"), default="poisson"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load λ in submissions/s (default: --rho × measured μ)",
    )
    serve.add_argument(
        "--rho",
        type=float,
        default=0.8,
        help="offered load as a fraction of measured capacity μ",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--n", type=int, default=80, help="stream length")
    serve.add_argument(
        "--queue-cap", type=int, default=20, help="per-tenant queue bound"
    )
    serve.add_argument(
        "--inflight",
        type=int,
        default=2,
        help="max admitted-but-unfinished fragments",
    )
    serve.add_argument(
        "--on-fraction", type=float, default=0.4, help="onoff: ON fraction"
    )
    serve.add_argument(
        "--period", type=float, default=120.0, help="onoff: cycle seconds"
    )
    serve.add_argument(
        "--bucket",
        type=float,
        default=None,
        help="utilization-timeline bucket seconds (omit to skip)",
    )
    serve.add_argument(
        "--sweep",
        action="store_true",
        help="sweep offered load and print the knee table",
    )
    serve.add_argument(
        "--rho-points",
        type=float,
        nargs="+",
        default=[0.4, 0.6, 0.8, 0.9, 1.0, 1.2],
        help="ρ points of --sweep",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="quick deterministic end-to-end trace",
    )
    serve.set_defaults(func=_cmd_serve)

    chaos = commands.add_parser(
        "chaos", help="run the simulator under an injected fault schedule"
    )
    chaos.add_argument(
        "--preset",
        # crash-heavy is the recovery harness's schedule, not chaos's.
        choices=tuple(p for p in FAULT_PRESETS if p != "crash-heavy"),
        default="mixed",
        help="built-in fault schedule (scaled to the healthy elapsed time)",
    )
    chaos.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="JSON fault-schedule file (overrides --preset)",
    )
    chaos.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="SEED",
        help="generate a random schedule from SEED (overrides --preset)",
    )
    chaos.add_argument(
        "--horizon",
        type=float,
        default=15.0,
        help="time horizon of a --random schedule, seconds",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="quick deterministic run on a shrunken workload",
    )
    chaos.add_argument(
        "--soak",
        type=int,
        default=None,
        metavar="N",
        help="soak mode: N random schedules x 3 seeds, each layered "
        "with deadline cancellations and periodic master crashes; "
        "fails on any conservation violation or wedged round",
    )
    chaos.set_defaults(func=_cmd_chaos)

    recover = commands.add_parser(
        "recover",
        help="compare checkpointed resume against restart-from-scratch "
        "under a crash-heavy fault schedule",
    )
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier",
    )
    recover.add_argument(
        "--preset",
        choices=FAULT_PRESETS,
        default="crash-heavy",
        help="built-in fault schedule (scaled to the healthy elapsed time)",
    )
    recover.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="JSON fault-schedule file (overrides --preset)",
    )
    recover.add_argument(
        "--smoke",
        action="store_true",
        help="quick deterministic run on a shrunken workload",
    )
    recover.set_defaults(func=_cmd_recover)

    trace = commands.add_parser(
        "trace", help="record a unified trace and export it"
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--healthy",
        action="store_true",
        help="skip the mixed fault preset in the micro phase",
    )
    trace.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="write the Chrome trace-event JSON (open in Perfetto)",
    )
    trace.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the flat events + metrics JSON",
    )
    trace.add_argument(
        "--smoke",
        action="store_true",
        help="quick deterministic run, byte-stable output",
    )
    trace.set_defaults(func=_cmd_trace)

    check = commands.add_parser(
        "check",
        help="runtime invariants, cross-engine differentials and fuzzing",
    )
    check.add_argument("--seed", type=int, default=0, help="base fuzz seed")
    check.add_argument(
        "--fuzz",
        type=int,
        default=None,
        metavar="N",
        help="number of fuzz cases (default 50)",
    )
    check.add_argument(
        "--invariants",
        action="store_true",
        help="run the single seeded scenario, printing it first "
        "(the reproducer mode --shrink points at)",
    )
    check.add_argument(
        "--shrink",
        action="store_true",
        help="minimize failing scenarios before reporting them",
    )
    check.add_argument(
        "--executor",
        action="store_true",
        help="include the multiprocessing executor differential "
        "(spawns real processes on every 25th seed)",
    )
    check.add_argument(
        "--smoke",
        action="store_true",
        help="one quick pass over every pillar",
    )
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Usage errors exit with :data:`EXIT_USAGE` (2); a
    :class:`~repro.errors.ReproError` escaping a command exits with
    :data:`EXIT_REPRO_ERROR` (3) — distinct codes so scripts can tell
    a mistyped flag from a failed run.
    """
    from .errors import ReproError

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_REPRO_ERROR


if __name__ == "__main__":
    sys.exit(main())
