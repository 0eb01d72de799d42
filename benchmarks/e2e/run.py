#!/usr/bin/env python3
"""The repo's one end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--traced] [--json OUT]

Without ``--workload`` every workload runs, one after another, each in
its own child process (never two at once).  With ``--workload`` the one
workload runs in this process and the last line of standard output is
the driver's JSON object (see BENCHMARK.json and README.md here).

Host time is ``time.perf_counter`` of this Python process; virtual time
is what the modelled XPRS machine takes.  Every metric says which.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import e2e_spans as S  # noqa: E402  (the path above must be set first)
import e2e_stats as stats  # noqa: E402

try:
    import e2e_workloads as W  # noqa: E402
    from repro.core.ids import id_scope  # noqa: E402
    from repro.core.schedulers import (  # noqa: E402
        InterWithAdjPolicy,
        InterWithoutAdjPolicy,
        IntraOnlyPolicy,
    )
    from repro.optimizer import TwoPhaseOptimizer  # noqa: E402
    from repro.service import AdmissionGate, QueryService  # noqa: E402
    from repro.sim import FluidSimulator, MicroSimulator  # noqa: E402
except ImportError as error:  # e.g. a checkout that holds only the benchmark
    sys.exit(f"cannot import the program under test from {ROOT / 'src'}: {error}")

MIN_PASSES = 3
#: Builds of a pass's inputs are repeated until this many seconds are spent.
SETUP_MIN_S = 0.05
#: The reference kernel's length and its wall on a calm reference box.
KERNEL_STEPS = 400_000
KERNEL_NOMINAL_S = 0.2
#: Hook-cost arms of the micro_hooks traced run: per-layer metric -> hooks on.
HOOK_ARMS = {
    "faults.on_ratio": ("faults",),
    "recovery.checkpoint_on_ratio": ("recovery",),
    "obs.tracer_on_ratio": ("obs",),
    "check.invariants_on_ratio": ("check",),
}

#: Per-layer metrics taken as they are from a pass's exact counts.
EXACT_FIGURES = (
    "optimizer.candidates",
    "optimizer.pruned",
    "optimizer.costed",
    "plans.fragments",
    "service.decide_rounds",
    "service.queue_wait_p95_vs",
    "service.response_p95_vs",
    "service.refused_share",
    "service.retries",
    "core.adjustments",
    "sim.fluid.elapsed_vs",
    "sim.fluid.cpu_utilization",
    "sim.fluid.io_utilization",
    "sim.micro.pages",
    "sim.micro.adjust_rounds",
    "sim.micro.elapsed_vs",
    "sim.micro.cpu_utilization",
    "sim.micro.io_utilization",
    "faults.injected",
    "recovery.checkpoints",
    "obs.events",
    "check.violations",
)


def load_spec() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# one workload, in this process
# --------------------------------------------------------------------------


def reference_kernel(scale: float = 1.0) -> float:
    """Seconds a fixed pure-Python kernel takes on this machine right now.

    ``scale`` < 1 (smoke size) runs that share of the kernel and scales
    the reading back up.

    The reference box is a shared VM whose speed drifts by +-20-40 % for
    tens of seconds at a time, which no statistic over one run's passes
    can remove.  The kernel (heap push-pops, method calls, dict
    stores, float arithmetic: the interpreter work the program itself
    does) is timed on both sides of every pass, and the pass's host
    seconds are divided by ``kernel seconds / KERNEL_NOMINAL_S``.  Host
    metrics are therefore in seconds *of a machine on which the kernel
    takes its nominal time*; the raw figures are printed beside them.
    """

    class Cell:
        __slots__ = ("value", "seen")

        def __init__(self) -> None:
            self.value, self.seen = 1.0, {}

        def step(self, i: int) -> float:
            self.value = self.value * 1.0000001 + i
            self.seen[i & 1023] = self.value
            return self.value

    cell = Cell()
    heap = [(float(i), i) for i in range(64)]  # constant size: no RSS footprint
    pushpop = heapq.heappushpop
    start = time.perf_counter()
    for i in range(int(KERNEL_STEPS * min(scale, 1.0))):
        pushpop(heap, (cell.step(i), i))
    return (time.perf_counter() - start) / min(scale, 1.0)


@dataclass
class Pass:
    """One build + timed phase + check, with the machine's speed around it."""

    setups: list[float]  # raw seconds of each build of the inputs
    wall: float  # raw seconds of the timed phase
    slowness: float  # kernel seconds around the pass / KERNEL_NOMINAL_S
    kernel_after: float
    ops: int
    checked: object


def one_pass(workload, seed: int, scale: float, kernel_before: float) -> Pass:
    """Build the inputs, run the timed phase, check the outputs."""
    gc.collect()
    setups: list[float] = []
    # A cheap build is repeated so that setup_s is a median of samples.
    while sum(setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = W.build(workload, seed, scale)
        setups.append(time.perf_counter() - t0)
    t1 = time.perf_counter()
    done = W.run(workload, inputs)
    wall = time.perf_counter() - t1
    kernel_after = reference_kernel(scale)
    return Pass(
        setups=setups,
        wall=wall,
        slowness=(kernel_before + kernel_after) / 2 / KERNEL_NOMINAL_S,
        kernel_after=kernel_after,
        ops=done.ops,
        checked=workload.check(inputs, done),
    )


def install_wrappers(recorder) -> None:
    """Wrap the public callables whose calls are the layer boundaries."""
    for name in ("star_join", "chain_join", "poisson_stream", "generate_specs"):
        recorder.wrap(W, name, f"workloads.{name}")
    for name in ("estimate_plan", "fragment_plan", "wire_tasks"):
        recorder.wrap(W, name, f"plans.{name}")
    recorder.wrap(TwoPhaseOptimizer, "choose_plan", "optimizer.choose_plan")
    recorder.wrap(TwoPhaseOptimizer, "parallelize", "optimizer.parallelize")
    recorder.wrap(QueryService, "run", "service.run")
    recorder.wrap(AdmissionGate, "decide", "service.gate_decide")
    for policy in (IntraOnlyPolicy, InterWithoutAdjPolicy, InterWithAdjPolicy):
        recorder.wrap(policy, "decide", "core.decide")
    recorder.wrap(FluidSimulator, "run", "sim.fluid.run")
    recorder.wrap(MicroSimulator, "run", "sim.micro.run")


def hook_ratios(workload, seed: int, scale: float, seconds: float) -> dict:
    """Wall with one hook on / wall with all off, same specs, medians."""
    inputs = W.build(workload, seed, scale)
    arms = {"off": ()} | HOOK_ARMS
    walls = {arm: [] for arm in arms}
    deadline = time.perf_counter() + seconds
    while len(walls["off"]) < 2 or time.perf_counter() < deadline:
        for arm, hooks in arms.items():
            gc.collect()
            with id_scope():
                t0 = time.perf_counter()
                W.run_micro_hooks(inputs, hooks=hooks)
                walls[arm].append(time.perf_counter() - t0)
    base = stats.quartiles(walls["off"])[1]
    return {arm: stats.quartiles(walls[arm])[1] / base for arm in HOOK_ARMS}


def layer_metrics(spans, traced, plain_walls, checked, ratios) -> dict:
    """Every per-layer metric from spans, pass walls and exact counts.

    ``traced`` maps a traced pass's id to its :class:`Pass`; span seconds
    are divided by their pass's slowness like every other host figure.
    """
    slow = {p: done.slowness for p, done in traced.items()}
    own = [o / slow[s[S.PASS]] for s, o in zip(spans, S.self_times(spans))]
    by_pass = S.layer_totals(spans, own)
    calls = Counter(s[S.NAME] for s in spans)
    fluid_rounds = sum(
        1
        for s in spans
        if s[S.PARENT] >= 0 and spans[s[S.PARENT]][S.NAME] == "sim.fluid.run"
    )
    n = len(traced)
    walls = [done.wall / done.slowness for done in traced.values()]

    def self_s(*names: str) -> list[float]:
        return [
            sum(v for k, v in by_pass[p].items() if k.startswith(names))
            for p in traced
        ]

    def median(values: list[float]) -> float:
        return stats.quartiles(values)[1]

    def share(values: list[float]) -> float:
        return median([v / wall for v, wall in zip(values, walls)])

    def pct(name: str, p: float, *, net: bool, scale: float) -> float:
        sample = sorted(
            (o if net else (s[S.END] - s[S.START]) / slow[s[S.PASS]]) * scale
            for s, o in zip(spans, own)
            if s[S.NAME] == name
        )
        return stats.percentile(sample, p)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    optimizer = self_s("optimizer.")
    gate = self_s("service.gate_decide")
    fluid = self_s("sim.fluid.run")
    micro = self_s("sim.micro.run")
    attributed = self_s("optimizer.", "plans.", "service.", "core.", "sim.")
    c = checked.counts
    hits, misses = c.get("optimizer.parcost_hits", 0), c.get("optimizer.parcost_misses", 0)
    e_hits, e_misses = c.get("optimizer.estimate_hits", 0), c.get("optimizer.estimate_misses", 0)
    out = {
        # One build's worth: a cheap build is repeated within a pass.
        "workloads.generate_s": median(
            [v / len(traced[p].setups) for v, p in zip(self_s("workloads."), traced)]
        ),
        "optimizer.self_s": median(optimizer),
        "optimizer.share": share(optimizer),
        "optimizer.us_per_candidate": ratio(
            median(optimizer) * 1e6, c.get("optimizer.candidates", 0)
        ),
        "optimizer.query_ms_p50": pct("optimizer.choose_plan", 50, net=False, scale=1e3),
        "optimizer.query_ms_p99": pct("optimizer.choose_plan", 99, net=False, scale=1e3),
        "optimizer.parcost_hit_ratio": ratio(hits, hits + misses),
        "optimizer.estimate_hit_ratio": ratio(e_hits, e_hits + e_misses),
        "plans.self_s": median(self_s("plans.")),
        "service.gate_self_s": median(gate),
        "service.gate_share": share(gate),
        "service.decide_us_p50": pct("service.gate_decide", 50, net=True, scale=1e6),
        "service.decide_us_p99": pct("service.gate_decide", 99, net=True, scale=1e6),
        "service.collect_self_s": median(self_s("service.run")),
        "core.decide_self_s": median(self_s("core.decide")),
        "core.decide_calls": calls.get("core.decide", 0) / n,
        "core.decide_us_p50": pct("core.decide", 50, net=True, scale=1e6),
        "core.decide_us_p99": pct("core.decide", 99, net=True, scale=1e6),
        "sim.fluid.self_s": median(fluid),
        "sim.fluid.runs": calls.get("sim.fluid.run", 0) / n,
        "sim.fluid.us_per_round": ratio(sum(fluid) * 1e6, fluid_rounds),
        "sim.micro.self_s": median(micro),
        "sim.micro.share": share(micro),
        "sim.micro.ns_per_page": ratio(median(micro) * 1e9, c.get("sim.micro.pages", 0)),
        "bench.trace_overhead_ratio": median(walls) / median(plain_walls),
        "bench.unattributed_share": 1.0 - share(attributed),
    }
    out.update({name: c.get(name, 0) for name in EXACT_FIGURES})
    out.update({arm: ratios.get(arm, 0.0) for arm in HOOK_ARMS})
    return out


def measure(name: str, seed: int, seconds: float, scale: float, trace: bool, chrome) -> dict:
    """Run one workload here: warm-up, timed passes, checks, metrics."""
    started = time.perf_counter()
    workload = W.WORKLOADS[name]
    problems: list[str] = []
    attempted = failed = 0

    def account(checked) -> None:
        nonlocal attempted, failed
        attempted += checked.attempted
        failed += checked.failed
        problems.extend(checked.problems)

    # Warm-up: its timings are dropped, its checks and digest are kept.
    done = one_pass(workload, seed, scale, reference_kernel(scale))
    first = done.checked
    account(first)
    if workload.verify is not None:
        verified, mismatches = workload.verify(W.build(workload, seed, scale))
        attempted += verified
        failed += len(mismatches)
        problems += mismatches

    plain: list[Pass] = []
    traced: dict[int, Pass] = {}
    recorder = S.SpanRecorder()
    # micro_hooks' traced run spends half its time on the hook-cost arms.
    hook_arms = trace and name == "micro_hooks"
    span_budget = seconds / 2 if hook_arms else seconds
    kernel = reference_kernel(scale)
    measuring = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - measuring < span_budget:
        index += 1
        # A traced run alternates plain and wrapped passes, so the two
        # walls behind bench.trace_overhead_ratio see the same machine.
        wrapped = trace and index % 2 == 0
        if wrapped:
            recorder.pass_id = index
            install_wrappers(recorder)
        try:
            done = one_pass(workload, seed, scale, kernel)
        finally:
            recorder.restore()
        kernel = done.kernel_after
        account(done.checked)
        if done.checked.digest != first.digest:
            failed += done.checked.attempted
            problems.append(f"pass {index}: virtual results differ from the warm-up's")
        if wrapped:
            traced[index] = done
        else:
            plain.append(done)

    walls = [p.wall / p.slowness for p in plain]
    rate = stats.summary([p.ops / wall for p, wall in zip(plain, walls)])
    setup = stats.summary([s / p.slowness for p in plain for s in p.setups])
    record = {
        "workload": name,
        "why": workload.why,
        "op": workload.op,
        "seed": seed,
        "scale": scale,
        "ops_per_pass": done.ops,
        "passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": first.digest,
        "rungs": first.rungs,
        "end_to_end": {
            "setup_s": setup["median"],
            "ops_per_s": rate["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **first.virtual,
            "passed_share": 1.0 - failed / attempted,
        },
        "quartiles": {"setup_s": setup, "ops_per_s": rate},
        # Uncalibrated, for the record: what the wall clock itself read.
        "raw": {
            "ops_per_s": stats.summary([p.ops / p.wall for p in plain]),
            "setup_s": stats.summary([s for p in plain for s in p.setups]),
            "machine_slowness": stats.summary([p.slowness for p in plain]),
        },
    }
    if trace:
        ratios = (
            hook_ratios(workload, seed, scale, seconds - span_budget) if hook_arms else {}
        )
        record["per_layer"] = layer_metrics(recorder.spans, traced, walls, first, ratios)
        record["traced_passes"] = len(traced)
        record["traced_only"] = True
        if chrome:
            Path(chrome).write_text(S.chrome_trace(recorder.spans))
    record["command_wall_s"] = time.perf_counter() - started
    return record


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def fingerprint() -> dict:
    """Where the numbers were taken."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` (no process spawned)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_record(record: dict, spec: dict, *, comparable: bool = True) -> None:
    """Every metric of one workload's record, by name, with its unit."""
    note = "" if comparable else "  [smoke size: not for comparison]"
    print(
        f"\n== {record['workload']} (seed {record['seed']}, op = {record['op']}, "
        f"{record['ops_per_pass']} ops/pass, {record['passes']} timed passes "
        f"after 1 warm-up){note}"
    )
    print(f"   why: {record['why']}")
    if comparable and record.get("traced_only"):
        print("   (end-to-end figures below come from a traced run's plain passes; "
              "peak_rss_mb includes the span store — compare the --trace 0 ones)")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        clock = "virtual" if name.startswith("sim_") else "host" if name != "passed_share" else "-"
        line = f"   {name:<22}{record['end_to_end'][name]:>16.6g} {metric['unit']:<9}{clock:<8}"
        q = record["quartiles"].get(name)
        if q:
            line += f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n {q['n']}"
        print(line)
    raw = record["raw"]
    print(
        f"   host seconds are reference-kernel seconds; the wall clock itself read "
        f"ops_per_s {raw['ops_per_s']['median']:.6g}, setup_s {raw['setup_s']['median']:.6g} "
        f"with the machine at {raw['machine_slowness']['median']:.3f}x "
        f"(q1 {raw['machine_slowness']['q1']:.3f}, q3 {raw['machine_slowness']['q3']:.3f}) "
        f"the kernel's nominal time"
    )
    print(
        f"   checks: {record['failed']} failed of {record['attempted']} attempted; "
        f"virtual-result digest sha256 {record['digest'][:16]}… (same on every pass)"
    )
    for problem in record["problems"]:
        print(f"   FAILED CHECK: {problem}")
    for rung in record["rungs"]:
        print(
            f"   rung {rung['admission']:<8} rho {rung['rho']:<5.3g} "
            f"done {rung['completed']:>4} degraded {rung['degraded']:>3} "
            f"refused {rung['rejected']:>3} deadline {rung['deadline']:>4} "
            f"SLO miss {rung['slo_miss_share']:.3f} "
            f"p95 {rung['p95_response_vs']:.2f} vs  "
            f"elapsed {rung['elapsed_vs']:.1f} vs (n {rung['offered']})"
        )
    if record["rungs"]:
        print(
            "   arrivals are virtual stamps: the open-loop generator cannot run late"
        )
    if "per_layer" in record:
        print(f"   per-layer metrics ({record['traced_passes']} traced passes):")
        for metric in spec["per_layer"]:
            print(
                f"     {metric['name']:<30}{record['per_layer'][metric['name']]:>16.6g} "
                f"{metric['unit']}"
            )


def contract_line(record: dict, trace: bool, spec: dict) -> str:
    """The driver's last-line JSON object."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": float(record[group][m["name"]]), "unit": m["unit"]}
        for m in spec[group]
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics,
        }
    )


# --------------------------------------------------------------------------
# every workload, each in its own child process
# --------------------------------------------------------------------------


def spans_path(out_dir: Path, name: str, seed: int) -> Path:
    """Where a traced run's Chrome span trace goes: beside ``--json``'s file."""
    return out_dir / f"e2e_spans_{name}_seed{seed}.json"


def run_child(name: str, args, *, trace: bool, out_dir: Path | None) -> dict:
    """Run one workload in a child process and return its record."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(int(trace)),
        "--record",
    ]
    if trace and out_dir is not None:
        command += ["--chrome", str(spans_path(out_dir, name, args.seed))]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(f"{name}: child failed ({done.returncode})\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-2])


def run_suite(args, names: list[str], *, trace: bool, comparable: bool = True) -> list[dict]:
    spec = load_spec()
    out_dir = Path(args.json).resolve().parent if args.json else None
    records = []
    for name in names:
        record = run_child(name, args, trace=False, out_dir=None) if comparable else None
        if trace:
            traced = run_child(name, args, trace=True, out_dir=out_dir)
            if record is None:
                record = traced
            else:
                record["per_layer"] = traced["per_layer"]
                record["traced_passes"] = traced["traced_passes"]
                record["failed"] += traced["failed"]
                record["attempted"] += traced["attempted"]
                record["problems"] += traced["problems"]
        print_record(record, spec, comparable=comparable)
        records.append(record)
    return records


#: Units of figures that are pure functions of the seed (virtual clock, counts).
EXACT_UNITS = ("count", "fraction", "virtual_s")


def compare(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    """--selfcheck: host medians within bounds, everything virtual exact."""
    complaints = []
    for a, b in zip(first, second):
        where = a["workload"]
        if a["digest"] != b["digest"]:
            complaints.append(f"{where}: virtual-result digests differ")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            if name.startswith("sim_") or name == "passed_share":
                if x != y:
                    complaints.append(f"{where}: {name} {x!r} != {y!r}")
                continue
            worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
            if worse > metric["bound"]:
                complaints.append(
                    f"{where}: {name} got {worse:.1%} worse between the two runs "
                    f"(bound {metric['bound']:.0%})"
                )
        for metric in spec["per_layer"] if "per_layer" in a else ():
            name = metric["name"]
            if metric["unit"] in EXACT_UNITS and a["per_layer"][name] != b["per_layer"][name]:
                complaints.append(f"{where}: exact figure {name} differs")
    return complaints


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the timed passes of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT", help="write every record (and, traced, "
                        "Chrome span traces beside it) to this file")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and fail if the two disagree")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size; values not for comparison")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--chrome", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace or args.traced)
    if args.json:
        Path(args.json).resolve().parent.mkdir(parents=True, exist_ok=True)

    if args.workload and not (args.selfcheck or args.smoke):
        chrome = args.chrome
        if trace and args.json and not chrome:
            chrome = spans_path(Path(args.json).resolve().parent, args.workload, args.seed)
        record = measure(args.workload, args.seed, args.seconds, args.scale, trace, chrome)
        record["host"] = fingerprint()
        if args.record:
            print(json.dumps(record))
        else:
            print_record(record, spec)
            print(f"   host: {record['host']}; command wall {record['command_wall_s']:.1f} s")
            if args.json:
                Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
        print(contract_line(record, trace, spec))
        return 0 if record["failed"] == 0 else 1

    started = time.perf_counter()
    chosen = [args.workload] if args.workload else names
    complaints: list[str] = []
    if args.smoke:
        args.scale, args.seconds = 0.05, 0.0
        records = run_suite(args, chosen, trace=True, comparable=False)
    else:
        records = run_suite(args, chosen, trace=trace)
        if args.selfcheck:
            print("\n-- selfcheck: second run of the whole suite --")
            complaints = compare(records, run_suite(args, chosen, trace=trace), spec)
    failed = sum(r["failed"] for r in records)
    host = fingerprint() | {
        "seed": args.seed,
        "timed_passes": {r["workload"]: r["passes"] for r in records},
        "command_wall_s": time.perf_counter() - started,
    }
    print(f"\nhost: {host}")
    for complaint in complaints:
        print(f"SELFCHECK FAILED: {complaint}")
    if args.selfcheck and not complaints:
        print("selfcheck ok: host medians within their bounds; virtual metrics, "
              "exact counts and digests identical")
    print(f"{'FAILED' if failed or complaints else 'ok'}: {failed} failed output checks")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"host": host, "records": records}, indent=1) + "\n"
        )
    return 1 if failed or complaints else 0


if __name__ == "__main__":
    sys.exit(main())
