"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, end-to-end table
    python3 perfbench/run.py --trace 1            # every workload, per-layer table
    python3 perfbench/run.py --workload rr_failover_lan --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload peer_sym_wan --validate-tracing

Each measurement runs the workload in a fresh child process, one at a time,
so that set-up time includes interpreter start and imports and peak memory
belongs to one workload.  An untraced run repeats the child (same seed,
alternating ``PYTHONHASHSEED``) for ``--seconds``, at least ``MIN_REPEATS``
times, starting a further repeat only if one as long as the last ends in
time; the simulated results of every repeat must be identical, and
host-side metrics are their medians.  A traced run makes one untraced and
one traced child and requires identical simulated results.  A child killed
by a signal is run once more; a child still running when the invocation's
``RUN_BUDGET_S`` is up is killed, and the run exits with 2.

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check prints that object with ``correct: false`` and exits with 1; a run
that cannot measure at all exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: untraced repeats per measurement, whatever ``--seconds`` says
MIN_REPEATS = 3
MAX_REPEATS = 50
#: PYTHONHASHSEED values the repeats cycle through
HASH_SEEDS = ("0", "1", "2", "3")
#: one invocation, every child included, ends within this many seconds (a
#: benchmark run may take 180); a child still running then is killed
RUN_BUDGET_S = 170.0
#: traced self times plus kernel self time must cover the traced window
SELF_TIME_TOLERANCE = 0.02

#: end-to-end metrics a run reports (name -> unit); the other three of the
#: ten (failed_frac, shed_frac, outage_ms) can be 0 or absent on a workload,
#: so they are printed and checked but not reported as gated metrics
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "goodput_per_s": "1/s",
    "msgs_per_op": "count",
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_ONLY = {"failed_frac": "frac", "shed_frac": "frac", "outage_ms": "ms"}

SELF_TIME_LAYERS = (
    "sim", "net", "orb.marshal", "orb.dispatch", "groupcomm.channel",
    "groupcomm.session", "groupcomm.ordering", "groupcomm.membership",
    "core.binding", "core.server", "overload", "shard", "recovery", "obs",
    "scenario", "apps",
)

#: per-layer metrics a traced run reports (name -> unit)
PER_LAYER: Dict[str, str] = {
    "sim.events_per_op": "count",
    "sim.events_per_host_s": "1/s",
    **{f"net.msgs_per_op.{k}": "count"
       for k in ("data", "null", "ticket", "control", "membership", "orb")},
    "net.bytes_per_op": "bytes",
    "net.cpu_wait_p50_ms": "ms",
    "net.cpu_wait_p99_ms": "ms",
    "net.busy_frac_max": "frac",
    "net.transmit_per_op": "count",
    "orb.encode_per_op": "count",
    "orb.decode_per_op": "count",
    "groupcomm.null_per_delivery": "count",
    "groupcomm.null_suppressed_frac": "frac",
    "groupcomm.ticket_per_delivery": "count",
    "groupcomm.useful_frac": "frac",
    "groupcomm.retransmissions": "count",
    "groupcomm.flushes": "count",
    "groupcomm.views_installed": "count",
    "groupcomm.suspicions": "count",
    "groupcomm.flush_timeouts": "count",
    "groupcomm.flow.refusals": "count",
    **{f"core.phase.{p}_ms": "ms" for p in ("queue", "order", "flush", "execute", "reply")},
    "core.retries_per_op": "count",
    "core.rebinds": "count",
    "core.timeouts": "count",
    "core.executions_per_op": "count",
    "overload.admit_frac": "frac",
    "overload.retry_after_honored": "count",
    "shard.remaps": "count",
    "shard.layout.recomputes": "count",
    "recovery.time_ms": "ms",
    "recovery.restarts": "count",
    "scenario.failed_frac": "frac",
    "scenario.shed_frac": "frac",
    "obs.trace_overhead_frac": "frac",
    **{f"{layer}.self_us_per_op": "us" for layer in SELF_TIME_LAYERS},
}


class MeasurementError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def load_spec() -> Dict:
    with open(HERE / "spec.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def precompile() -> None:
    """Byte-compile the program and the benchmark once, so that ``setup_s``
    times imports and not compilation whether or not the environment lets
    Python write its bytecode caches: a user compiles once, not every run."""
    for directory in (SRC / "repro", HERE):
        compileall.compile_dir(str(directory), quiet=2)


# ---------------------------------------------------------------------------
# child process: run one workload and print its result
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    tracer = None
    if args.mode == "trace":
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    elif args.mode == "profile":
        from perfbench.profile_layers import ProfileSession

        tracer = ProfileSession()
    elif args.mode == "marshal":
        from perfbench.profile_layers import MarshalTimer

        tracer = MarshalTimer()
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise MeasurementError(f"imported repro from {repro.__file__}, not {SRC}")
    from perfbench.workloads import run_workload

    params = load_spec()["workloads"][args.workload]
    result = run_workload(args.workload, params, args.seed, args.spawned_at, tracer=tracer)
    if args.mode == "trace":
        # the span file is for offline inspection; no metric or check reads it
        path = OUT / f"{args.workload}.spans.gz"
        try:
            OUT.mkdir(exist_ok=True)
            tracer.write(str(path))
            result["trace"]["file"] = str(path.relative_to(ROOT))
        except OSError as exc:
            result["trace"]["file"] = None
            print(f"perfbench: spans not written: {exc}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _run_child(workload: str, seed: int, mode: str, env: Dict, deadline: float):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise MeasurementError(f"{workload}: no time left for a {mode} child")
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at),
    ]
    try:
        return subprocess.run(
            command, cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise MeasurementError(
            f"{workload} {mode} child still running after {exc.timeout:.1f} s, "
            f"at the end of the {RUN_BUDGET_S:.0f} s run budget"
        ) from exc


def spawn_child(workload: str, seed: int, mode: str, hash_seed: str, deadline: float) -> Dict:
    """Run one child and return its result.  A child killed by a signal is
    run once more: the benchmark sends none, so the kill came from outside
    (for example the kernel's OOM killer on a shared host)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = _run_child(workload, seed, mode, env, deadline)
    if proc.returncode < 0:
        print(f"perfbench: {workload} {mode} child killed by signal {-proc.returncode}; "
              f"running it once more", file=sys.stderr)
        proc = _run_child(workload, seed, mode, env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise MeasurementError(
            f"{workload} {mode} child (seed {seed}, PYTHONHASHSEED {hash_seed}) exited "
            f"with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------
def _sim_digest(child: Dict) -> str:
    return json.dumps(child["sim"], sort_keys=True)


def measure_untraced(
    workload: str, seed: int, seconds: float, deadline: float
) -> Tuple[Dict, List[Dict], List[Dict]]:
    """Repeat the workload for ``seconds``; returns (metrics, checks, repeats).
    Past ``MIN_REPEATS``, a repeat starts only if one as long as the last
    would end within ``seconds``."""
    repeats: List[Dict] = []
    end = time.monotonic() + seconds
    last = 0.0
    while len(repeats) < MIN_REPEATS or (
        time.monotonic() + last < end and len(repeats) < MAX_REPEATS
    ):
        hash_seed = HASH_SEEDS[len(repeats) % len(HASH_SEEDS)]
        started = time.monotonic()
        repeats.append(spawn_child(workload, seed, "plain", hash_seed, deadline))
        last = time.monotonic() - started
    first = repeats[0]
    checks = list(first["checks"])
    identical = all(_sim_digest(r) == _sim_digest(first) for r in repeats[1:])
    checks.append({
        "name": "determinism",
        "ok": identical,
        "detail": f"{len(repeats)} runs of seed {seed}, PYTHONHASHSEED cycling through "
                  f"{', '.join(HASH_SEEDS)}, {'agree' if identical else 'DIFFER'} "
                  f"on every simulated metric",
    })
    sim = first["sim"]
    metrics = {
        "latency_p50_ms": sim["latency_p50_ms"],
        "latency_p99_ms": sim["latency_p99_ms"],
        "goodput_per_s": sim["goodput_per_s"],
        "msgs_per_op": sim["msgs_per_op"],
        "host_ops_per_s": statistics.median(
            sim["completed"] / r["host"]["ref_cpu_s"] for r in repeats
        ),
        "setup_s": statistics.median(r["host"]["setup_s"] for r in repeats),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for r in repeats),
        "failed_frac": sim["failed_frac"],
        "shed_frac": sim["shed_frac"],
        "outage_ms": sim["outage_ms"],
    }
    return metrics, checks, repeats


def measure_traced(workload: str, seed: int, deadline: float) -> Tuple[Dict, List[Dict], List[Dict]]:
    """One untraced and one traced child; returns (metrics, checks, runs)."""
    plain = spawn_child(workload, seed, "plain", HASH_SEEDS[0], deadline)
    traced = spawn_child(workload, seed, "trace", HASH_SEEDS[1], deadline)
    checks = list(plain["checks"])
    identical = _sim_digest(plain) == _sim_digest(traced)
    checks.append({
        "name": "trace_reproduces_untraced",
        "ok": identical,
        "detail": f"simulated metrics and window events ({traced['sim']['events']}) "
                  f"{'identical' if identical else 'DIFFER'} with and without tracing",
    })
    trace = traced["trace"]
    layer_ns = trace["layer_self_ns"]
    covered = sum(layer_ns.values())
    window_ns = traced["host"]["wall_s"] * 1e9
    gap = abs(window_ns - covered) / window_ns
    checks.append({
        "name": "self_time_sum",
        "ok": gap <= SELF_TIME_TOLERANCE,
        "detail": f"layer self times sum to {covered / 1e9:.3f} s of a "
                  f"{window_ns / 1e9:.3f} s traced window ({gap:.2%} apart)",
    })
    transmits = trace["counts"]["net.transmit"]
    checks.append({
        "name": "trace_counts_match_program",
        "ok": transmits == traced["sim"]["messages"],
        "detail": f"traced Network.transmit calls {transmits}, "
                  f"program net.sent {traced['sim']['messages']}",
    })
    sim = traced["sim"]
    ops = sim["completed"]
    metrics = {name: sim[name] for name in PER_LAYER if name in sim}
    metrics["sim.events_per_host_s"] = plain["sim"]["events"] / plain["host"]["ref_cpu_s"]
    metrics["net.transmit_per_op"] = transmits / ops
    metrics["orb.encode_per_op"] = trace["counts"]["orb.encode"] / ops
    metrics["orb.decode_per_op"] = trace["counts"]["orb.decode"] / ops
    metrics["scenario.failed_frac"] = sim["failed_frac"]
    metrics["scenario.shed_frac"] = sim["shed_frac"]
    metrics["obs.trace_overhead_frac"] = traced["host"]["cpu_s"] / plain["host"]["cpu_s"] - 1.0
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us_per_op"] = layer_ns.get(layer, 0) / 1e3 / ops
    return metrics, checks, [plain, traced]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(workload: str, metrics: Dict, units: Dict, checks: List[Dict], runs: List[Dict]) -> None:
    sim = runs[0]["sim"]
    print(f"== {workload}: {len(runs)} run(s), seed {runs[0]['seed']}, "
          f"{sim['samples']} latency samples, {sim['offered']} ops offered, "
          f"{sim['completed']} completed, {sim['shed']} shed, {sim['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:38s} {_fmt(metrics.get(name)):>14s} {unit}")
    if "trace" not in runs[-1]:
        rates = ", ".join(
            f"{sim['completed'] / r['host']['ref_cpu_s']:.1f} "
            f"({sim['completed'] / r['host']['cpu_s']:.1f})"
            for r in runs
        )
        print(f"  host_ops_per_s of each run (unscaled ops per CPU second): {rates}")
    else:
        trace = runs[-1]["trace"]
        written = f"written to {trace['file']}" if trace.get("file") else "not written"
        print(f"  bottleneck node: {sim['net.busiest_node']}; spans recorded "
              f"{trace['spans']} (dropped {trace['spans_dropped']}), {written}")
        print("  top functions by self time:")
        for name, layer, self_ns, spans in trace["top"][:10]:
            print(f"    {self_ns / 1e6:9.1f} ms {spans:8d} spans  {layer:22s} {name}")
    for check in checks:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, bool]:
    """Measure one workload and print its report; returns (result, correct)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        metrics, checks, runs = measure_traced(workload, seed, deadline)
        units = PER_LAYER
    else:
        metrics, checks, runs = measure_untraced(workload, seed, seconds, deadline)
        units = {**END_TO_END, **PRINTED_ONLY}
    print_report(workload, metrics, units, checks, runs)
    correct = all(check["ok"] for check in checks)
    sim = runs[0]["sim"]
    reported = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": sim["offered"] - sim["shed"],
        # a failed check fails every op of the run
        "failed": sim["failed"] if correct else sim["offered"] - sim["shed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()
        },
    }
    return result, correct


def validate_tracing(workload: str, seed: int) -> int:
    """Cross-check traced per-layer self-time shares against cProfile, and
    both against marshal timed alone."""
    runs = {}
    for mode in ("profile", "trace", "plain", "marshal"):
        deadline = time.monotonic() + RUN_BUDGET_S
        runs[mode] = spawn_child(workload, seed, mode, HASH_SEEDS[0], deadline)
    profiled, traced, plain, marshal = (runs[m] for m in ("profile", "trace", "plain", "marshal"))
    shares = {}
    for label, child in (("traced", traced), ("cProfile", profiled)):
        layer_ns = child["trace"]["layer_self_ns"]
        total = sum(layer_ns.values())
        shares[label] = {layer: value / total for layer, value in layer_ns.items()}
    layers = sorted(set(shares["traced"]) | set(shares["cProfile"]),
                    key=lambda layer: -shares["traced"].get(layer, 0.0))
    print(f"== {workload}: per-layer self-time shares, span tracer vs cProfile grouping")
    print(f"  {'layer':22s} {'traced':>8s} {'cProfile':>9s} {'diff':>7s}")
    worst = 0.0
    for layer in layers:
        a, b = shares["traced"].get(layer, 0.0), shares["cProfile"].get(layer, 0.0)
        worst = max(worst, abs(a - b))
        print(f"  {layer:22s} {a:8.1%} {b:9.1%} {a - b:+7.1%}")
    overhead = traced["host"]["cpu_s"] / plain["host"]["cpu_s"] - 1.0
    profile_overhead = profiled["host"]["cpu_s"] / plain["host"]["cpu_s"] - 1.0
    print(f"  largest share difference {worst:.1%}; obs.trace_overhead_frac {overhead:.3f} "
          f"(cProfile overhead {profile_overhead:.3f})")
    alone = marshal["trace"]["layer_self_ns"]["orb.marshal"] / (marshal["host"]["wall_s"] * 1e9)
    print(f"  orb.marshal timed alone: {alone:.1%} of its window "
          f"(traced {shares['traced']['orb.marshal']:.1%}, cProfile {shares['cProfile']['orb.marshal']:.1%})")
    same = all(_sim_digest(c) == _sim_digest(plain) for c in (traced, profiled, marshal))
    print(f"  simulated metrics identical across plain, traced, profiled and marshal-timed runs: {same}")
    return 0 if same else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the spec's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds an untraced measurement repeats for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--validate-tracing", action="store_true",
                        help="compare traced layer shares with a cProfile grouping")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "trace", "profile", "marshal"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seed is None:
        args.seed = spec["seeds"]["default"]
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in spec["workloads"]]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    try:
        if args.child:
            return child_main(args)
        precompile()
        if args.validate_tracing:
            return validate_tracing(names[0], args.seed)
        all_correct = True
        result = None
        for name in names:
            result, correct = run_one(name, args.seed, args.seconds, bool(args.trace))
            all_correct = all_correct and correct
        if args.workload != "all":
            print(json.dumps(result))
    except MeasurementError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
