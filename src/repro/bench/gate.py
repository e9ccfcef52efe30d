"""The bench gates: one engine, five declared benchmarks, one baseline file.

Each gate is a :class:`Gate` declaration: a workload (constants, recorded in
the baseline), a ``measure(workload)`` returning ``{configuration: {field:
value}}``, the fields that must match the committed baseline exactly, the
speed fields with their allowed drop below it, and a shape predicate over
the results.  The engine does the rest:

- gates whose workload sets ``repeats`` are timed best-of-N in process CPU
  time with GC off (:func:`cpu_timed`), after one discarded warm-up run,
  and their exact fields must replay identically on every repeat;
- one result table per gate goes through :func:`repro.bench.report.emit`;
- ``--check`` lists *every* drift as ``gate/config/field: current vs
  baseline``, every speed value below its floor, and every failing shape
  predicate;
- without ``--check`` each named gate's section of ``BENCH_gates.json`` is
  rewritten, unless its shape predicate fails; other sections are kept.

Usage::

    PYTHONPATH=src python -m repro.bench.gate --check          # CI: all gates
    PYTHONPATH=src python -m repro.bench.gate kernel_speed     # refresh one

Virtual time makes every exact field deterministic: a drift means the
simulation's behaviour changed.  Refresh a section only when it did so on
purpose.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.mapreduce import MapReduceServant
from repro.apps.sharded_kvstore import ShardedKVClient, ShardKVServant
from repro.bench.env import Environment
from repro.bench.harness import peer_point, request_reply_point
from repro.bench.report import emit, format_table
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.core import SchemeConfig
from repro.core.modes import BindingStyle, Mode
from repro.groupcomm.config import GroupConfig, Liveliness, Ordering
from repro.obs import Observability, TraceConfig
from repro.scenario.runner import run_scenario
from repro.sim.process import all_of

__all__ = ["Gate", "GATES", "BASELINE", "cpu_timed", "measure", "report", "check", "main"]

#: the committed baseline, one section per gate
BASELINE = Path(__file__).resolve().parents[3] / "BENCH_gates.json"

Results = Dict[str, Dict[str, Any]]


class Nondeterminism(Exception):
    """An exact field changed between repeats of one seed in one process."""


@dataclass(frozen=True)
class Gate:
    """One benchmark, declared.

    ``speed`` maps ``"config/field"`` to the fraction the value may fall
    below its baseline; ``shape`` returns one message per failing
    predicate; ``derive(best, runs)`` adds fields computed across the
    timed repeats of a ``repeats`` gate.
    """

    name: str
    title: str  # formatted with the workload
    workload: Mapping[str, Any]
    measure: Callable[[Mapping[str, Any]], Results]
    exact: Tuple[str, ...]
    columns: Tuple[str, ...]
    speed: Mapping[str, float] = field(default_factory=dict)
    shape: Optional[Callable[[Results], List[str]]] = None
    derive: Optional[Callable[[Results, List[Results]], None]] = None


def cpu_timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()`` and the process-CPU seconds it took, timed with GC off.

    Collector cycles land on repeats at random, so time timeit-style:
    collect first, then keep the collector off for the run.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        value = fn()
        return value, time.process_time() - start
    finally:
        gc.enable()


def measure(gate: Gate) -> Results:
    """Run ``gate`` once, or best-of-``repeats`` when its workload says so."""
    repeats = gate.workload.get("repeats", 0)
    if not repeats:
        return gate.measure(gate.workload)
    # discarded: the first run pays import, allocator and branch warm-up
    warmup = gate.measure(gate.workload)
    runs = []
    for _ in range(repeats):
        run = gate.measure(gate.workload)
        for config, fields in run.items():
            for name in gate.exact:
                if fields.get(name) != warmup[config].get(name):
                    raise Nondeterminism(
                        f"{gate.name}/{config}/{name}: {fields.get(name)} vs "
                        f"{warmup[config].get(name)} on the warm-up run; "
                        "repeats of one seed must replay identically"
                    )
        runs.append(run)
    best = {
        config: min((run[config] for run in runs), key=lambda f: f["cpu_s"])
        for config in runs[0]
    }
    if gate.derive is not None:
        gate.derive(best, runs)
    return best


def report(gate: Gate, results: Results) -> None:
    """Emit the gate's table: one row per configuration."""
    rows = [
        [config] + [fields.get(column, "-") for column in gate.columns]
        for config, fields in results.items()
    ]
    title = gate.title.format(**gate.workload)
    emit(format_table(["config", *gate.columns], rows, title=title))


def check(gate: Gate, results: Results, section: Optional[Mapping]) -> List[str]:
    """Every way ``results`` fails the gate against its baseline section."""
    failures = _shape_failures(gate, results)
    if section is None:
        return failures + [f"{gate.name}: no section in the baseline"]
    if section["workload"] != gate.workload:
        failures.append(
            f"{gate.name}/workload: {dict(gate.workload)} vs baseline {section['workload']}"
        )
    base = section["results"]
    for config in list(base) + [c for c in results if c not in base]:
        if config not in results:
            failures.append(f"{gate.name}/{config}: in the baseline, not measured")
            continue
        if config not in base:
            failures.append(f"{gate.name}/{config}: measured, not in the baseline")
            continue
        for name in gate.exact:
            current = results[config].get(name, "missing")
            expected = base[config].get(name, "missing")
            if current != expected:
                failures.append(
                    f"{gate.name}/{config}/{name}: {current} vs baseline {expected}"
                )
    for path, current, expected, floor in _speeds(gate, results, base):
        if current < floor:
            failures.append(
                f"{gate.name}/{path}: {current} vs baseline {expected} "
                f"(floor {floor:.1f}, {gate.speed[path]:.0%} below)"
            )
    return failures


def _speeds(gate: Gate, results: Results, base: Results):
    """``(path, current, baseline, floor)`` per speed field measured in both."""
    for path, tolerance in gate.speed.items():
        config, name = path.rsplit("/", 1)
        if config in results and config in base:  # else reported as missing
            expected = base[config][name]
            yield path, results[config][name], expected, expected * (1.0 - tolerance)


def _shape_failures(gate: Gate, results: Results) -> List[str]:
    messages = gate.shape(results) if gate.shape is not None else []
    return [f"{gate.name}: {message}" for message in messages]


def _load(path: Path) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def _write(path: Path, sections: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(sections, fp, indent=2, sort_keys=True)
        fp.write("\n")


def main(
    argv: Optional[Sequence[str]] = None,
    gates: Optional[Mapping[str, Gate]] = None,
    baseline: Path = BASELINE,
) -> int:
    gates = GATES if gates is None else gates
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the baseline instead of rewriting it",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"gates to run (default: all of {', '.join(gates)})",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in gates]
    if unknown:
        parser.error(f"unknown gate {unknown[0]!r}; choose from {', '.join(gates)}")

    sections = _load(baseline)
    failed = []
    for name in args.names or list(gates):
        gate = gates[name]
        try:
            results = measure(gate)
        except Nondeterminism as exc:
            failures = [str(exc)]
        else:
            report(gate, results)
            if args.check:
                failures = check(gate, results, sections.get(name))
            else:
                failures = _shape_failures(gate, results)
                if not failures:
                    sections[name] = {"workload": dict(gate.workload), "results": results}
                    _write(baseline, sections)
                    print(f"baseline section {name!r} written to {baseline}")
        for failure in failures:
            print(f"FAIL {failure}")
        if failures:
            failed.append(name)
        elif args.check:
            base = sections[name]["results"]
            matched = sum(f in base[c] for c in base for f in gate.exact)
            speeds = "".join(
                f"; {path} {current:.0f} >= floor {floor:.0f}"
                for path, current, _, floor in _speeds(gate, results, base)
            )
            print(f"ok {name}: {matched} exact values match{speeds}; shape holds")
    ran = len(args.names or gates)
    print(f"bench gates: {ran - len(failed)}/{ran} pass"
          + (f" (failed: {', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# kernel_speed: raw simulator events/sec on the protocol hot path
# ---------------------------------------------------------------------------
def _kernel_speed(w: Mapping[str, Any]) -> Results:
    """A saturating peer group: heap, marshal, channels, stability, ORB."""
    obs = Observability()
    point, cpu = cpu_timed(lambda: peer_point(
        w["topology"], w["members"], w["ordering"],
        multicasts=w["multicasts"], seed=w["seed"], obs=obs,
    ))
    events = obs.sim.events_processed
    delivered = obs.metrics.counter_value("gc.delivered")
    return {"peer": {
        "events": events,
        "delivered": delivered,
        "latency_ms": round(point.latency_ms, 3),
        "cpu_s": round(cpu, 4),
        "events_per_sec": round(events / cpu, 1),
        "delivered_per_sec": round(delivered / cpu, 1),
    }}


KERNEL_SPEED = Gate(
    name="kernel_speed",
    title=("Kernel speed ({topology}, {members}-member {ordering} peer group "
           "x {multicasts} multicasts, seed {seed}, best of {repeats})"),
    workload={"topology": "lan", "members": 6, "ordering": "asymmetric",
              "multicasts": 300, "seed": 42, "repeats": 5},
    measure=_kernel_speed,
    exact=("events", "delivered"),
    columns=("events", "delivered", "cpu_s", "events_per_sec", "delivered_per_sec"),
    speed={"peer/events_per_sec": 0.10},
)


# ---------------------------------------------------------------------------
# obs_overhead: trace-off vs 1%-sampled vs full tracing
# ---------------------------------------------------------------------------
#: 1%-sampling may cost at most this vs trace-off: sampling's fixed
#: per-root cost is a visible fraction of a run on a fast kernel, and 8%
#: still catches a sampling path regressing towards full-trace cost (~20%+).
SAMPLED_BUDGET_PCT = 8.0

_TRACING = (
    ("trace-off", lambda: Observability()),
    ("sampled-1pct", lambda: Observability(trace=TraceConfig(sample_rate=0.01))),
    ("full-trace", lambda: Observability(trace=True)),
)


def _obs_overhead(w: Mapping[str, Any]) -> Results:
    """One back-to-back pass over the three tracing configurations, so the
    engine's repeats interleave them and drift hits each one equally."""
    results = {}
    for name, make_obs in _TRACING:
        obs = make_obs()
        point, cpu = cpu_timed(lambda: request_reply_point(
            w["topology"], w["clients"], replicas=w["replicas"],
            style=BindingStyle.CLOSED, mode=Mode.ALL,
            requests=w["requests"], seed=w["seed"], obs=obs,
        ))
        events = obs.sim.events_processed
        results[name] = {
            "events": events,
            "delivered": obs.metrics.counter_value("gc.delivered"),
            "spans": len(obs.trace_records()),
            "latency_ms": round(point.latency_ms, 3),
            "cpu_s": round(cpu, 4),
            "events_per_sec": round(events / cpu, 1),
        }
    return results


def _obs_overhead_pct(best: Results, runs: List[Results]) -> None:
    """Overhead as the median of paired per-repeat CPU ratios: a pair runs
    back-to-back, so frequency drift mostly cancels within it, and the
    median shrugs off the odd noisy repeat in either direction."""
    for name in ("sampled-1pct", "full-trace"):
        ratio = statistics.median(
            run[name]["cpu_s"] / run["trace-off"]["cpu_s"] for run in runs
        )
        best[name]["overhead_pct"] = round((ratio - 1.0) * 100.0, 2)
    best["trace-off"]["overhead_pct"] = 0.0


def _obs_overhead_shape(results: Results) -> List[str]:
    failures = []
    off, sampled, full = (results[name] for name, _ in _TRACING)
    for name, fields in results.items():
        if (fields["events"], fields["delivered"]) != (off["events"], off["delivered"]):
            failures.append(
                f"{name} ran {fields['events']} events / {fields['delivered']} "
                f"deliveries vs trace-off {off['events']} / {off['delivered']}: "
                "tracing changed the simulation"
            )
    if off["spans"] != 0:
        failures.append(f"trace-off recorded {off['spans']} spans; expected 0")
    if not 0 < sampled["spans"] < full["spans"]:
        failures.append(
            f"sampling did not thin the trace: sampled={sampled['spans']} "
            f"full={full['spans']} spans"
        )
    if sampled["overhead_pct"] > SAMPLED_BUDGET_PCT:
        failures.append(
            f"1%-sampled tracing costs {sampled['overhead_pct']:.1f}% vs "
            f"trace-off (budget {SAMPLED_BUDGET_PCT:.0f}%)"
        )
    return failures


OBS_OVERHEAD = Gate(
    name="obs_overhead",
    title=("Observability overhead: kernel event rate ({topology}, {clients} "
           "{style} clients x {requests} requests, seed {seed}, best of {repeats})"),
    workload={"topology": "lan", "clients": 4, "requests": 60, "replicas": 3,
              "style": "closed", "seed": 42, "repeats": 10},
    measure=_obs_overhead,
    exact=("events", "delivered"),
    columns=("events", "delivered", "spans", "cpu_s", "events_per_sec", "overhead_pct"),
    speed={"trace-off/events_per_sec": 0.10},
    shape=_obs_overhead_shape,
    derive=_obs_overhead_pct,
)


# ---------------------------------------------------------------------------
# gmi: combined-invocation fan-in, flat vs tree over the cohort size
# ---------------------------------------------------------------------------
GMI_SHAPES = ("combined_flat", "combined_tree")
CROSSOVER_AT = 8  # the tree must beat flat from this cohort size up


def _gmi_config(shape: str, callers: int, w: Mapping[str, Any]) -> Dict[str, Any]:
    obs = Observability()
    env = Environment(config=w["topology"], seed=w["seed"], obs=obs)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.EVENT_DRIVEN,
        sequencer_hint="s0",
        suspicion_timeout=10.0,
        flush_timeout=5.0,
    )
    env.serve_replicas("agg", MapReduceServant, w["replicas"], config=config)
    cohort = env.add_clients(callers)
    scheme = SchemeConfig(
        invocation=shape,
        reply="combine",
        reducer="max",
        callers=[service.name for service in cohort],
        combine_id="bench",
        arg_reducer="sum",
    )
    bindings = []
    for service in cohort:
        bindings.append(service.bind_combined(
            "agg", scheme, suspicion_timeout=10.0, flush_timeout=5.0
        ))
        env.run(0.05)
    env.settle(1.5)
    for binding in bindings:
        if not binding.ready.done:
            raise RuntimeError(f"combined binding failed to bind: {binding!r}")

    def combined_call(i):
        return all_of(
            binding.invoke("aggregate", (i + binding.rank,), timeout=60.0)
            for binding in bindings
        )

    driver = ClosedLoopClient(
        env.sim, call=combined_call, requests=w["requests"], warmup=w["warmup"]
    )
    run_until_done(env.sim, [driver.done], deadline=env.sim.now + 600.0)
    latencies = driver.latencies.values
    return {
        "shape": shape,
        "callers": callers,
        "completed": len(latencies),
        "contributions": obs.metrics.counter_value("gmi.contributions"),
        "combined_calls": obs.metrics.counter_value("gmi.combined.calls"),
        "mean_latency_ms": round(sum(latencies) / max(len(latencies), 1) * 1e3, 3),
    }


def _gmi(w: Mapping[str, Any]) -> Results:
    return {
        f"{shape}/{callers}": _gmi_config(shape, callers, w)
        for shape in GMI_SHAPES
        for callers in w["cohorts"]
    }


def _gmi_shape(results: Results) -> List[str]:
    """The tree wins from CROSSOVER_AT callers, by more as the cohort grows."""
    failures = []
    cohorts = sorted({fields["callers"] for fields in results.values()})
    advantage = {}
    for callers in cohorts:
        flat = results[f"combined_flat/{callers}"]["mean_latency_ms"]
        tree = results[f"combined_tree/{callers}"]["mean_latency_ms"]
        advantage[callers] = flat / tree
        if callers >= CROSSOVER_AT and not tree < flat:
            failures.append(
                f"tree does not beat flat at {callers} callers: "
                f"{tree:.3f}ms vs {flat:.3f}ms"
            )
    for lo, hi in zip(cohorts, cohorts[1:]):
        if not advantage[hi] > advantage[lo]:
            failures.append(
                f"tree advantage not growing with the cohort: {advantage[hi]:.3f}x "
                f"at {hi} callers <= {advantage[lo]:.3f}x at {lo}"
            )
    return failures


GMI = Gate(
    name="gmi",
    title=("Combined fan-in crossover: {replicas} replicas, {requests} logical "
           "calls per cohort ({topology}, seed {seed}; tree must win from "
           f"{CROSSOVER_AT} callers)"),
    workload={"topology": "lan", "replicas": 3, "requests": 30, "warmup": 3,
              "cohorts": [2, 4, 8, 16], "seed": 42},
    measure=_gmi,
    exact=("completed", "contributions", "combined_calls", "mean_latency_ms"),
    columns=("completed", "contributions", "combined_calls", "mean_latency_ms"),
    shape=_gmi_shape,
)


# ---------------------------------------------------------------------------
# sharding: aggregate kvstore throughput vs shard count
# ---------------------------------------------------------------------------
SHARD_COUNTS = (1, 2, 4)
SCALE_FLOOR = 1.5  # 4 shards must beat the 1-shard ceiling by this factor


def build_key_pool(size: int) -> List[str]:
    """``size`` keys with equal counts per crc32%4 class, interleaved.

    Every swept layout (1, 2 or 4 round-robin shards) then sees balanced
    per-shard load, so throughput differences isolate ordering parallelism
    rather than key skew.
    """
    per_class = size // 4
    classes = {0: [], 1: [], 2: [], 3: []}
    index = 0
    while any(len(keys) < per_class for keys in classes.values()):
        key = f"k{index}"
        index += 1
        bucket = classes[zlib.crc32(key.encode()) % 4]
        if len(bucket) < per_class:
            bucket.append(key)
    return [classes[c][i] for i in range(per_class) for c in range(4)]


def _sharding_config(num_shards: int, w: Mapping[str, Any]) -> Dict[str, Any]:
    obs = Observability()
    env = Environment(config=w["topology"], seed=w["seed"], obs=obs)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.EVENT_DRIVEN,
        sequencer_hint="s0",
        suspicion_timeout=10.0,
        flush_timeout=5.0,
    )
    servers = []
    for service in env.add_servers(w["members"]):
        servers.append(
            service.serve_sharded("kv", ShardKVServant, num_shards, config=config)
        )
        env.run(0.25)
    env.settle(1.0)
    for server in servers:
        if not server.ready.done or not server.provisioned:
            raise RuntimeError(f"sharded service failed to provision: {server!r}")

    kvs = []
    for service in env.add_clients(w["clients"]):
        binding = service.bind_sharded(
            "kv", num_shards, suspicion_timeout=10.0, flush_timeout=5.0
        )
        kvs.append(ShardedKVClient(binding, mode=Mode.FIRST, timeout=60.0))
        env.run(0.05)
    env.settle(1.5)
    for kv in kvs:
        if not kv.ready.done:
            raise RuntimeError(f"sharded binding failed to bind: {kv.binding!r}")

    # closed-loop single-key writers, striding the balanced key pool
    keys = build_key_pool(w["keys"])
    stride = w["clients"] * w["workers"]

    def putter(offset, kv):
        return lambda i: kv.put(keys[(offset + i * stride) % len(keys)], i)

    workers = [
        ClosedLoopClient(env.sim, call=putter(offset, kvs[offset % len(kvs)]),
                         requests=w["requests"], warmup=w["warmup"])
        for offset in range(stride)
    ]
    run_until_done(env.sim, [worker.done for worker in workers],
                   deadline=env.sim.now + 600.0)

    completed = sum(len(worker.latencies.values) for worker in workers)
    window = (max(worker.last_completion for worker in workers)
              - min(worker.first_timed_start for worker in workers))
    latency_sum = sum(sum(worker.latencies.values) for worker in workers)
    return {
        "shards": num_shards,
        "completed": completed,
        "gc_delivered": obs.metrics.counter_value("gc.delivered"),
        "window_s": round(window, 6),
        "ops_per_sec": round(completed / window, 2),
        "mean_latency_ms": round(latency_sum / max(completed, 1) * 1e3, 3),
    }


def _sharding(w: Mapping[str, Any]) -> Results:
    return {str(n): _sharding_config(n, w) for n in SHARD_COUNTS}


def _sharding_shape(results: Results) -> List[str]:
    """Throughput strictly rises 1 -> 2 -> 4 shards, by SCALE_FLOOR overall."""
    failures = []
    rates = {n: results[str(n)]["ops_per_sec"] for n in SHARD_COUNTS}
    for lo, hi in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
        if not rates[hi] > rates[lo]:
            failures.append(
                f"throughput not monotonic: {hi} shards {rates[hi]:.1f} ops/s "
                f"<= {lo} shards {rates[lo]:.1f} ops/s"
            )
    ratio = rates[SHARD_COUNTS[-1]] / rates[SHARD_COUNTS[0]]
    if ratio < SCALE_FLOOR:
        failures.append(
            f"{SHARD_COUNTS[-1]}-shard speedup {ratio:.2f}x below the "
            f"{SCALE_FLOOR}x floor over the 1-shard ceiling"
        )
    return failures


SHARDING = Gate(
    name="sharding",
    title=("Sharding scale-out: {members} members, {clients} clients x "
           "{workers} closed-loop writers x {requests} puts ({topology}, seed {seed})"),
    workload={"topology": "lan", "members": 8, "clients": 4, "workers": 4,
              "requests": 60, "warmup": 5, "keys": 64, "seed": 42},
    measure=_sharding,
    exact=("completed", "gc_delivered", "window_s", "ops_per_sec"),
    columns=("completed", "gc_delivered", "ops_per_sec", "mean_latency_ms"),
    shape=_sharding_shape,
)


# ---------------------------------------------------------------------------
# overload: goodput with vs without admission control
# ---------------------------------------------------------------------------
GOODPUT_FLOOR = 0.8  # goodput must stay >= this fraction of capacity
ADMITTED_P99_MS = 250.0  # latency bound on the calls that were admitted
MAX_SHED_RATIO = 0.95  # even under 7x load, some work must get through
CAPACITY_PROBE_RATE = 2000.0  # far above capacity; the in-flight cap governs
CAPACITY_IN_FLIGHT = 16
DEGRADATION = "graceful-degradation"


def _overload_spec(name: str, w: Mapping[str, Any], rate: float) -> dict:
    return {
        "name": name,
        "seed": w["seed"],
        "topology": w["topology"],
        "group": {"replicas": w["replicas"], "style": "open", "ordering": "asymmetric"},
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": rate},
            "churn": {"initial": 1},
            "duration": w["duration"],
            "drain": w["drain"],
            "workload": "request_reply",
            "mode": "first",
            "bindings": w["bindings"],
            "timeout": w["timeout"],
        },
        "slos": [],
    }


def _degradation_slo(capacity: float) -> dict:
    return {
        "kind": "degradation",
        "name": DEGRADATION,
        "capacity": capacity,
        "min_goodput_fraction": GOODPUT_FLOOR,
        "stat": "p99",
        "max_ms": ADMITTED_P99_MS,
        "max_shed_ratio": MAX_SHED_RATIO,
        "min_count": 100,
    }


def _overload_run(report: dict, duration: float) -> Dict[str, Any]:
    traffic = report["traffic"]
    counters = report["metrics"]["counters"]
    return {
        "offered": traffic["offered"],
        "completed": traffic["completed"],
        "errors": traffic["errors"],
        "shed": traffic["shed"],
        "lost": traffic["lost"],
        "goodput_per_s": round(traffic["completed"] / duration, 2),
        "p95_ms": round(traffic["latency_ms"].get("p95", 0.0), 3),
        "max_ms": round(traffic["latency_ms"].get("max", 0.0), 3),
        "admitted": counters.get("overload.admitted", 0),
        "overload_shed": counters.get("overload.shed", 0),
        "drained": report["sim"]["drained"],
        "slos": {slo["name"]: slo["ok"] for slo in report["slos"]},
        "passed": report["passed"],
    }


def _overload(w: Mapping[str, Any]) -> Results:
    """Capacity under a fixed in-flight cap, then overload_factor times that
    load with admission and bounded flow queues, then without them."""
    duration = w["duration"]
    spec = _overload_spec("overload-capacity", w, CAPACITY_PROBE_RATE)
    spec["traffic"]["max_in_flight"] = CAPACITY_IN_FLIGHT
    capacity_run = _overload_run(run_scenario(spec), duration)
    capacity = round(capacity_run["completed"] / duration, 2)
    if capacity <= 0:
        raise RuntimeError("capacity probe completed no requests")
    offered_rate = round(w["overload_factor"] * capacity, 2)
    capacity_run.update(capacity_per_s=capacity, offered_rate_per_s=offered_rate)

    admitted = _overload_spec("overload-with-admission", w, offered_rate)
    admitted["group"]["admission"] = dict(w["admission"])
    admitted["group"]["flow_max_queue"] = w["flow_max_queue"]
    admitted["slos"] = [_degradation_slo(capacity)]

    uncontrolled = _overload_spec("overload-no-admission", w, offered_rate)
    uncontrolled["slos"] = [_degradation_slo(capacity)]
    return {
        "capacity": capacity_run,
        "admission": _overload_run(run_scenario(admitted), duration),
        "no_admission": _overload_run(run_scenario(uncontrolled), duration),
    }


def _overload_shape(results: Results) -> List[str]:
    """Admission passes the degradation SLO the uncontrolled run fails."""
    failures = []
    admission, uncontrolled = results["admission"], results["no_admission"]
    if not admission["slos"].get(DEGRADATION, False):
        failures.append(
            f"admission run failed its degradation SLO: goodput "
            f"{admission['goodput_per_s']}/s vs capacity "
            f"{results['capacity']['capacity_per_s']}/s (floor {GOODPUT_FLOOR})"
        )
    if not admission["drained"] or admission["lost"]:
        failures.append("admission run lost in-flight requests")
    if uncontrolled["slos"].get(DEGRADATION, True):
        failures.append(
            "no-admission run PASSED the degradation SLO: overload no longer "
            "collapses without admission, so the ablation demonstrates nothing"
        )
    if uncontrolled["errors"] > 0 and admission["errors"] >= uncontrolled["errors"]:
        failures.append(
            f"admission run has {admission['errors']} errors, not fewer than "
            f"the uncontrolled run's {uncontrolled['errors']}"
        )
    return failures


OVERLOAD = Gate(
    name="overload",
    title=("Overload survival: {overload_factor:.0f}x measured capacity with vs "
           "without admission ({topology}, {replicas} replicas, seed {seed})"),
    workload={"topology": "lan", "replicas": 3, "bindings": 4, "duration": 5.0,
              "drain": 25.0, "timeout": 10.0, "seed": 42, "overload_factor": 7.0,
              "admission": {"max_inflight": 12, "retry_after": 0.05},
              "flow_max_queue": 256},
    measure=_overload,
    exact=("capacity_per_s", "offered", "completed", "errors", "shed", "lost",
           "goodput_per_s", "admitted", "overload_shed", "passed"),
    columns=("capacity_per_s", "offered", "completed", "shed", "errors",
             "goodput_per_s", "p95_ms", "max_ms", "passed"),
    shape=_overload_shape,
)


GATES: Dict[str, Gate] = {
    gate.name: gate for gate in (KERNEL_SPEED, OBS_OVERHEAD, GMI, SHARDING, OVERLOAD)
}


if __name__ == "__main__":
    sys.exit(main())
