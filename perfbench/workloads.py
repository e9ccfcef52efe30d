"""The benchmark's workloads: build a deployment, drive traffic through the
program's public entry points, and measure the result from outside.

``run_workload`` runs one workload in the current process and returns a
JSON-serialisable result with three parts:

- ``sim``: everything derived from the deterministic simulation (latency
  percentiles, counts, per-layer counters).  Two runs of one seed must give
  an identical ``sim`` section, traced or not, under any ``PYTHONHASHSEED``.
- ``host``: host-side measurements of this process (set-up time, CPU and
  wall time of the measured window, its CPU time scaled to the reference
  host speed by a ``SpeedProbe`` when untraced, peak memory).
- ``checks``: the output checks; any failure makes the run incorrect.

The measured window opens when the first op is offered and closes once
every op has completed and every node's CPU queue has drained, so that
sends still queued on a CPU are transmitted before counters are read.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["WORKLOADS", "run_workload"]

#: virtual seconds per run_until_done slice: bounds how far a run overshoots
#: the moment its last op completes (slicing never reorders events)
SLICE = 0.005

#: an open-loop call must be issued at its due time (virtual seconds)
DUE_TOLERANCE = 1e-9

#: message kinds the gc layer classifies sends into, plus ORB-level hops
MESSAGE_KINDS = ("data", "null", "ticket", "control", "membership", "orb")

PHASES = ("queue", "order", "flush", "execute", "reply")

#: CPU seconds of program work between two speed probes
PROBE_EVERY_S = 0.03
#: CPU seconds the probe loop takes on the reference host
PROBE_REF_S = 0.001


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank p-quantile of an ascending list."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def drain_cpus(sim, nodes, max_rounds: int = 10_000) -> bool:
    """Advance virtual time until no live node has CPU work queued."""
    for _ in range(max_rounds):
        busy = max((node.queue_delay for node in nodes if node.alive), default=0.0)
        if busy <= 0.0:
            return True
        sim.run(until=sim.now + busy)
    return False


def _window_histogram_percentile(hist, before: Dict[int, int], p: float) -> float:
    """p-quantile of the observations a histogram gained since ``before``
    (a copy of its bucket counts), from bucket upper bounds."""
    from repro.obs.metrics import Histogram

    window = Histogram(hist.name + ".window")
    for index, count in hist.buckets.items():
        delta = count - before.get(index, 0)
        if delta:
            window.buckets[index] = delta
            window.count += delta
    if not window.count:
        return 0.0
    window.min = 0.0
    window.max = hist.max
    return window.percentile(p)


def _probe_loop() -> int:
    """Fixed pure-Python work, about 1 ms; it allocates no object the
    garbage collector tracks, so the program's heap does not change its cost."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(2500):
        table[i & 127] = i * 7 ^ (i >> 3)
        total += len(str(i)) + table.get((i * 31) & 127, 0)
    return total


class SpeedProbe:
    """Scales the window's CPU time to a reference host speed.

    On a shared host the same Python code runs up to 1.5 times slower for
    periods of about a second, which moves a raw ops-per-CPU-second figure by
    10 to 15% from run to run.  After each ``Simulator.run`` slice that ends
    ``PROBE_EVERY_S`` or more of CPU time after the previous probe, the probe
    times ``_probe_loop``, and the CPU time since the previous probe is scaled
    by ``PROBE_REF_S`` over the loop's time.  The probes never touch the
    simulation; their own CPU time is left out of both totals.
    """

    def __init__(self, sim):
        self.sim = sim
        self.ref_cpu_s = 0.0
        self.probe_cpu_s = 0.0

    def start(self) -> None:
        self.mark = time.process_time()
        run = self.sim.run

        def probed_run(*args, **kwargs):
            result = run(*args, **kwargs)
            if time.process_time() - self.mark >= PROBE_EVERY_S:
                self.probe()
            return result

        self.sim.run = probed_run

    def probe(self) -> None:
        start = time.process_time()
        _probe_loop()
        end = time.process_time()
        self.ref_cpu_s += (start - self.mark) * PROBE_REF_S / (end - start)
        self.probe_cpu_s += end - start
        self.mark = end

    def stop(self) -> None:
        self.probe()
        del self.sim.run


class Window:
    """Counters, histograms and host clocks over the measured window.  An
    untraced window also runs a ``SpeedProbe``."""

    def __init__(self, sim, net, tracer=None):
        self.sim = sim
        self.net = net
        self.tracer = tracer
        self.metrics = sim.obs.metrics
        self.probe = SpeedProbe(sim) if tracer is None else None

    def open(self) -> None:
        metrics = self.metrics
        self.setup_mark = time.monotonic()
        self.v_start = self.sim.now
        self.events_start = self.sim.events_processed
        self.counters_start = dict(metrics.snapshot()["counters"])
        self.cpu_hist = metrics.histogram("node.cpu_queue_delay")
        self.cpu_buckets = dict(self.cpu_hist.buckets)
        self.phase_start = {}
        for phase in PHASES:
            hist = metrics.histogram(f"inv.phase.{phase}")
            self.phase_start[phase] = (hist.count, hist.total)
        recovery = metrics.histogram("recovery.time")
        self.recovery_start = (recovery.count, recovery.total)
        self.busy_start = {name: node.busy_time for name, node in self.net.nodes.items()}
        if self.tracer is not None:
            self.tracer.start()
        self.cpu_start = time.process_time()
        self.wall_start = time.perf_counter()
        if self.probe is not None:
            self.probe.start()

    def close(self) -> None:
        drained = drain_cpus(self.sim, list(self.net.nodes.values()))
        self.ref_cpu_s = None
        if self.probe is not None:
            self.probe.stop()
            self.ref_cpu_s = self.probe.ref_cpu_s
        self.wall_s = time.perf_counter() - self.wall_start
        self.cpu_s = time.process_time() - self.cpu_start
        if self.probe is not None:
            self.cpu_s -= self.probe.probe_cpu_s
        if self.tracer is not None:
            self.tracer.stop()
        self.drained = drained
        self.v_end = self.sim.now
        self.events = self.sim.events_processed - self.events_start
        counters = self.metrics.snapshot()["counters"]
        self.counters = {
            name: value - self.counters_start.get(name, 0)
            for name, value in counters.items()
        }
        self.cpu_wait_p50 = _window_histogram_percentile(self.cpu_hist, self.cpu_buckets, 0.50)
        self.cpu_wait_p99 = _window_histogram_percentile(self.cpu_hist, self.cpu_buckets, 0.99)
        self.phase_ms = {}
        for phase in PHASES:
            hist = self.metrics.histogram(f"inv.phase.{phase}")
            count0, total0 = self.phase_start[phase]
            count = hist.count - count0
            self.phase_ms[phase] = (hist.total - total0) / count * 1e3 if count else 0.0
        recovery = self.metrics.histogram("recovery.time")
        count = recovery.count - self.recovery_start[0]
        self.recovery_ms = (
            (recovery.total - self.recovery_start[1]) / count * 1e3 if count else 0.0
        )
        span = self.v_end - self.v_start
        busiest, busy_frac = "", 0.0
        for name in sorted(self.net.nodes):
            used = self.net.nodes[name].busy_time - self.busy_start.get(name, 0.0)
            frac = used / span if span > 0 else 0.0
            if frac > busy_frac:
                busiest, busy_frac = name, frac
        self.busiest_node, self.busy_frac_max = busiest, busy_frac


class Hooks:
    """Outside-in instrumentation shared by every workload.

    Counts flow-control refusals (the program keeps no counter for them),
    and sends per node and message kind as they enter a node's CPU queue and
    as they reach the wire: a send still queued when its node crashes is
    counted by the gc layer but never transmitted, and the reconciliation
    check must tell those apart from a miscount.
    """

    def __init__(self):
        self.flow_refusals = 0
        self.queued: Dict[Tuple[str, str], int] = {}
        self.transmitted: Dict[Tuple[str, str], int] = {}

    @contextlib.contextmanager
    def installed(self) -> Iterator["Hooks"]:
        from repro.groupcomm.flowcontrol import FlowController, FlowQueueFull
        from repro.net.network import Network
        from repro.net.node import Node

        saved = (FlowController.try_acquire, Node.send, Network.transmit)
        try_acquire, send, transmit = saved
        hooks = self

        def counting_try_acquire(controller, payload):
            try:
                return try_acquire(controller, payload)
            except FlowQueueFull:
                hooks.flow_refusals += 1
                raise

        def counting_send(node, dst, service, payload, size, kind=None):
            if node.alive:
                key = (node.name, kind or service)
                hooks.queued[key] = hooks.queued.get(key, 0) + 1
            return send(node, dst, service, payload, size, kind)

        def counting_transmit(network, src, dst, service, payload, size, kind=None):
            key = (src, kind or service)
            hooks.transmitted[key] = hooks.transmitted.get(key, 0) + 1
            return transmit(network, src, dst, service, payload, size, kind)

        FlowController.try_acquire = counting_try_acquire
        Node.send = counting_send
        Network.transmit = counting_transmit
        try:
            yield self
        finally:
            FlowController.try_acquire, Node.send, Network.transmit = saved

    def dropped_in_crash(self, crashed: Sequence[str]) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Sends queued on a CPU but never transmitted, by kind: those of
        crashed nodes, and (which must be empty) those of every other node."""
        lost: Dict[str, int] = {}
        unexplained: Dict[str, int] = {}
        for (node, kind), queued in self.queued.items():
            missing = queued - self.transmitted.get((node, kind), 0)
            if missing:
                bucket = lost if node in crashed else unexplained
                bucket[kind] = bucket.get(kind, 0) + missing
        return lost, unexplained


def _layer_counts(window: Window, completed: int, hooks: Hooks) -> Dict[str, float]:
    """Per-layer counts and virtual times over the window, per completed op."""
    c = window.counters
    per_op = lambda value: value / completed if completed else 0.0  # noqa: E731
    delivered = c.get("gc.delivered", 0)
    gc_sent = {name[len("gc.sent."):]: v for name, v in c.items() if name.startswith("gc.sent.")}
    nulls = gc_sent.get("null", 0)
    suppressed = c.get("gc.null_suppressed", 0)
    admitted = c.get("overload.admitted", 0)
    shed = c.get("overload.shed", 0)
    out = {
        "sim.events_per_op": per_op(window.events),
        "net.bytes_per_op": per_op(c.get("net.bytes_sent", 0)),
        "net.cpu_wait_p50_ms": window.cpu_wait_p50 * 1e3,
        "net.cpu_wait_p99_ms": window.cpu_wait_p99 * 1e3,
        "net.busy_frac_max": window.busy_frac_max,
        "groupcomm.null_per_delivery": nulls / delivered if delivered else 0.0,
        "groupcomm.null_suppressed_frac": (
            suppressed / (suppressed + nulls) if suppressed + nulls else 0.0
        ),
        "groupcomm.ticket_per_delivery": (
            gc_sent.get("ticket", 0) / delivered if delivered else 0.0
        ),
        "groupcomm.useful_frac": (
            gc_sent.get("data", 0) / sum(gc_sent.values()) if gc_sent else 0.0
        ),
        "groupcomm.retransmissions": c.get("gc.channel.retransmissions", 0),
        "groupcomm.flushes": c.get("gc.membership.flushes_completed", 0),
        "groupcomm.views_installed": c.get("gc.views_installed", 0),
        "groupcomm.suspicions": c.get("gc.membership.suspicions", 0),
        "groupcomm.flush_timeouts": c.get("gc.membership.flush_timeouts", 0),
        "groupcomm.flow.refusals": hooks.flow_refusals,
        "core.retries_per_op": per_op(c.get("client.retries", 0)),
        "core.rebinds": c.get("client.rebinds", 0),
        "core.timeouts": c.get("client.timeouts", 0),
        "core.executions_per_op": per_op(c.get("server.requests_executed", 0)),
        "overload.admit_frac": admitted / (admitted + shed) if admitted + shed else 0.0,
        "overload.retry_after_honored": c.get("overload.retry_after_honored", 0),
        "shard.remaps": c.get("shard.client.remaps", 0),
        "shard.layout.recomputes": c.get("shard.layout.recomputes", 0),
        "recovery.time_ms": window.recovery_ms,
        "recovery.restarts": c.get("recovery.restarts", 0),
    }
    for kind in MESSAGE_KINDS:
        out[f"net.msgs_per_op.{kind}"] = per_op(c.get(f"net.hops.{kind}", 0))
    for phase in PHASES:
        out[f"core.phase.{phase}_ms"] = window.phase_ms[phase]
    return out


def _reconciliation_check(metrics, hooks: Hooks, crashed: Sequence[str] = ()) -> Tuple[str, bool, str]:
    """gc sends equal net hops for each kind, once sends that a crash
    dropped from the crashed node's CPU queue are accounted for."""
    from repro.obs import reconcile_traffic

    table = reconcile_traffic(metrics.snapshot())
    lost, unexplained = hooks.dropped_in_crash(crashed)
    mismatches = {
        kind: (sent, hops, lost.get(kind, 0))
        for kind, (sent, hops) in sorted(table.items())
        if sent != hops + lost.get(kind, 0)
    }
    ok = not mismatches and not unexplained
    if ok:
        detail = f"{len(table)} kinds equal"
        if lost:
            detail += f" (sends dropped from a crashed node's CPU queue: {lost})"
    else:
        detail = (f"mismatches (gc, net, dropped in crash): {mismatches}; "
                  f"untransmitted sends of live nodes: {unexplained}")
    return ("reconciliation", ok, detail)


def _summary(
    latencies: List[float],
    limit_s: float,
    traffic_s: float,
    offered: int,
    completed: int,
    failed: int,
    shed: int,
    window: Window,
) -> Dict[str, float]:
    ordered = sorted(latencies)
    attempted = offered - shed
    return {
        "samples": len(ordered),
        "offered": offered,
        "completed": completed,
        "failed": failed,
        "shed": shed,
        "traffic_s": traffic_s,
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p99_ms": percentile(ordered, 0.99) * 1e3,
        "goodput_per_s": sum(1 for x in ordered if x <= limit_s) / traffic_s,
        "failed_frac": failed / attempted if attempted else 0.0,
        "shed_frac": shed / offered if offered else 0.0,
        "messages": window.counters.get("net.sent", 0),
        "msgs_per_op": window.counters.get("net.sent", 0) / completed if completed else 0.0,
        "events": window.events,
    }


# ---------------------------------------------------------------------------
# peer_sym_wan: closed-loop symmetric peer group (§5.2)
# ---------------------------------------------------------------------------
def _peer(params: Dict, seed: int, tracer, hooks: Hooks) -> Tuple[Dict, Window, List]:
    from repro.apps.chat import make_peer_config
    from repro.bench.env import Environment
    from repro.bench.workloads import PeerMember, PeerTracker, run_until_done

    env = Environment(config=params["topology"], seed=seed)
    services = env.add_peers(params["members"])
    config = make_peer_config(ordering=params["ordering"])
    sessions = [services[0].create_peer_group("conf", config)]
    for service in services[1:]:
        sessions.append(service.join_peer_group("conf", services[0].name))
        env.run(0.2)
    env.settle(1.0)
    names = [session.member_id for session in sessions]
    tracker = PeerTracker(names)
    order: Dict[str, List[str]] = {name: [] for name in names}
    for session in sessions:
        PeerMember.wire_delivery(session, tracker)
        deliver, log = session.on_deliver, order[session.member_id].append

        def on_deliver(sender, payload, deliver=deliver, log=log):
            log(str(payload).split(".", 1)[0])
            deliver(sender, payload)

        session.on_deliver = on_deliver

    window = Window(env.sim, env.net, tracer)
    window.open()
    members = [
        PeerMember(env.sim, session, tracker, multicasts=params["multicasts_per_member"])
        for session in sessions
    ]
    run_until_done(
        env.sim, [m.done for m in members], deadline=env.sim.now + 600.0, step=SLICE
    )
    window.close()

    sent = [f"{m.session.member_id}:{i}" for m in members for i in range(m.warmup + m.multicasts)]
    reference = order[names[0]]
    delivered_everywhere = set(reference)
    for name in names[1:]:
        delivered_everywhere &= set(order[name])
    completed = sum(1 for tag in sent if tag in delivered_everywhere)
    offered = len(sent)
    latencies = [x for m in members for x in m.latencies.values]
    end = max(m.end_time for m in members)
    summary = _summary(
        latencies, params["latency_limit_ms"] / 1e3, end - window.v_start,
        offered, completed, offered - completed, 0, window,
    )
    summary["outage_ms"] = None
    same_order = all(order[name] == reference for name in names)
    checks = [
        ("accounting", completed == offered,
         f"offered={offered} completed={completed} lost={offered - completed}"),
        ("peer_total_order",
         same_order and len(reference) == offered and sorted(reference) == sorted(sent),
         f"{len(names)} members, {len(reference)} deliveries each, identical={same_order}"),
        _reconciliation_check(env.sim.obs.metrics, hooks),
        ("drained", window.drained, "node CPU queues empty before counters are read"),
    ]
    return summary, window, checks


# ---------------------------------------------------------------------------
# open-loop scenarios run through repro.scenario.runner.run_scenario
# ---------------------------------------------------------------------------
class _ScenarioProbe:
    """Wraps the scenario engine's public pieces to open and close the
    window around the traffic, and to check open-loop issue times."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.env = None
        self.generator = None
        self.window: Optional[Window] = None
        self.issued = 0
        self.max_late = 0.0

    @contextlib.contextmanager
    def installed(self) -> Iterator["_ScenarioProbe"]:
        from repro.bench.env import Environment
        from repro.scenario import runner
        from repro.scenario.traffic import OpenLoopGenerator

        probe = self
        saved = (Environment.__init__, OpenLoopGenerator.start,
                 OpenLoopGenerator._issue, runner.run_until_done)
        env_init, gen_start, gen_issue, run_until_done = saved

        def init(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            probe.env = env

        def start(generator):
            probe.generator = generator
            probe.window = Window(probe.env.sim, probe.env.net, probe.tracer)
            probe.window.open()
            return gen_start(generator)

        def issue(generator, elapsed):
            late = abs((generator.sim.now - generator.start_time) - elapsed)
            if late > probe.max_late:
                probe.max_late = late
            probe.issued += 1
            return gen_issue(generator, elapsed)

        def run_traffic(sim, futures, deadline, step=None, max_events=2048):
            try:
                run_until_done(sim, futures, deadline, step=SLICE, max_events=max_events)
            finally:
                probe.window.close()

        Environment.__init__ = init
        OpenLoopGenerator.start = start
        OpenLoopGenerator._issue = issue
        runner.run_until_done = run_traffic
        try:
            yield self
        finally:
            (Environment.__init__, OpenLoopGenerator.start,
             OpenLoopGenerator._issue, runner.run_until_done) = saved


def _scenario(params: Dict, seed: int, tracer, hooks: Hooks) -> Tuple[Dict, Window, List]:
    from repro.scenario.runner import run_scenario

    spec = dict(params["scenario"], seed=seed, name=params["name"], slos=[])
    probe = _ScenarioProbe(tracer)
    with probe.installed():
        report = run_scenario(spec)
    env, window, stats = probe.env, probe.window, probe.generator.stats
    drain_cpus(env.sim, list(env.net.nodes.values()))

    latencies = [latency for _at, latency in stats.samples]
    failed = stats.errors + stats.lost
    summary = _summary(
        latencies, params["latency_limit_ms"] / 1e3, spec["traffic"]["duration"],
        stats.offered, stats.completed, failed, stats.shed, window,
    )
    crashes = [fault for fault in report["faults"] if fault["kind"] == "crash"]
    summary["outage_ms"] = None
    if crashes:
        crash = crashes[0]["at"]
        after = [at + latency for at, latency in stats.samples if at > crash]
        if after:
            summary["outage_ms"] = (min(after) - crash) * 1e3
    checks = [
        ("accounting",
         stats.offered == stats.completed + stats.shed + failed and stats.lost == 0,
         f"offered={stats.offered} completed={stats.completed} shed={stats.shed} "
         f"errors={stats.errors} lost={stats.lost}"),
        ("open_loop_due_time", probe.max_late <= DUE_TOLERANCE and probe.issued > 0,
         f"{probe.issued} calls issued, max lateness {probe.max_late:.3g} s"),
        _reconciliation_check(
            env.sim.obs.metrics, hooks, [fault["target"] for fault in crashes]
        ),
        ("drained", report["sim"]["drained"] and window.drained,
         "every call resolved and node CPU queues empty before counters are read"),
    ]
    if params.get("expect_convergence"):
        recovery = report["recovery"] or {}
        checks.append(("converged_after_restart", bool(recovery.get("converged")),
                       f"recovery: {recovery.get('converged')}"))
    if crashes:
        checks.append(("outage_measured", summary["outage_ms"] is not None,
                       f"crash at {crashes[0]['at']} s"))
    return summary, window, checks


WORKLOADS: Dict[str, Callable] = {
    "peer_sym_wan": _peer,
    "rr_failover_lan": _scenario,
    "overload_shard_lan": _scenario,
}


def run_workload(name: str, params: Dict, seed: int, spawned_at: float, tracer=None) -> Dict:
    """Run one workload in this process and return its measured result."""
    hooks = Hooks()
    with hooks.installed():
        summary, window, checks = WORKLOADS[name](dict(params, name=name), seed, tracer, hooks)
    completed = summary["completed"]
    checks.append(("min_samples", summary["samples"] >= params["min_samples"],
                   f"{summary['samples']} samples (need {params['min_samples']})"))
    sim_section = dict(summary)
    sim_section.update(_layer_counts(window, completed, hooks))
    sim_section["net.busiest_node"] = window.busiest_node
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "workload": name,
        "seed": seed,
        "traced": tracer is not None,
        "sim": sim_section,
        "host": {
            "setup_s": window.setup_mark - spawned_at,
            "cpu_s": window.cpu_s,
            "ref_cpu_s": window.ref_cpu_s,
            "wall_s": window.wall_s,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
    }
    if tracer is not None:
        result["trace"] = {
            "layer_self_ns": tracer.layer_self_ns(),
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
            "spans_dropped": tracer.spans_dropped,
            "top": tracer.top_functions(),
        }
    return result
