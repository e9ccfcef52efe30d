"""Simulated hosts with a serial CPU.

The per-node CPU model is central to reproducing the paper's results: server
saturation with a handful of LAN clients, and the sequencer CPU bottleneck in
peer groups, are both queueing effects at a host's CPU.  We model each node
as a single non-preemptive FIFO processor: every piece of protocol work
(marshalling a request, processing a delivered group message, executing a
servant) is submitted with a cost and runs serially.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.core import Simulator

__all__ = ["Node", "CpuProfile", "NodeCrashed"]


class NodeCrashed(Exception):
    """Raised when work is submitted to a crashed node."""


class CpuProfile:
    """Per-message CPU costs (seconds), roughly a 2000-era Pentium/Linux host.

    ``send_overhead``/``recv_overhead`` cover syscalls + ORB transport work;
    ``per_byte`` covers marshalling.  Higher layers add their own explicit
    costs (ORB dispatch, NewTop protocol processing) on top.
    """

    __slots__ = ("send_overhead", "recv_overhead", "per_byte")

    def __init__(
        self,
        send_overhead: float = 60e-6,
        recv_overhead: float = 60e-6,
        per_byte: float = 20e-9,
    ):
        self.send_overhead = send_overhead
        self.recv_overhead = recv_overhead
        self.per_byte = per_byte

    def send_cost(self, size_bytes: int) -> float:
        return self.send_overhead + size_bytes * self.per_byte

    def recv_cost(self, size_bytes: int) -> float:
        return self.recv_overhead + size_bytes * self.per_byte


class Node:
    """A host attached to the simulated network.

    Services (the ORB, diagnostics) register message handlers under a service
    name; inbound messages are dispatched to the handler after the receive
    CPU cost has been paid.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        site: str,
        cpu: Optional[CpuProfile] = None,
    ):
        self.sim = sim
        self.name = name
        self.site = site
        self.cpu = cpu or CpuProfile()
        self.alive = True
        self.network = None  # set by Network.attach()
        #: CPU service-time multiplier (fault injection: >1 models a
        #: degraded host — contention, thermal throttling, a noisy
        #: neighbour); 1.0 is full speed
        self.slowdown = 1.0
        self._handlers: Dict[str, Callable[[str, Any, int], None]] = {}
        self._busy_until = 0.0
        self._busy_accum = 0.0
        self._queue_hist = sim.obs.metrics.histogram("node.cpu_queue_delay")
        # pre-resolved bound methods: execute() runs once per CPU submission
        self._record_queue_delay = self._queue_hist.record
        self._schedule_at = sim.schedule_at

    # ------------------------------------------------------------------
    # service registration and message I/O
    # ------------------------------------------------------------------
    def register(self, service: str, handler: Callable[[str, Any, int], None]) -> None:
        """Register ``handler(src_node_name, payload, size)`` for a service."""
        if service in self._handlers:
            raise ValueError(f"service {service!r} already registered on {self.name}")
        self._handlers[service] = handler

    def send(
        self,
        dst: str,
        service: str,
        payload: Any,
        size: int,
        kind: Optional[str] = None,
    ) -> None:
        """Send a message to ``dst``; pays the send CPU cost first.

        The message leaves the node once the CPU has finished marshalling it,
        so a burst of sends from one node is serialised — this is the
        paper's "multicast implemented by invoking members in turn".

        ``kind`` (optional) attributes the resulting network hop to a
        protocol-message kind for per-kind traffic accounting.

        A crashed node sends nothing (crash-stop): the call is a silent
        no-op so that protocol timers firing after a crash cannot blow up.
        """
        if not self.alive:
            return
        if self.network is None:
            raise RuntimeError(f"node {self.name} is not attached to a network")
        cpu = self.cpu
        cost = cpu.send_overhead + size * cpu.per_byte
        self.execute(
            cost, self.network.transmit, self.name, dst, service, payload, size, kind
        )

    def deliver(self, src: str, service: str, payload: Any, size: int) -> None:
        """Called by the network when a message arrives (pre-CPU)."""
        if not self.alive:
            return
        handler = self._handlers.get(service)
        if handler is None:
            return  # unknown service: silently dropped, like a closed port
        cpu = self.cpu
        cost = cpu.recv_overhead + size * cpu.per_byte
        # _run_if_alive re-checks liveness when the CPU gets to the message
        self.execute(cost, handler, src, payload, size)

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------
    def set_slowdown(self, factor: float) -> None:
        """Scale all subsequent CPU costs by ``factor`` (1.0 = full speed).

        Already-queued work is unaffected; only work submitted after the
        change pays the scaled cost, like a host whose load average jumps.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.slowdown = factor

    def execute(self, cost: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``cost`` seconds of CPU, FIFO-queued."""
        if not self.alive:
            return
        cost *= self.slowdown
        now = self.sim._now  # Simulator.now is a property; skip the descriptor
        busy = self._busy_until
        start = busy if busy > now else now
        self._record_queue_delay(start - now)
        until = start + cost
        self._busy_until = until
        self._busy_accum += cost
        self._schedule_at(until, self._run_if_alive, fn, args)

    def _run_if_alive(self, fn: Callable, args) -> None:
        if self.alive:
            fn(*args)

    @property
    def queue_delay(self) -> float:
        """Seconds of CPU work currently queued ahead of new submissions."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this CPU spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_accum / elapsed)

    @property
    def busy_time(self) -> float:
        return self._busy_accum

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop: drop all queued work and future messages."""
        self.alive = False

    def recover(self) -> None:
        """Restart the node (state above this layer must be rebuilt)."""
        self.alive = True
        self._busy_until = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "crashed"
        return f"<Node {self.name}@{self.site} {state}>"
