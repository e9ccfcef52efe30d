"""Group sessions: one member's state for one group.

A :class:`GroupSession` is the handle the invocation layer (and applications
using group communication directly) hold on a group.  It owns

- the installed view and member state machine
  (``joining`` → ``active`` ⇄ ``flushing`` → ``closed``);
- per-view sequence numbers, the unstable-message buffer and piggybacked
  stability tracking;
- the ordering strategy (symmetric / asymmetric / causal / FIFO);
- the time-silence + failure-suspicion machinery;
- the membership engine.

Sends issued while the session is joining or flushing are queued and go out
in the next active period, preserving the caller's FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NotMember
from repro.groupcomm.config import GroupConfig, Liveliness
from repro.groupcomm.failuredetector import FailureDetector
from repro.groupcomm.flowcontrol import FlowController
from repro.groupcomm.membership import MembershipEngine
from repro.groupcomm.messages import (
    DataMsg,
    KIND_DATA,
    KIND_NULL,
    TicketBatchMsg,
    TicketMsg,
    ViewInstall,
)
from repro.groupcomm.ordering import make_ordering
from repro.groupcomm.views import GroupView
from repro.sim.futures import Future

__all__ = ["GroupSession", "release_stable"]

MsgId = Tuple[int, str, int]

#: CPU cost of handing one delivered message up to the application object
#: (the local m3/m6 invocations of the paper's fig. 9).
DELIVER_COST = 30e-6


def release_stable(
    unstable: Dict[MsgId, Any],
    fifos: Dict[str, Deque[MsgId]],
    members: List[str],
    member_id: str,
    own_top: int,
    recv_gseq: Dict[str, int],
    acked: Dict[str, Dict[str, int]],
) -> int:
    """Drop every message all members have acknowledged from ``unstable``
    and its sender's FIFO; returns how many of them were ``member_id``'s own.

    A message is stable once every member's latest ack vector (``acked``,
    plus our own receive state: ``own_top`` for our sends, ``recv_gseq``
    for peers) covers its gseq.  Within a view each sender's gseqs are
    contiguous and reach us in ascending order (own sends are numbered in
    order, received ones arrive over FIFO channels), so each FIFO is
    ascending and the stable messages are a prefix of it.  A sender is
    therefore examined only while its oldest unstable message could be
    released: the scan stops at the first member that has not acked it.
    """
    vectors = []
    for member in members:
        if member != member_id:
            vector = acked.get(member)
            if vector is None:
                return 0  # a peer that has acked nothing holds back every gseq
            vectors.append(vector)
    own_released = 0
    for sender, fifo in fifos.items():
        if not fifo:
            continue
        head = fifo[0][2]
        # own acks: what we have received from (or sent as) this sender
        if sender == member_id:
            low = own_top
        elif sender in members:
            low = recv_gseq.get(sender, 0)
        else:
            continue  # not (or no longer) a member: never stable
        if low < head:
            continue
        for vector in vectors:
            theirs = vector.get(sender, 0)
            if theirs < head:
                break
            if theirs < low:
                low = theirs
        else:
            while fifo and fifo[0][2] <= low:
                del unstable[fifo.popleft()]
                if sender == member_id:
                    own_released += 1
    return own_released


class SessionStats:
    """Per-session counters (for tests and benchmarks)."""

    def __init__(self):
        self.sent = 0
        self.nulls_sent = 0
        self.delivered = 0
        self.views = 0


class GroupSession:
    """One member's endpoint in one group."""

    def __init__(
        self,
        service,
        group: str,
        config: GroupConfig,
        initial_view: Optional[GroupView] = None,
    ):
        self.service = service
        self.sim = service.sim
        self.member_id = service.name
        self.group = group
        self.config = config
        self.view: Optional[GroupView] = initial_view
        self.state = "active" if initial_view is not None else "joining"

        # application callbacks
        self.on_deliver: Optional[Callable[[str, Any], None]] = None
        self.on_view: Optional[Callable[[GroupView, List[str], List[str]], None]] = None

        # outcome futures
        self.joined = Future(name=f"joined:{group}@{self.member_id}")
        self.left = Future(name=f"left:{group}@{self.member_id}")
        if initial_view is not None:
            self.joined.resolve(initial_view)

        # per-view message state
        self._gseq_next = 1
        self._recv_gseq: Dict[str, int] = {}
        self._acked: Dict[str, Dict[str, int]] = {}
        self.unstable: Dict[MsgId, DataMsg] = {}
        #: sender -> ids of its messages in ``unstable``, oldest first
        self._unstable_fifo: Dict[str, Deque[MsgId]] = {}
        self._queued_sends: List[Any] = []
        self._future_buffer: List[Tuple[str, Any]] = []
        self._last_sent_ts = 0
        self._max_seen_ts = 0
        self._acks_owed = False
        self._self_ack_owed = False
        self._null_timer = None
        self._leaving = False
        #: delivery frontiers peers piggybacked on their latest message
        self._peer_frontiers: Dict[str, Any] = {}
        #: send-path pressure peers piggybacked on their latest message
        self._peer_pushback: Dict[str, float] = {}
        #: optional extra pressure folded into our advertised pushback —
        #: lets a request manager relay its *server group's* pressure into
        #: the client/server group so it reaches the client end to end
        self.pushback_source: Optional[Callable[[], float]] = None

        self.stats = SessionStats()
        obs = self.sim.obs
        self._tracer = obs.tracer
        self._flight = obs.flight
        self._phases = obs.phases
        self._delivered_counter = obs.metrics.counter("gc.delivered")
        self._views_counter = obs.metrics.counter("gc.views_installed")
        self._unstable_hist = obs.metrics.histogram("gc.unstable_depth")
        self._flow_inflight_g = obs.metrics.gauge("gc.flow.in_flight")
        self._flow_queued_g = obs.metrics.gauge("gc.flow.queued")
        #: last (in_flight, queued) reported to the aggregate flow gauges
        self._flow_reported = (0, 0)
        self.flow = FlowController(
            config.send_window, config.flow_max_queue or None
        )
        #: ordering backlog that reads as pushback 1.0 (a few windows' worth)
        self._pushback_pending_bound = 4.0 * config.send_window
        self.ordering = make_ordering(config.ordering, self)
        self.detector = FailureDetector(self)
        self.membership = MembershipEngine(self)
        if not config.ordering_config.ack_piggyback:
            service.channels.ack_piggyback = False
        if initial_view is not None:
            self._register_with_mergers()
            self.detector.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        return list(self.view.members) if self.view else []

    @property
    def sequencer(self) -> str:
        """The ordering sequencer: the config hint if present, else rank 0."""
        hint = self.config.sequencer_hint
        if hint and self.view is not None and hint in self.view.members:
            return hint
        return self.view.members[0] if self.view else ""

    def send(self, payload: Any) -> None:
        """Multicast ``payload`` to the group with the configured ordering.

        One-way (asynchronous) send: returns immediately; delivery happens
        at every member — including the sender — via ``on_deliver``.  Sends
        beyond the flow-control window are queued and go out as earlier
        messages stabilise.
        """
        if self.state == "closed":
            raise NotMember(f"{self.member_id} is not a member of {self.group}")
        if self.state in ("joining", "flushing"):
            if getattr(payload, "forwarded", None) is not None:
                # an invocation held behind a membership flush: start its
                # flush-wait clock (released when the send finally goes out)
                self._phases.on_flush_hold((payload.client, payload.call_no))
            self._queued_sends.append(payload)
            return
        if not self.flow.try_acquire(payload):
            # window full: queued inside the flow controller (raises
            # FlowQueueFull past max_queue — the caller sheds)
            self._update_flow_gauges()
            return
        self._update_flow_gauges()
        self._do_send(payload, KIND_DATA)

    def leave(self) -> Future:
        """Depart gracefully; resolves once the group has reformed.

        The intention persists across view changes: if the coordinator
        handling our request fails (or leaves) first, the request is
        re-issued to its successor on the next view install.
        """
        if self.state == "closed":
            return self.left
        self._leaving = True
        if self.view is not None and len(self.view.members) == 1:
            self._close()
            return self.left
        self.membership.request_leave()
        return self.left

    def group_details(self) -> Optional[GroupView]:
        """The paper's ``groupdetails`` operation: the current view."""
        return self.view

    def has_outstanding(self) -> bool:
        """Whether application messages are outstanding (event-driven arming)."""
        return (
            self.ordering.pending_count() > 0
            or bool(self.unstable)
            or bool(self._queued_sends)
        )

    def has_scheduled_null(self) -> bool:
        """Whether a reactive NULL timer is pending (a send is imminent)."""
        return self._null_timer is not None

    def _needs_ts_progress(self) -> bool:
        return self.ordering.needs_nulls and self._last_sent_ts < self._max_seen_ts

    def is_quiescent(self) -> bool:
        """No undischarged protocol debt of our own: the adaptive heartbeat
        may back off.  Unstable messages do *not* block quiescence — their
        stability needs the peers' acks, not more NULLs from us."""
        return not (
            self._acks_owed
            or self._self_ack_owed
            or self._needs_ts_progress()
            or self._null_timer is not None
            or self.ordering.pending_count() > 0
            or self._queued_sends
        )

    def is_deeply_quiescent(self) -> bool:
        """Quiescent *and* provably caught up group-wide: nothing unstable
        here and every peer's piggybacked delivery frontier has reached ours.
        Gate for the optional quiescence -> event-driven fallback."""
        return self.is_quiescent() and not self.unstable and self._frontier_caught_up()

    def local_pushback(self) -> float:
        """This member's own send-path pressure in [0, 1].

        The max of flow-control fullness (window + bounded queue) and the
        ordering backlog (messages received but not yet deliverable),
        normalised against a few windows' worth of pending work.  Advertised
        on every outgoing frame; admission control reads the group max.
        """
        pressure = self.flow.occupancy()
        pending = self.ordering.pending_count()
        if pending:
            pressure = max(pressure, pending / self._pushback_pending_bound)
        if self.pushback_source is not None:
            relayed = self.pushback_source()
            if relayed > pressure:
                pressure = relayed
        return pressure if pressure < 1.0 else 1.0

    def group_pushback(self) -> float:
        """The worst advertised pressure across the group (incl. our own)."""
        peak = self.local_pushback()
        peers = self._peer_pushback
        if peers:
            worst = max(peers.values())
            if worst > peak:
                peak = worst
        return peak

    def _update_flow_gauges(self) -> None:
        now = (self.flow.in_flight, self.flow.queued)
        last = self._flow_reported
        if now != last:
            self._flow_inflight_g.add(now[0] - last[0])
            self._flow_queued_g.add(now[1] - last[1])
            self._flow_reported = now

    def _frontier_caught_up(self) -> bool:
        if self.view is None:
            return False
        mine = self.ordering.frontier()
        for member in self.view.members:
            if member == self.member_id:
                continue
            theirs = self._peer_frontiers.get(member)
            if theirs is None:
                return False
            try:
                if theirs < mine:
                    return False
            except TypeError:
                # causal/FIFO frontiers are maps, not totally ordered: never
                # claim deep quiescence for them
                return False
        return True

    # ------------------------------------------------------------------
    # sending machinery
    # ------------------------------------------------------------------
    def send_null(self) -> None:
        """Emit a time-silence NULL ("I am alive") message.

        NULLs also flow while flushing: membership agreement must not starve
        the failure detector of liveness evidence.
        """
        if self.state not in ("active", "flushing"):
            return
        self._do_send(None, KIND_NULL)
        self.stats.nulls_sent += 1

    def _do_send(self, payload: Any, kind: str) -> None:
        ts = self.service.clock.tick()
        self._last_sent_ts = ts
        self._acks_owed = False
        if kind == KIND_DATA:
            gseq = self._gseq_next
            self._gseq_next += 1
        else:
            gseq = 0
        ticket = None
        vector = None
        if kind == KIND_DATA:
            if (
                self.ordering.name == "asymmetric"
                and self.member_id == self.sequencer
            ):
                # tickets batched for earlier remote messages must reach the
                # channels before this self-ticketed data message, or peers
                # would see this (larger) embedded ticket first and the
                # cross-group arrival order would no longer be increasing
                self.service.ticket_batcher.flush()
                ticket = self.service.next_ticket()
            elif self.ordering.name == "causal":
                vector = self.ordering.stamp()
        if kind == KIND_DATA:
            self.detector.note_activity()
        msg = DataMsg(
            self.group,
            self.member_id,
            self.view.view_id,
            gseq,
            ts,
            kind,
            payload,
            ticket,
            vector,
            self._current_acks(),
            self.detector.advertise_period(),
            self.ordering.frontier(),
            era=self.view.era,
            pushback=self.local_pushback(),
        )
        if kind == KIND_DATA:
            self._hold_unstable(msg)
            self.stats.sent += 1
            self._unstable_hist.record(float(len(self.unstable)))
            self._flight.record(
                self.member_id, "send", self.group, f"{self.member_id}#{gseq}"
            )
            if self._phases.flush_pending and getattr(payload, "forwarded", None) is not None:
                self._phases.on_flush_release((payload.client, payload.call_no))
        self.detector.sent_something()
        tracer = self._tracer
        span = None
        if tracer.enabled and tracer.recording:
            span = tracer.start_span(
                "gc.send",
                kind="producer",
                node=self.member_id,
                attrs={
                    "group": self.group,
                    "msg.kind": kind,
                    "gseq": gseq,
                    "ts": ts,
                    "fanout": len(self.view.members) - 1,
                },
            )
            if kind == KIND_DATA:
                # group-ordered delivery is unblocked by *later* protocol
                # traffic, so deliverers cannot rely on scheduler context for
                # causality; they look the sender's span up by message id
                tracer.stash_parent((self.group, msg.msg_id), span)
        with tracer.use(span):
            for member in self.view.members:
                if member != self.member_id:
                    self.service.channels.send(member, msg)
            self.ordering.on_local_send(msg)
        tracer.end_span(span)
        # symmetric ordering: peers can only deliver our message once they
        # hold a *later* timestamp from us — if nothing else goes out soon,
        # a NULL must follow (the sender-side half of the protocol traffic)
        if kind == KIND_DATA and self.ordering.needs_nulls:
            self._self_ack_owed = True
            deadline = self.sim.now + self.config.null_delay
            if self._null_timer is not None and deadline < self._null_timer.time:
                self._null_timer.cancel()
                self._null_timer = None
            if self._null_timer is None:
                self._null_timer = self.sim.schedule(
                    self.config.null_delay, self._null_timer_fired
                )
        else:
            self._self_ack_owed = False
        self._post_event_drain()

    def _current_acks(self) -> Dict[str, int]:
        acks = dict(self._recv_gseq)
        acks[self.member_id] = self._gseq_next - 1
        return acks

    # ------------------------------------------------------------------
    # receive path (called by the service's channel upcall)
    # ------------------------------------------------------------------
    def on_data(self, peer: str, msg: DataMsg) -> None:
        if self.state == "closed":
            return
        self.service.clock.observe(msg.ts)
        if self.state == "joining":
            # no view (hence no era) to judge against yet; the replay after
            # our install applies the era check to everything buffered here
            self._future_buffer.append((peer, msg))
            return
        if msg.era != self.view.era:
            # a frame from another incarnation of the group: channels outlive
            # sessions across restarts, so a dead incarnation's retransmitted
            # frames can surface here with view ids that alias ours
            return
        if msg.view_id > self.view.view_id:
            self._future_buffer.append((peer, msg))
            return
        if msg.view_id < self.view.view_id or msg.sender not in self.view.members:
            return
        self.detector.heard_from(msg.sender)
        self.detector.observe_period(msg.sender, msg.hb_period)
        if msg.frontier is not None:
            self._peer_frontiers[msg.sender] = msg.frontier
        self._peer_pushback[msg.sender] = msg.pushback
        if not msg.is_null:
            self.detector.note_activity()
            self._recv_gseq[msg.sender] = msg.gseq
            self._hold_unstable(msg)
            payload = msg.payload
            if getattr(payload, "forwarded", None) is not None:
                # raw request arrival at this member (before ordering):
                # the ordering-wait clock for this member starts here
                self._phases.on_arrival(
                    (payload.client, payload.call_no), self.member_id
                )
        self._ingest_acks(msg.sender, msg.acks)
        self._consider_null_reply(msg)
        self.ordering.on_data(msg)
        self._post_event_drain()

    def on_ticket(self, peer: str, msg: TicketMsg) -> None:
        if self.state == "closed" or self.view is None:
            return
        if msg.era != self.view.era:
            return  # ticket from another incarnation of the group
        if self.state == "joining" or msg.view_id > self.view.view_id:
            self._future_buffer.append((peer, msg))
            return
        if msg.view_id < self.view.view_id:
            return
        self.detector.heard_from(msg.sender)
        self.ordering.on_ticket(msg)
        self._post_event_drain()

    def on_ticket_batch(self, peer: str, msg: TicketBatchMsg) -> None:
        if self.state == "closed" or self.view is None:
            return
        if msg.era != self.view.era:
            return  # tickets from another incarnation of the group
        if self.state == "joining" or msg.view_id > self.view.view_id:
            self._future_buffer.append((peer, msg))
            return
        if msg.view_id < self.view.view_id:
            return
        self.detector.heard_from(msg.sender)
        self.ordering.on_ticket_batch(msg)
        self._post_event_drain()

    def _post_event_drain(self) -> None:
        if self.ordering.name == "symmetric":
            self.service.clock_merger.drain()
        elif self.ordering.name == "asymmetric":
            self.service.ticket_merger.drain()

    # ------------------------------------------------------------------
    # stability tracking
    # ------------------------------------------------------------------
    def _hold_unstable(self, msg: DataMsg) -> None:
        msg_id = msg.msg_id
        self.unstable[msg_id] = msg
        fifo = self._unstable_fifo.get(msg_id[1])
        if fifo is None:
            self._unstable_fifo[msg_id[1]] = deque((msg_id,))
        else:
            fifo.append(msg_id)

    def _ingest_acks(self, reporter: str, acks: Dict[str, int]) -> None:
        # the acks dict is a fresh per-receiver copy from ``transfer`` (or
        # freshly built for a local replay) and is never mutated afterwards,
        # so it can be stored by reference instead of copied per message
        self._acked[reporter] = acks
        if not self.unstable or self.view is None:
            return
        own_released = release_stable(
            self.unstable,
            self._unstable_fifo,
            self.view.members,
            self.member_id,
            self._gseq_next - 1,
            self._recv_gseq,
            self._acked,
        )
        if own_released:
            self.flow.release(own_released)
            while True:
                payload = self.flow.drain()
                if payload is None:
                    break
                self._do_send(payload, KIND_DATA)
            self._update_flow_gauges()

    # ------------------------------------------------------------------
    # reactive NULL scheduling
    #
    # A NULL is owed after receiving a data message for two reasons:
    # - symmetric ordering needs our timestamp to pass the message's (else
    #   nobody can deliver it);
    # - stability needs our piggybacked acks to reach the sender (else the
    #   message stays outstanding everywhere and event-driven groups never
    #   quiesce).
    # Sending anything (data or null) within ``null_delay`` cancels the debt.
    # ------------------------------------------------------------------
    def _consider_null_reply(self, msg: DataMsg) -> None:
        if msg.is_null:
            return
        if msg.ts > self._max_seen_ts:
            self._max_seen_ts = msg.ts
        self._acks_owed = True
        # ordering progress needs a prompt NULL (null_delay); a pure
        # stability ack may be batched for longer, and in adaptive lively
        # groups long enough that it usually rides on the next data message
        if self._needs_ts_progress():
            delay = self.config.null_delay
        else:
            delay = self._ack_flush_delay()
        deadline = self.sim.now + delay
        if self._null_timer is not None and deadline < self._null_timer.time:
            self._null_timer.cancel()
            self._null_timer = None
        if self._null_timer is None:
            self._null_timer = self.sim.schedule(delay, self._null_timer_fired)

    def _ack_flush_delay(self) -> float:
        """How long a pure stability ack may wait for a data message to
        piggyback on before a NULL is emitted for it."""
        config = self.config
        live = config.liveliness_config
        if config.liveliness != Liveliness.LIVELY or not live.adaptive:
            return config.ack_delay
        window = max(config.ack_delay, config.silence_period * live.ack_coalesce_factor)
        # never be silent longer than the advertised interval allows, and
        # leave comfortable slack under peers' suspicion deadlines
        return min(window, self.detector.max_period, config.suspicion_timeout / 2.0)

    def _null_timer_fired(self) -> None:
        self._null_timer = None
        if self.state not in ("active", "flushing"):
            return
        if self._acks_owed or self._self_ack_owed or self._needs_ts_progress():
            self.send_null()

    # ------------------------------------------------------------------
    # ordering-layer callbacks
    # ------------------------------------------------------------------
    def _cleared(self, msg: DataMsg, key: Tuple[int, str]) -> None:
        """A message cleared group-level ordering."""
        if self.ordering.name == "symmetric":
            self.service.clock_merger.push(self, msg, key)
        else:
            self._deliver_app(msg)

    def _enqueue_ticket(self, ticket: int, key: Tuple[str, int]) -> None:
        self.service.ticket_merger.enqueue(self.sequencer, self, ticket, key)

    def _announce_ticket(self, ticket: int, key: Tuple[str, int]) -> None:
        """Announce a ticket assignment to the group (via the batcher, which
        may coalesce it with neighbouring assignments)."""
        self.service.ticket_batcher.announce(self, ticket, key)

    def _emit_ticket(self, ticket: int, key: Tuple[str, int]) -> None:
        """Multicast one ticket assignment (the unbatched wire format)."""
        sender, gseq = key
        msg = TicketMsg(
            self.group,
            self.member_id,
            self.view.view_id,
            ticket,
            sender,
            gseq,
            era=self.view.era,
        )
        self._flight.record(
            self.member_id, "ticket", self.group, f"{ticket}->{sender}#{gseq}"
        )
        tracer = self._tracer
        span = None
        if tracer.enabled and tracer.recording:
            span = tracer.start_span(
                "gc.ticket",
                kind="producer",
                node=self.member_id,
                attrs={"group": self.group, "ticket": ticket, "for": f"{sender}#{gseq}"},
            )
        with tracer.use(span):
            for member in self.view.members:
                if member != self.member_id:
                    self.service.channels.send(member, msg)
        tracer.end_span(span)
        self.detector.sent_something()

    def _emit_ticket_batch(self, entries: List[Tuple[int, Tuple[str, int]]]) -> None:
        """Multicast a coalesced run of ticket assignments as one message."""
        msg = TicketBatchMsg(
            self.group,
            self.member_id,
            self.view.view_id,
            [(ticket, key[0], key[1]) for ticket, key in entries],
            era=self.view.era,
        )
        self._flight.record(
            self.member_id,
            "ticket",
            self.group,
            f"batch[{len(entries)}] {entries[0][0]}..{entries[-1][0]}",
        )
        tracer = self._tracer
        span = None
        if tracer.enabled and tracer.recording:
            first, last = entries[0][0], entries[-1][0]
            span = tracer.start_span(
                "gc.ticket",
                kind="producer",
                node=self.member_id,
                attrs={
                    "group": self.group,
                    "ticket": first,
                    "batch": len(entries),
                    "span": f"{first}..{last}",
                },
            )
        with tracer.use(span):
            for member in self.view.members:
                if member != self.member_id:
                    self.service.channels.send(member, msg)
        tracer.end_span(span)
        self.detector.sent_something()

    def _drain_tickets(self) -> None:
        self.service.ticket_merger.drain()

    def _deliver_app(self, msg: DataMsg) -> None:
        if msg.is_null:
            return
        self.stats.delivered += 1
        self._delivered_counter.inc()
        self._flight.record(
            self.member_id, "deliver", self.group, f"{msg.sender}#{msg.gseq}"
        )
        payload = msg.payload
        if getattr(payload, "forwarded", None) is not None:
            # ordering released the request to the app: ordering wait ends
            self._phases.on_cleared((payload.client, payload.call_no), self.member_id)
        if self.on_deliver is None:
            return
        tracer = self._tracer
        if tracer.enabled:
            # parent on the *sender's* gc.send span (looked up by message id):
            # the scheduler context here belongs to whichever protocol message
            # unblocked ordering, not to the message's causal origin
            parent = tracer.stashed_parent((self.group, msg.msg_id))
            span = None
            if parent is not None:
                # even if the ambient (unblocking) trace is unsampled, a
                # stashed parent means the *origin* was sampled — record
                span = tracer.start_span(
                    "gc.deliver",
                    kind="consumer",
                    node=self.member_id,
                    parent=parent,
                    attrs={"group": self.group, "sender": msg.sender, "gseq": msg.gseq},
                )
            elif not tracer.sampling and tracer.recording:
                # full tracing: a stash miss (cap eviction) falls back to the
                # ambient span rather than losing the delivery entirely
                span = tracer.start_span(
                    "gc.deliver",
                    kind="consumer",
                    node=self.member_id,
                    attrs={"group": self.group, "sender": msg.sender, "gseq": msg.gseq},
                )
            if span is not None:
                with tracer.use(span):
                    self.service.node.execute(
                        DELIVER_COST, self._upcall_traced, span, msg.sender, msg.payload
                    )
            elif tracer.sampling:
                # unsampled origin: run the upcall under an explicitly
                # unsampled context so its downstream work allocates no spans
                with tracer.use_root(None):
                    self.service.node.execute(
                        DELIVER_COST, self._upcall, msg.sender, msg.payload
                    )
            else:
                self.service.node.execute(
                    DELIVER_COST, self._upcall, msg.sender, msg.payload
                )
        else:
            self.service.node.execute(
                DELIVER_COST, self._upcall, msg.sender, msg.payload
            )

    def _upcall(self, sender: str, payload: Any) -> None:
        if self.state != "closed" and self.on_deliver is not None:
            self.on_deliver(sender, payload)

    def _upcall_traced(self, span, sender: str, payload: Any) -> None:
        self._upcall(sender, payload)
        self._tracer.end_span(span)

    # ------------------------------------------------------------------
    # flush / view change support
    # ------------------------------------------------------------------
    def collect_flush_state(self):
        """(unstable messages, known tickets, delivery frontier) for FlushOk."""
        if self.view is None:
            return [], [], None
        unstable = list(self.unstable.values())
        tickets = []
        if self.ordering.name == "asymmetric":
            tickets = [
                (value, sender, gseq)
                for (sender, gseq), value in self.ordering.known_tickets.items()
            ]
        return unstable, tickets, self.ordering.frontier()

    def apply_view_install(self, install: ViewInstall) -> None:
        """Deliver the closing set, then adopt the new view."""
        first_view = self.view is None
        joining = self.state == "joining"
        if joining:
            # adopt the group's real configuration (the creator's)
            self.config = install.config
            self.ordering = make_ordering(install.config.ordering, self)
            self.detector = FailureDetector(self)
            self.flow = FlowController(
                install.config.send_window, install.config.flow_max_queue or None
            )
            self._pushback_pending_bound = 4.0 * install.config.send_window
            if not install.config.ordering_config.ack_piggyback:
                self.service.channels.ack_piggyback = False
        else:
            self._unregister_from_mergers()
            for msg in self.ordering.finalize(install.unstable, install.tickets):
                self._deliver_app(msg)

        old_members = set(self.view.members) if self.view else set()
        self.view = install.view
        new_members = set(install.view.members)
        joined = [m for m in install.view.members if m not in old_members]
        left = sorted(old_members - new_members)

        # fresh per-view state
        self.ordering.reset(install.view.members)
        self._gseq_next = 1
        self._recv_gseq = {m: 0 for m in install.view.members}
        self._acked = {}
        self.unstable = {}
        self._unstable_fifo = {}
        self._last_sent_ts = self.service.clock.value
        self._max_seen_ts = 0
        self._acks_owed = False
        self._self_ack_owed = False
        self._peer_frontiers = {}
        self._peer_pushback = {}
        if self._null_timer is not None:
            self._null_timer.cancel()
            self._null_timer = None

        self.state = "active"
        self.stats.views += 1
        self._views_counter.inc()
        self._flight.record(
            self.member_id,
            "view",
            self.group,
            f"v{install.view.view_id} members={len(install.view.members)}"
            f" +{len(joined)} -{len(left)}",
        )
        self._tracer.event(
            "gc.view_install",
            group=self.group,
            view_id=install.view.view_id,
            members=len(install.view.members),
            joined=len(joined),
            left=len(left),
        )
        self._register_with_mergers()
        self.detector.on_view_change()
        self.detector.start()
        if first_view or joining:
            self.joined.try_resolve(install.view)
        if self.on_view is not None:
            self.on_view(install.view, joined, left)

        # replay buffered new-view traffic, then queued application sends
        # (both the flush-time queue and anything flow control held back)
        buffered, self._future_buffer = self._future_buffer, []
        for peer, message in buffered:
            if isinstance(message, DataMsg):
                self.on_data(peer, message)
            elif isinstance(message, TicketBatchMsg):
                self.on_ticket_batch(peer, message)
            else:
                self.on_ticket(peer, message)
        held = self.flow.pop_all_queued()
        self.flow.reset()
        queued, self._queued_sends = self._queued_sends, []
        for payload in queued + held:
            # replay bypasses max_queue: this work was admitted before the
            # view change, so re-queueing it must not raise
            if self.flow.requeue(payload):
                self._do_send(payload, KIND_DATA)
        self._update_flow_gauges()

        # a departure intention outlives coordinator changes
        if self._leaving and self.state == "active":
            if len(self.view.members) == 1:
                self._close()
            else:
                self.membership.request_leave()

    def _register_with_mergers(self) -> None:
        if self.ordering.name == "symmetric":
            self.service.clock_merger.register(self)

    def _unregister_from_mergers(self) -> None:
        self.service.clock_merger.unregister(self)
        self.service.ticket_merger.purge(self)
        self.service.ticket_batcher.purge(self)

    def _close(self) -> None:
        if self.state == "closed":
            return
        self.state = "closed"
        self.detector.stop()
        self._unregister_from_mergers()
        # clear the reactive NULL debt with the timer: a stale debt must not
        # survive into any later use of this member identity
        self._acks_owed = False
        self._self_ack_owed = False
        self._max_seen_ts = 0
        self._peer_frontiers = {}
        self._peer_pushback = {}
        # retire this session's contribution to the aggregate flow gauges
        last = self._flow_reported
        if last != (0, 0):
            self._flow_inflight_g.add(-last[0])
            self._flow_queued_g.add(-last[1])
            self._flow_reported = (0, 0)
        if self._null_timer is not None:
            self._null_timer.cancel()
            self._null_timer = None
        self.service.drop_session(self.group)
        self.left.try_resolve(None)
        self.joined.try_fail(NotMember(f"{self.group}: membership ended"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vid = self.view.view_id if self.view else "-"
        return f"<GroupSession {self.group}@{self.member_id} v{vid} {self.state}>"
