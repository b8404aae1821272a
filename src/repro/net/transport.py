"""Socket-like transport endpoints over the simulated network.

The paper's nodes talk over the standard Java socket interface (reliable,
ordered byte streams).  :class:`Transport` provides that contract to the
DSM layer: per-link FIFO ordering is enforced with sequence numbers and a
reassembly buffer, so it holds even when the raw network jitters
deliveries out of order (failure-injection mode).

Messages are dispatched to handlers registered by message type; unknown
types raise, because a protocol that silently drops messages deadlocks in
ways that are miserable to debug.

Reliability (``reliable=True``) adds a lightweight ARQ layer modelling
what TCP gives the paper's sockets on a lossy Ethernet: senders buffer
frames until a cumulative ack arrives, retransmit on timeout (go-back-N),
and receivers tolerate duplicates by dropping already-delivered sequence
numbers.  With a perfectly reliable network the layer adds only the ack
frames; under the fault injector it masks seeded drop / duplicate /
delay / reorder faults.  The default (``reliable=False``) keeps the
strict behaviour — a duplicate delivery raises, because the plain
simulated net never duplicates and silence would hide protocol bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional

from ..hooks import TransportHooks
from ..sim.cost_model import CostModel
from ..sim.engine import NS_PER_MS, EventHandle, SimEngine
from .message import HEADER_BYTES, M_TRANSPORT_ACK, Message, estimate_size
from .simnet import SimNetwork

Handler = Callable[[Message], None]

#: Control frame type for cumulative acks (never seq-numbered).
ACK_TYPE = M_TRANSPORT_ACK
#: What every ack bills: its payload is always ``{"next": int}``, and
#: an int is 8 bytes whatever its value, so it is sized once, here.
_ACK_BYTES = HEADER_BYTES + estimate_size({"next": 0})
#: Retransmission timeout.  Must exceed the worst one-way latency plus
#: any injected jitter/delay, or spurious (harmless but noisy)
#: retransmissions occur.
DEFAULT_RTO_NS = 25 * NS_PER_MS
#: Give-up bound: after this many consecutive timeouts without ack
#: progress the unacked frames are dropped (peer presumed detached).
DEFAULT_MAX_RETRIES = 20


@dataclass
class TransportStats:
    """Per-endpoint reliability counters (all zero on a clean network)."""

    acks_sent: int = 0
    dup_dropped: int = 0         # re-deliveries suppressed by seq check
    retransmissions: int = 0     # frames re-sent after an RTO
    gave_up: int = 0             # frames abandoned after max retries
    to_dead_dropped: int = 0     # sends/retransmits to a detached peer
    unreachable_events: int = 0  # peer_unreachable notifications fired
    stale_dropped: int = 0       # frames from a dead peer / dead epoch


class Transport:
    """One node's network endpoint with FIFO reassembly and type dispatch."""

    def __init__(
        self,
        network: SimNetwork,
        node_id: int,
        cost_model: CostModel,
        reliable: bool = False,
        rto_ns: int = DEFAULT_RTO_NS,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.reliable = reliable
        self.rto_ns = rto_ns
        self.max_retries = max_retries
        self.stats = TransportStats()
        # Called (once per peer, until reset by mark_dead) when the ARQ
        # give-up bound is reached for a destination: the frames were
        # abandoned and the runtime should treat the peer as suspect.
        self.on_peer_unreachable: Optional[Callable[[int], None]] = None
        self._unreachable_reported: set = set()
        # Tap points for the subsystems riding on this endpoint.
        self.hooks = TransportHooks()
        # The message whose handler is running (None outside a handler;
        # nests for the sub-frames of an aggregate).
        self.delivering: Optional[Message] = None
        # Failure-recovery epoch machinery: frames from declared-dead
        # peers are discarded, and (when stamping is enabled) frames
        # carrying an epoch below a peer's floor are late packets from a
        # dead epoch and are likewise discarded.
        self.epoch = 0
        self.stamp_epoch = False
        self.dead_peers: set = set()
        self._min_epoch: Dict[int, int] = {}
        self._handlers: Dict[str, Handler] = {}
        self._send_seq: Dict[int, int] = {}      # dst -> next seq
        self._recv_next: Dict[int, int] = {}     # src -> next expected seq
        self._reassembly: Dict[int, Dict[int, Message]] = {}
        # ARQ sender state (reliable mode only).
        self._unacked: Dict[int, Dict[int, Message]] = {}   # dst -> seq -> msg
        self._retrans_timer: Dict[int, EventHandle] = {}
        self._retries: Dict[int, int] = {}
        network.attach(node_id, cost_model, self._on_raw)

    # ------------------------------------------------------------------
    # Dispatch registration
    # ------------------------------------------------------------------
    def on(self, msg_type: str, handler: Handler) -> None:
        """Register the handler for one message type."""
        if msg_type in self._handlers:
            raise ValueError(f"handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        msg_type: str,
        payload: Optional[Dict[str, Any]] = None,
        size_bytes: int = 0,
    ) -> Message:
        """Send a typed message; FIFO per destination via sequence numbers.

        A plain frame (no filter holds it, no ARQ, no epoch stamp, no
        dead peer) is sequenced here and handed straight to the network;
        everything else goes through :meth:`send_frame`."""
        msg = Message(msg_type, self.node_id, dst,
                      dict(payload) if payload else {}, size_bytes)
        held = False
        for fn in self.hooks.outbound:
            if fn(msg):
                held = True
        if held:
            return msg
        if self.reliable or self.stamp_epoch or self.dead_peers:
            self.send_frame(msg)
            return msg
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        msg.payload["__seq__"] = seq
        self.network.send(msg)      # a detached peer raises
        return msg

    def send_frame(self, msg: Message) -> None:
        """Sequence a frame and put it on the link, past the outbound
        filters: the path of a frame a filter held back, of the ARQ and
        epoch-stamped modes, and of any frame once a peer died."""
        dst = msg.dst
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        msg.payload["__seq__"] = seq
        if self.stamp_epoch:
            msg.payload["__epoch__"] = self.epoch
        if dst in self.dead_peers:
            # Declared dead by recovery: don't buffer, don't retransmit.
            self.stats.to_dead_dropped += 1
            return
        if not self.reliable:
            self.network.send(msg)      # a detached peer raises
            return
        if dst != self.node_id:
            # Buffer until cumulatively acked; loopback cannot be lost.
            self._unacked.setdefault(dst, {})[seq] = msg
            self._ensure_timer(dst)
        # A detached peer's buffered copy is dropped by the give-up path.
        self._net_send(msg)

    def _net_send(self, msg: Message) -> bool:
        """Reliable mode's hand-over to the network: a detached peer is
        tolerated (sockets see a reset, not an exception storm)."""
        try:
            self.network.send(msg)
            return True
        except KeyError:
            self.stats.to_dead_dropped += 1
            return False

    # ------------------------------------------------------------------
    # ARQ sender side
    # ------------------------------------------------------------------
    def _ensure_timer(self, dst: int) -> None:
        timer = self._retrans_timer.get(dst)
        if timer is not None and not timer.cancelled:
            return
        self._retrans_timer[dst] = self.network.engine.schedule(
            self.rto_ns, partial(self._on_rto, dst))

    def _on_rto(self, dst: int) -> None:
        self._retrans_timer.pop(dst, None)
        pending = self._unacked.get(dst)
        if not pending:
            self._retries.pop(dst, None)
            return
        retries = self._retries.get(dst, 0) + 1
        self._retries[dst] = retries
        if retries > self.max_retries:
            # Peer presumed gone: abandon, do not wedge the event loop.
            self.stats.gave_up += len(pending)
            pending.clear()
            self._retries.pop(dst, None)
            self._report_unreachable(dst)
            return
        for seq in sorted(pending):      # go-back-N, in order
            self.stats.retransmissions += 1
            if not self._net_send(pending[seq]):
                # Peer detached: everything else would fail too.
                self.stats.gave_up += len(pending)
                pending.clear()
                self._retries.pop(dst, None)
                self._report_unreachable(dst)
                return
        self._ensure_timer(dst)

    def _report_unreachable(self, dst: int) -> None:
        """Surface an ARQ give-up to the runtime (at most once per peer)."""
        self.stats.unreachable_events += 1
        if self.on_peer_unreachable is None:
            return
        if dst in self._unreachable_reported:
            return
        self._unreachable_reported.add(dst)
        self.on_peer_unreachable(dst)

    def _on_ack(self, msg: Message) -> None:
        nxt = msg.payload["next"]
        pending = self._unacked.get(msg.src)
        if not pending:
            return
        acked = [seq for seq in pending if seq < nxt]
        for seq in acked:
            del pending[seq]
        if acked:
            self._retries.pop(msg.src, None)     # progress: reset backoff
        if not pending:
            timer = self._retrans_timer.pop(msg.src, None)
            if timer is not None:
                timer.cancel()

    def _send_ack(self, dst: int) -> None:
        self.stats.acks_sent += 1
        self._net_send(Message(
            ACK_TYPE, self.node_id, dst, {"next": self._recv_next[dst]},
            _ACK_BYTES))

    # ------------------------------------------------------------------
    # Failure epochs
    # ------------------------------------------------------------------
    def mark_dead(self, peer: int) -> None:
        """Declare a peer dead: abandon its unacked frames, stop its
        retransmission timer, and discard anything it still has in
        flight.  Bumps this endpoint's epoch so post-recovery traffic is
        distinguishable from dead-epoch stragglers."""
        self.dead_peers.add(peer)
        self._unreachable_reported.discard(peer)
        pending = self._unacked.pop(peer, None)
        if pending:
            self.stats.gave_up += len(pending)
        timer = self._retrans_timer.pop(peer, None)
        if timer is not None:
            timer.cancel()
        self._retries.pop(peer, None)
        self._reassembly.pop(peer, None)
        self.epoch += 1

    def quarantine_epoch(self, peer: int, min_epoch: int) -> None:
        """Discard frames from ``peer`` stamped below ``min_epoch``."""
        self._min_epoch[peer] = min_epoch

    def _stale(self, msg: Message) -> bool:
        if msg.src in self.dead_peers:
            return True
        floor = self._min_epoch.get(msg.src)
        return floor is not None and msg.payload.get("__epoch__", 0) < floor

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_raw(self, msg: Message) -> None:
        # No peer died and no epoch is quarantined: nothing can be stale.
        if (self.dead_peers or self._min_epoch) and self._stale(msg):
            self.stats.stale_dropped += 1
            return
        if msg.msg_type == ACK_TYPE:
            self._on_ack(msg)
            return
        seq = msg.payload.get("__seq__")
        if seq is None:
            self._dispatch(msg)
            return
        src = msg.src
        expected = self._recv_next.get(src, 0)
        if seq == expected:
            self._recv_next[src] = expected + 1
            handler = self._handlers.get(msg.msg_type)
            if handler is None or self.hooks.deliver:
                self._dispatch(msg)
            else:
                # ``_dispatch`` inline: the in-order frame nothing taps.
                outer, self.delivering = self.delivering, msg
                try:
                    handler(msg)
                finally:
                    self.delivering = outer
            # Drain any buffered successors.
            buf = self._reassembly.get(src)
            while buf:
                nxt = self._recv_next[src]
                queued = buf.pop(nxt, None)
                if queued is None:
                    break
                self._recv_next[src] = nxt + 1
                self._dispatch(queued)
            if self.reliable and src != self.node_id:
                self._send_ack(src)
        elif seq > expected:
            self._reassembly.setdefault(src, {})[seq] = msg
        elif self.reliable:
            # Duplicate (retransmission or injected dup): drop silently,
            # but re-ack so the sender stops retransmitting.
            self.stats.dup_dropped += 1
            if src != self.node_id:
                self._send_ack(src)
        # seq < expected without reliability would be a duplicate; the
        # plain simulated net never duplicates, so treat it as a bug.
        else:
            raise RuntimeError(
                f"duplicate delivery: {msg} (seq {seq} < expected {expected})"
            )

    def deliver_inner(self, outer: Message, frames) -> None:
        """Dispatch the logical sub-frames of an aggregate message.

        The outer frame already went through sequencing / ARQ / epoch
        checks, so the inner messages are delivered directly to the
        registered handlers: no ``__seq__`` is assigned (FIFO order is
        inherited from the outer frame) and each inner message keeps the
        explicit size it was billed at by the aggregator.
        """
        for msg_type, payload, size in frames:
            inner = Message(
                msg_type=msg_type,
                src=outer.src,
                dst=outer.dst,
                payload=dict(payload),
                size_bytes=max(1, int(size)),
            )
            self._dispatch(inner)

    def _dispatch(self, msg: Message) -> None:
        """Run a frame's handler past the deliver taps (an in-order,
        untapped frame is dispatched inline by :meth:`_on_raw`)."""
        handler = self._handlers.get(msg.msg_type)
        if handler is None:
            raise RuntimeError(
                f"node {self.node_id}: no handler for message type "
                f"{msg.msg_type!r}"
            )
        outer, self.delivering = self.delivering, msg
        try:
            for fn in self.hooks.deliver:
                fn(msg)
            handler(msg)
        finally:
            self.delivering = outer

    # ------------------------------------------------------------------
    def quiesced(self) -> bool:
        """True when no frames await ack and no gaps await reassembly."""
        return (
            not any(self._unacked.get(d) for d in self._unacked)
            and not any(self._reassembly.get(s) for s in self._reassembly)
        )

    def close(self) -> None:
        """Detach this endpoint from the network."""
        for timer in self._retrans_timer.values():
            timer.cancel()
        self._retrans_timer.clear()
        self.network.detach(self.node_id)
