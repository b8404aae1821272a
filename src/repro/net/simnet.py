"""Simulated IP network.

Models the paper's testbed interconnect (100 Mbit Ethernet between
workstations) as point-to-point delivery with

    one-way latency = (fixed(src) + fixed(dst)) / 2  +  size * per_byte

where the fixed term and per-byte term come from the endpoints' JVM-brand
cost models (the paper's Table 3 shows the communication stack cost differs
between JVM brands).  The per-byte term of a transfer is the slower of the
two endpoints'.

Delivery is reliable.  By default it is also FIFO per directed link; a
seeded jitter mode can reorder raw deliveries to exercise the transport
layer's sequence-number reassembly (failure-injection tests).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Dict, Optional, Tuple

from ..sim.cost_model import COMM_FIXED_NS, COMM_PER_BYTE_NS, CostModel
from ..sim.engine import EventHandle, SimEngine
from ..sim.rng import PCG64
from .message import Message
from .stats import NetStats

Handler = Callable[[Message], None]


class SimNetwork:
    """Point-to-point simulated network between registered endpoints."""

    def __init__(
        self,
        engine: SimEngine,
        jitter_ns: int = 0,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.stats = NetStats()
        self._handlers: Dict[int, Handler] = {}
        self._cost_models: Dict[int, CostModel] = {}
        # (src, dst) -> (fixed, per_byte): a link's two terms depend on
        # its endpoints' brands only, so they are worked out once per
        # link and dropped whenever an endpoint attaches or detaches.
        self._link_cost: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._jitter_ns = jitter_ns
        self._rng = PCG64(seed) if jitter_ns else None
        # Frames accepted but not yet delivered (or dropped), per type.
        # Recovery uses this to wait out in-flight lock tokens before
        # deciding a token was lost with a dead node.
        self._in_flight: Dict[str, int] = {}

    def in_flight(self, msg_type: str) -> int:
        """Number of frames of one type currently on the wire."""
        return self._in_flight.get(msg_type, 0)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, node_id: int, cost_model: CostModel, handler: Handler) -> None:
        """Attach an endpoint: its brand cost model and delivery callback."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already attached")
        self._handlers[node_id] = handler
        self._cost_models[node_id] = cost_model
        self._link_cost.clear()

    def detach(self, node_id: int) -> None:
        """Remove an endpoint; in-flight messages to it are dropped."""
        self._handlers.pop(node_id, None)
        self._cost_models.pop(node_id, None)
        self._link_cost.clear()

    def is_attached(self, node_id: int) -> bool:
        """True while the endpoint is registered with the network."""
        return node_id in self._handlers

    @property
    def node_ids(self) -> list[int]:
        """The attached endpoints, sorted."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def latency_ns(self, src: int, dst: int, size_bytes: int) -> int:
        """One-way latency for a message of the given size."""
        link = self._link_cost.get((src, dst)) or self._link(src, dst)
        return link[0] + size_bytes * link[1]

    def _link(self, src: int, dst: int) -> Tuple[int, int]:
        """Work out and cache a link's ``(fixed, per_byte)`` terms."""
        cm_src = self._cost_models[src]
        cm_dst = self._cost_models[dst]
        link = self._link_cost[(src, dst)] = (
            (cm_src[COMM_FIXED_NS] + cm_dst[COMM_FIXED_NS]) // 2,
            max(cm_src[COMM_PER_BYTE_NS], cm_dst[COMM_PER_BYTE_NS]))
        return link

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Send a message; the destination handler fires after the modelled
        latency.  Same-node sends are delivered with a minimal loopback
        delay (still asynchronously, to keep handler re-entrancy simple).

        Accounting (the :meth:`NetStats.record` tuples), the link cost,
        the in-flight count and the delivery event are all worked out
        here, in one frame: this runs once per message.
        """
        src, dst, msg_type = msg.src, msg.dst, msg.msg_type
        # A cached link means both ends are attached: attach and detach
        # drop the cache.
        link = self._link_cost.get((src, dst))
        if link is None:
            if dst not in self._handlers:
                raise KeyError(f"no endpoint attached for node {dst}")
            if src not in self._cost_models:
                raise KeyError(f"no endpoint attached for node {src}")
            link = self._link(src, dst)
        size = msg.size_bytes
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        by = stats.by_type
        n, b = by.get(msg_type, (0, 0))
        by[msg_type] = (n + 1, b + size)
        by = stats.by_link
        n, b = by.get((src, dst), (0, 0))
        by[(src, dst)] = (n + 1, b + size)
        in_flight = self._in_flight
        in_flight[msg_type] = in_flight.get(msg_type, 0) + 1
        if src == dst:
            delay = 500  # loopback
        else:
            delay = link[0] + size * link[1]
            if self._jitter_ns:
                delay += self._rng.integers(0, self._jitter_ns)
        # ``engine.schedule``, inline: the delay is never negative.
        engine = self.engine
        heappush(engine._heap, EventHandle(
            (engine._now + delay, engine._seq, partial(self._deliver, msg))))
        engine._seq += 1

    def _deliver(self, msg: Message) -> None:
        msg_type = msg.msg_type
        left = self._in_flight[msg_type] - 1
        if left:
            self._in_flight[msg_type] = left
        else:
            del self._in_flight[msg_type]
        handler = self._handlers.get(msg.dst)
        if handler is None:
            # Endpoint detached while the message was in flight: drop it,
            # but keep the accounting consistent (the wire carried it).
            self.stats.dropped += 1
            return
        handler(msg)

    # The simulated network delivers the very object that was sent.  A
    # real transport plane (``repro.net.procnet``) overrides ``send`` to
    # push each accepted frame onto actual sockets and ``_deliver`` to
    # hand over the wire-decoded copy, and has this to shut down.
    def stop(self) -> Optional[dict]:
        """Shut down the physical plane, returning its summary.  The
        simulated network has none; the proc backend overrides this."""
        return None
