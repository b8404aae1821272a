"""Heartbeat failure detection.

Every worker pings the coordinator (the master node) every
``HEARTBEAT_NS``; the coordinator's detector declares a worker failed
after ``SUSPECT_BEATS`` consecutive missed beats.  The transport
layer's ARQ give-up path feeds in as an accelerant: a ``peer
unreachable`` report lowers the miss threshold for that peer to
``max(1, SUSPECT_BEATS // 4)``, so a node that stopped acking
retransmissions is confirmed dead faster than silence alone would
allow.

All timers are self-rescheduling simulation events; they stop (letting
``run_until_idle`` quiesce) as soon as the manager observes that no
application thread is live or recoverable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from ..net.message import Message
from .replication import M_FT_PING, M_FT_SUSPECT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.worker import WorkerNode
    from .manager import FtManager

#: Ping payload size on the wire (node id).
PING_BYTES = 4
#: Heartbeat period (every worker pings the master node).
HEARTBEAT_NS = 20_000_000  # 20 ms
#: Consecutive missed heartbeats before a worker is declared failed.
SUSPECT_BEATS = 3


class HeartbeatAgent:
    """Per-node side of failure detection: the periodic ping plus the
    transport's unreachable-peer reports."""

    def __init__(self, manager: "FtManager", worker: "WorkerNode",
                 coordinator: int) -> None:
        self.manager = manager
        self.worker = worker
        self.transport = worker.transport
        self.engine = worker.dsm.engine
        self.node_id = worker.node_id
        self.coordinator = coordinator
        self.transport.on_peer_unreachable = self._on_unreachable

    def start(self) -> None:
        if self.node_id != self.coordinator:
            self.engine.schedule(HEARTBEAT_NS, self._tick)

    def _tick(self) -> None:
        if (self.manager.stopped or self.worker.dead
                or not self.manager.app_active()):
            return
        self.transport.send(self.coordinator, M_FT_PING,
                            {"node": self.node_id}, size_bytes=PING_BYTES)
        self.engine.schedule(HEARTBEAT_NS, self._tick)

    def _on_unreachable(self, dst: int) -> None:
        """ARQ gave up on ``dst``: report the suspicion upward.  (A dead
        node's own reports go nowhere — its sends are swallowed.)"""
        if self.manager.stopped or self.worker.dead:
            return
        if dst == self.coordinator:
            return  # coordinator loss is not survivable; nothing to tell
        if self.node_id == self.coordinator:
            self.manager.detector.suspect(dst)
        else:
            self.transport.send(self.coordinator, M_FT_SUSPECT,
                                {"suspect": dst}, size_bytes=PING_BYTES)


class FailureDetector:
    """Coordinator side: tracks last-seen times, confirms failures."""

    def __init__(self, manager: "FtManager",
                 worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.engine = worker.dsm.engine
        self.node_id = worker.node_id
        self.last_seen: Dict[int, int] = {}
        self.suspected: Set[int] = set()

    def watch(self, node_id: int) -> None:
        """Begin monitoring one worker (counts as just-seen)."""
        if node_id != self.node_id:
            self.last_seen[node_id] = self.engine.now

    def start(self) -> None:
        self.engine.schedule(HEARTBEAT_NS, self._check)

    # ------------------------------------------------------------------
    def on_ping(self, msg: Message) -> None:
        node = msg.payload["node"]
        self.last_seen[node] = self.engine.now
        self.suspected.discard(node)

    def on_suspect(self, msg: Message) -> None:
        self.suspect(msg.payload["suspect"])

    def suspect(self, node: int) -> None:
        """Transport-level suspicion: drop the peer's miss threshold."""
        if node in self.last_seen and node not in self.manager.dead_nodes:
            self.suspected.add(node)

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.manager.stopped:
            return
        if not self.manager.app_active():
            self.manager.stop()
            return
        now = self.engine.now
        for node in sorted(self.last_seen):
            if node in self.manager.dead_nodes:
                continue
            misses = (now - self.last_seen[node]) // HEARTBEAT_NS
            bar = SUSPECT_BEATS
            if node in self.suspected:
                bar = max(1, SUSPECT_BEATS // 4)
            if misses >= bar:
                self.manager.on_failure(node)
        self.engine.schedule(HEARTBEAT_NS, self._check)
