"""Network traffic accounting.

Tracks message and byte counts globally, per message type and per directed
link, so benchmarks can report communication volume alongside time.
``dropped`` counts in-flight messages discarded because the destination
detached before delivery (they are still billed to the totals — the wire
carried them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .message import Message


@dataclass
class NetStats:
    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    by_type: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    by_link: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    # Physical wire plane (``proc`` backend only; all zero under sim).
    # ``wire_bytes`` counts real encoded bytes-on-wire (frame + length
    # prefix), so subsystem overhead stays meaningful against genuine
    # serialization cost rather than the estimate in ``size_bytes``.
    wire_frames: int = 0      # frames encoded by the master
    wire_bytes: int = 0       # encoded bytes (incl. 4B length prefix)
    wire_delivered: int = 0   # copies that physically crossed sockets
    wire_fallback: int = 0    # deliveries decoded from the master copy

    def record(self, msg: Message) -> None:
        """Account one sent message (totals, per type, per link)."""
        size = msg.size_bytes
        self.messages += 1
        self.bytes += size
        n, b = self.by_type.get(msg.msg_type, (0, 0))
        self.by_type[msg.msg_type] = (n + 1, b + size)
        link = (msg.src, msg.dst)
        n, b = self.by_link.get(link, (0, 0))
        self.by_link[link] = (n + 1, b + size)

    def reset(self) -> None:
        """Zero every counter, including the per-type/per-link breakdowns
        (a reset that left those populated would double-count on reuse)."""
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.wire_frames = 0
        self.wire_bytes = 0
        self.wire_delivered = 0
        self.wire_fallback = 0
        self.by_type.clear()
        self.by_link.clear()

    def merge(self, other: "NetStats") -> "NetStats":
        """Accumulate another run's counters into this one (multi-run /
        multi-seed aggregation); returns self for chaining."""
        self.messages += other.messages
        self.bytes += other.bytes
        self.dropped += other.dropped
        self.wire_frames += other.wire_frames
        self.wire_bytes += other.wire_bytes
        self.wire_delivered += other.wire_delivered
        self.wire_fallback += other.wire_fallback
        for mtype, (n, b) in other.by_type.items():
            cn, cb = self.by_type.get(mtype, (0, 0))
            self.by_type[mtype] = (cn + n, cb + b)
        for link, (n, b) in other.by_link.items():
            cn, cb = self.by_link.get(link, (0, 0))
            self.by_link[link] = (cn + n, cb + b)
        return self

    def prefix_totals(self, prefix: str) -> Tuple[int, int]:
        """(messages, bytes) summed over types with the given prefix."""
        n_total, b_total = 0, 0
        for mtype, (n, b) in self.by_type.items():
            if mtype.startswith(prefix):
                n_total += n
                b_total += b
        return n_total, b_total

    def _grouped(self, groups: Dict[str, Tuple[str, ...]]
                 ) -> Dict[str, Tuple[int, int]]:
        out: Dict[str, Tuple[int, int]] = {}
        for name, prefixes in groups.items():
            n_total, b_total = 0, 0
            for prefix in prefixes:
                n, b = self.prefix_totals(prefix)
                n_total += n
                b_total += b
            out[name] = (n_total, b_total)
        return out

    def subsystem_overhead(self) -> Dict[str, Dict[str, Tuple[int, int]]]:
        """Opt-in subsystem traffic grouped by purpose, for benchmark
        tables: the ``ft.*`` (heartbeat / replication / recovery),
        ``loc.*`` (migration / prefetch / aggregation), ``pol.*``
        (write-update pushes / read-mostly broadcasts) and ``race.*``
        (event sync) message families."""
        return {
            "ft": self._grouped({
                "heartbeat": ("ft.ping", "ft.suspect"),
                "replication": ("ft.repl",),
                "recovery": ("ft.rediff", "ft.notices", "ft.thread"),
            }),
            "locality": self._grouped({
                "migration": ("loc.home_update", "loc.fwd_diff"),
                "prefetch": ("loc.bulk_fetch", "loc.bulk_reply"),
                "aggregation": ("loc.agg",),
            }),
            "policy": self._grouped({
                "push": ("pol.push",),
                "broadcast": ("pol.bcast",),
            }),
            "race": self._grouped({
                "sync": ("race.sync",),
            }),
        }

    def summary(self) -> str:
        """Multi-line human-readable totals."""
        lines = [f"total: {self.messages} msgs, {self.bytes} bytes"]
        if self.dropped:
            lines[0] += f" ({self.dropped} dropped in flight)"
        if self.wire_frames:
            lines.append(
                f"  wire: {self.wire_frames} frames, {self.wire_bytes} "
                f"bytes on wire, {self.wire_delivered} delivered, "
                f"{self.wire_fallback} fallback")
        for mtype in sorted(self.by_type):
            n, b = self.by_type[mtype]
            lines.append(f"  {mtype}: {n} msgs, {b} bytes")
        for subsystem, groups in self.subsystem_overhead().items():
            if not any(n for n, _ in groups.values()):
                continue
            lines.append(f"  {subsystem} overhead:")
            for group, (n, b) in groups.items():
                lines.append(f"    {group}: {n} msgs, {b} bytes")
        return "\n".join(lines)
