"""Protocol event tracing.

Attach a :class:`DsmTracer` to a :class:`JavaSplitRuntime` to record
every DSM protocol event (fetches, diffs, token transfers, spawns, ...)
with simulated timestamps — the tool that found both notice-propagation
bugs during development, promoted to a first-class debugging feature.

Usage::

    rt = JavaSplitRuntime(rewritten, config)
    tracer = DsmTracer.attach(rt)
    rt.run()
    print(tracer.format(limit=50))
    tracer.events_of_type("dsm.token")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .javasplit import JavaSplitRuntime


@dataclass(frozen=True)
class TraceEvent:
    """One recorded protocol event with its simulated timestamp."""
    time_ns: int
    node: int
    kind: str           # message type, or 'promote' / 'invalidate' / ...
    detail: str

    def __str__(self) -> str:
        return f"{self.time_ns / 1e6:10.3f}ms  n{self.node}  {self.kind:<18} {self.detail}"


class DsmTracer:
    """Records protocol activity across all nodes of one runtime."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._limit: Optional[int] = None
        self._engine: Any = None
        # Events refused once the max-events cap was hit: a truncated
        # trace must never read as a quiet run.
        self.dropped = 0

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, runtime: "JavaSplitRuntime",
               max_events: Optional[int] = None) -> "DsmTracer":
        """Subscribe to every worker of a runtime; returns the tracer.

        Idempotent per runtime: a second attach returns the tracer
        already in place (updating its event cap if one is given)
        instead of subscribing twice — that would double-record every
        event."""
        existing = getattr(runtime, "_dsm_tracer", None)
        if existing is not None:
            if max_events is not None:
                existing._limit = max_events
            return existing
        tracer = cls()
        tracer._limit = max_events
        runtime._dsm_tracer = tracer
        tracer._engine = runtime.engine
        for worker in runtime.workers:
            tracer._subscribe(worker)
        runtime.hooks.worker_added.append(tracer._subscribe)
        # Subsystem narration (migrations, promotions, race reports,
        # recovery steps) lands in the same flat event log.
        runtime.hooks.narrate.append(tracer._narrate)
        return tracer

    def _narrate(self, node: int, kind: str, detail: str) -> None:
        self.record(self._engine.now, node, kind, detail)

    def _subscribe(self, worker) -> None:
        node_id = worker.node_id
        engine = self._engine

        def on_outbound(msg: Message) -> bool:
            # Registered last, so the size is the decorated one.
            self.record(engine.now, node_id, msg.msg_type,
                        f"-> n{msg.dst} ({msg.size_bytes}B)")
            return False

        def on_promote(ref, gid) -> None:
            self.record(engine.now, node_id, "promote",
                        f"{ref.class_name} gid={gid:#x}")

        worker.transport.hooks.outbound.append(on_outbound)
        worker.dsm.hooks.promote.append(on_promote)

    # ------------------------------------------------------------------
    def record(self, time_ns: int, node: int, kind: str, detail: str) -> None:
        """Append one event (respecting the max-events limit)."""
        if self._limit is not None and len(self.events) >= self._limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time_ns, node, kind, detail))

    @property
    def truncated(self) -> bool:
        """True when the max-events cap dropped at least one event."""
        return self.dropped > 0

    def events_of_type(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event counts per kind."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def summary(self) -> Dict[str, int]:
        """Event counts by kind, sorted by kind name — the one-line
        answer to "what did the protocol (and the ``locality.*`` /
        ``policy.*`` / ``race.*`` subsystem events) actually do in this
        run?".  When
        the max-events cap dropped events, a ``truncated_dropped`` entry
        carries the drop count so a truncated trace cannot be mistaken
        for a quiet run."""
        out = dict(sorted(self.counts().items()))
        if self.truncated:
            out["truncated_dropped"] = self.dropped
        return out

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Events as JSON-ready dicts (``repro trace --json``)."""
        return [
            {"time_ns": e.time_ns, "node": e.node, "kind": e.kind,
             "detail": e.detail}
            for e in self.events
        ]

    def format(self, limit: Optional[int] = None,
               kind: Optional[str] = None) -> str:
        """Human-readable listing, optionally filtered/limited."""
        events = self.events if kind is None else self.events_of_type(kind)
        if limit is not None:
            events = events[-limit:]
        lines = [str(e) for e in events]
        if self.truncated:
            lines.append(
                f"... trace truncated: {self.dropped} later events "
                f"dropped by the max-events cap")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
