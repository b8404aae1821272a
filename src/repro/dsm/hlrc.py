"""The HLRC baseline that MTS-HLRC refines (§3.1), for ablations A1/A2.

:class:`HlrcEngine` overrides :class:`~.protocol.DsmEngine`'s timestamp
steps to undo both refinements:

* a notice names ``(unit, writer, interval)``; a node keeps the latest
  interval per unit *and writer* (:class:`WriterNoticeTable`) and knows
  its own notices when it flushes, not when the home acks;
* so a lock transfer never waits on the fence, and a home may be asked
  for intervals it has not applied yet: a fetch carries the unit's
  per-writer vector and the home defers it until the vector is covered;
* a copy carries the intervals it includes, and a notice makes a replica
  stale only if its copy lacks the notice's interval.

``repro.dsm.engine_class("vector")`` is how a run gets here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..net.message import Message
from .objectstate import ObjState, split_key, unit_key
from .protocol import DsmEngine
from .write_notices import Notice

#: A vector timestamp, sparse: writer node -> interval (missing = 0).
Vector = Dict[int, int]


def advance(vector: Vector, writer: int, interval: int) -> bool:
    """Raise one writer's entry to ``interval``; true if it moved."""
    if interval > vector.get(writer, 0):
        vector[writer] = interval
        return True
    return False


def covers(have: Vector, need: Vector) -> bool:
    """Whether ``have`` includes every interval ``need`` names."""
    return all(have.get(w, 0) >= v for w, v in need.items())


class WriterNoticeTable:
    """HLRC's notices: the latest interval per (unit, writer) — the
    engine's :class:`~.write_notices.NoticeTable` calls, per writer."""

    def __init__(self) -> None:
        self._vectors: Dict[Any, Vector] = {}

    def add(self, notice: Notice) -> bool:
        """Merge a notice; returns True if it advanced the table."""
        return advance(self._vectors.setdefault(notice.gid, {}),
                       notice.writer, notice.version)

    def add_all(self, notices: Iterable[Notice]) -> List[Notice]:
        """Merge many; returns those that advanced the table."""
        return [n for n in notices if self.add(n)]

    def required(self, key: Any) -> Vector:
        """The intervals a copy of ``key`` must include."""
        return dict(self._vectors.get(key, {}))

    def delta_since(self, seen: Dict[Tuple[Any, int], int]) -> List[Notice]:
        """Notices newer than ``seen`` (keyed by unit and writer), which
        is updated in place as with the scalar table."""
        delta = []
        for key, vector in self._vectors.items():
            for writer, interval in vector.items():
                if interval > seen.get((key, writer), 0):
                    delta.append(Notice(key, interval, writer))
                    seen[(key, writer)] = interval
        return delta

    @property
    def stored_notices(self) -> int:
        """How many notices this node stores: one per (unit, writer)."""
        return sum(len(v) for v in self._vectors.values())


class HlrcEngine(DsmEngine):
    """Per-node DSM speaking HLRC: vector timestamps, no fence."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.notice_table = WriterNoticeTable()  # type: ignore[assignment]
        # Home role: the intervals applied to each master, and fetches
        # that name intervals not applied yet.
        self._applied: Dict[Any, Vector] = {}
        self._deferred_fetch: Dict[Any, List[Message]] = {}
        # Cache role: the intervals each replica's copy includes.
        self._replica_vc: Dict[Any, Vector] = {}

    def _fetch_request(self, gid: int, region: Optional[int]) -> Dict[str, Any]:
        """A fetch requires the unit's per-writer vector."""
        required = self.notice_table.required(unit_key(gid, region))
        return {"gid": gid, "region": region, "required": required}

    def _fetch_ready(self, key: Any, unit: Any, msg: Message) -> bool:
        """Serve only a master that has applied every required interval
        (else the table's ``defer`` row: its diff is still on the way)."""
        return covers(self._applied.get(key, {}), msg.payload["required"])

    def _fx_defer(self, event: str, key: Any, unit: Any, msg: Message) -> None:
        """Park a fetch until ``_note_advance`` has the intervals it names."""
        self._deferred_fetch.setdefault(key, []).append(msg)

    def _note_advance(self, key: Any, version: int, writer: int,
                      interval: int) -> None:
        """Record the writer's interval as applied here, and serve the
        deferred fetches it completes."""
        applied = self._applied.setdefault(key, {})
        advance(applied, writer, interval)
        self.notice_table.add(Notice(key, interval, writer))
        gid, region = split_key(key)
        for msg in self._deferred_fetch.pop(key, ()):
            if covers(applied, msg.payload["required"]):
                self._serve_fetch(msg.payload.get("requester", msg.src),
                                  self.cache[gid], region)
            else:
                self._deferred_fetch.setdefault(key, []).append(msg)

    def _note_flush(self, entries: List[Any], interval: int) -> None:
        # No fence: a writer knows its own notices as soon as it flushes.
        for gid, _, region in entries:
            self.notice_table.add(
                Notice(unit_key(gid, region), interval, self.node_id))

    def _note_ack(self, versions: List[Tuple[Any, int]]) -> None:
        """The flush's notices were recorded when it left."""

    def _when_fence_clear(self, action: Callable[[], None]) -> bool:
        action()
        return False

    def ship_unit(self, key: Any) -> Optional[Dict[str, Any]]:
        unit = super().ship_unit(key)
        if unit is not None:
            unit["applied"] = dict(self._applied.get(key, {}))
        return unit

    def _install_unit(self, p: Dict[str, Any], role: ObjState,
                      event: str) -> bool:
        if role != ObjState.HOME:
            self._replica_vc[unit_key(p["gid"], p.get("region"))] = \
                dict(p.get("applied", {}))
        return super()._install_unit(p, role, event)

    def _stale(self, key: Any, unit: Any, notice: Notice) -> bool:
        return self._replica_vc.get(key, {}).get(notice.writer, 0) \
            < notice.version
