"""Flight recorder: bounded rings of recent events, dumped on failure.

Each node keeps, in the master process, a ``deque(maxlen=N)`` of its
last protocol / jit / serve events, every event stamped with both
clocks::

    {"kind": "dsm.fetch", "wall_ns": ..., "sim_ns": ..., **detail}

On SIGKILL detection, oracle/monitor violation, or ``WireError`` the
rings are merged into one JSON postmortem — turning "exitcode ==
-SIGKILL" into an ordered record of what every node was doing when the
run died.  Recording is passive (append to an in-memory deque), and it
happens where the protocol runs: a proc-backend worker keeps no ring,
so nothing crosses its lane and the sim schedule is untouched.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "build_dump",
    "write_dump",
    "validate_flight_dump",
]

#: Schema version stamped into every dump.
FLIGHT_SCHEMA = 2

_dump_seq = 0


class FlightRecorder:
    """Bounded ring of recent events for one node."""

    __slots__ = ("node", "ring")

    def __init__(self, node: int, maxlen: int = 256) -> None:
        self.node = node
        self.ring: Deque[Dict[str, Any]] = deque(maxlen=maxlen)

    def record(self, kind: str, sim_ns: int, **detail: Any) -> None:
        event: Dict[str, Any] = {
            "kind": kind,
            "wall_ns": time.monotonic_ns(),
            "sim_ns": sim_ns,
        }
        if detail:
            event.update(detail)
        self.ring.append(event)

    def snapshot(self) -> List[Dict[str, Any]]:
        return list(self.ring)

    def __len__(self) -> int:
        return len(self.ring)


def build_dump(
    reason: str,
    detail: Optional[Dict[str, Any]],
    nodes: Dict[int, Dict[str, List[Dict[str, Any]]]],
    sim_ns: int,
    backend: str,
) -> Dict[str, Any]:
    """Assemble the postmortem document.

    ``nodes`` maps node id -> {"events": [...]}, that node's ring.
    """
    return {
        "flight": FLIGHT_SCHEMA,
        "reason": reason,
        "detail": detail or {},
        "sim_ns": sim_ns,
        "wall_ns": time.monotonic_ns(),
        "backend": backend,
        "nodes": {
            str(node): {"events": rings.get("events", [])}
            for node, rings in sorted(nodes.items())
        },
    }


def write_dump(doc: Dict[str, Any], directory: str) -> str:
    """Write one dump to ``directory`` and return its path."""
    global _dump_seq
    _dump_seq += 1
    os.makedirs(directory, exist_ok=True)
    name = f"flight-{doc['reason']}-{os.getpid()}-{_dump_seq}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def validate_flight_dump(doc: Dict[str, Any]) -> List[str]:
    """Schema check for a flight dump; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["dump is not an object"]
    if doc.get("flight") != FLIGHT_SCHEMA:
        errors.append(f"bad flight schema version: {doc.get('flight')!r}")
    for key, kind in (("reason", str), ("sim_ns", int), ("wall_ns", int),
                      ("backend", str), ("detail", dict), ("nodes", dict)):
        if not isinstance(doc.get(key), kind):
            errors.append(f"missing or mistyped key {key!r}")
    for node, rings in (doc.get("nodes") or {}).items():
        events = rings.get("events") if isinstance(rings, dict) else None
        if not isinstance(events, list):
            errors.append(f"node {node}: events is not a list")
            continue
        for i, event in enumerate(events):
            if not isinstance(event, dict):
                errors.append(f"node {node}: events[{i}] not an object")
                continue
            for key, kind in (("kind", str), ("wall_ns", int),
                              ("sim_ns", int)):
                if not isinstance(event.get(key), kind):
                    errors.append(f"node {node}: events[{i}] missing {key}")
    return errors
