"""Timestamps: scalar versions and vector clocks.

MTS-HLRC's scalability refinement (§3.1) replaces per-coherency-unit
*vector* timestamps with *scalar* ones — a single integer per object —
at the cost of fencing lock transfers on diff propagation.  Both forms
live here:

* scalar timestamps are plain ints (the home's per-object version
  counter); their wire size is :data:`SCALAR_TIMESTAMP_BYTES`;
* :class:`VectorClock` is the sparse per-thread vector used by the
  baseline HLRC mode and by the per-thread interval bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

SCALAR_TIMESTAMP_BYTES = 4
# One vector entry = (thread/node id, interval counter).
VECTOR_ENTRY_BYTES = 8


class VectorClock:
    """A sparse vector clock: missing entries are zero."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Dict[int, int] | None = None) -> None:
        self._entries: Dict[int, int] = dict(entries or {})

    def get(self, tid: int) -> int:
        return self._entries.get(tid, 0)

    def tick(self, tid: int) -> int:
        """Advance one component; returns the new value."""
        value = self._entries.get(tid, 0) + 1
        self._entries[tid] = value
        return value

    def set(self, tid: int, value: int) -> None:
        if value < self._entries.get(tid, 0):
            raise ValueError("vector clock components never decrease")
        self._entries[tid] = value

    def merge(self, other: "VectorClock") -> None:
        """Pointwise max, in place."""
        for tid, value in other._entries.items():
            if value > self._entries.get(tid, 0):
                self._entries[tid] = value

    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other pointwise."""
        return all(
            self._entries.get(tid, 0) >= value
            for tid, value in other._entries.items()
        )

    def copy(self) -> "VectorClock":
        return VectorClock(self._entries)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def wire_size(self) -> int:
        """Bytes this clock occupies in a message (4B count + entries)."""
        return 4 + VECTOR_ENTRY_BYTES * len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        a = {k: v for k, v in self._entries.items() if v}
        b = {k: v for k, v in other._entries.items() if v}
        return a == b

    def __hash__(self):  # pragma: no cover - clocks are mutable
        raise TypeError("VectorClock is unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in self.items())
        return f"VC({inner})"
