"""Write-notice maintenance.

A write notice records "coherency unit G was modified; you need at least
version V".  HLRC keeps every notice a node has ever seen, which grows
without bound unless globally collected; MTS-HLRC's refinement (§3.1)
keeps only the most recent notice per coherency unit, bounding storage
by the number of live shared objects and eliminating the global
collection requirement.

:class:`NoticeTable` is MTS-HLRC's table.  It also counts what an
unbounded HLRC log would hold had it seen the same notices (``logged``,
``logged_bytes``), so ablation A2 reads both storage policies off one
run.  The HLRC baseline's per-writer table lives in :mod:`.hlrc`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple

GID_BYTES = 8
NOTICE_BYTES = GID_BYTES + 4
#: A notice that names its writer carries the writer's node id too.
WRITER_BYTES = 4


class Notice(NamedTuple):
    """One write notice: unit ``gid`` reached ``version``.  ``writer`` is
    -1 under MTS-HLRC; the HLRC baseline names the writing node and
    counts ``version`` in that writer's intervals.  A tuple: one is
    built per notice a token carries or a master publishes."""

    gid: Any
    version: int
    writer: int = -1

    def wire_size(self) -> int:
        """Bytes this notice occupies in a message."""
        return NOTICE_BYTES if self.writer < 0 else NOTICE_BYTES + WRITER_BYTES


class NoticeTable:
    """Per-node write-notice store: the latest version per unit."""

    def __init__(self) -> None:
        self._latest: Dict[Any, int] = {}
        # What an uncollected HLRC log of the same notices would hold.
        self.logged = 0
        self.logged_bytes = 0

    # ------------------------------------------------------------------
    def add(self, notice: Notice) -> bool:
        """Merge a notice; returns True if it advanced the table."""
        self.logged += 1
        # ``notice.wire_size()``, inline.
        self.logged_bytes += NOTICE_BYTES if notice.writer < 0 \
            else NOTICE_BYTES + WRITER_BYTES
        if notice.version > self._latest.get(notice.gid, 0):
            self._latest[notice.gid] = notice.version
            return True
        return False

    def add_all(self, notices: Iterable[Notice]) -> List[Notice]:
        """Merge many; returns those that advanced the table (i.e. that
        require invalidations)."""
        return [n for n in notices if self.add(n)]

    def required_scalar(self, gid: Any) -> int:
        """Scalar version required for a coherency unit."""
        return self._latest.get(gid, 0)

    def delta_since(self, seen: Dict[Any, int]) -> List[Notice]:
        """Notices newer than the ``seen`` snapshot.

        ``seen`` is updated in place (it travels with the lock token, so
        the next releaser only sends what this acquirer hasn't got)."""
        delta = []
        for gid, version in self._latest.items():
            if version > seen.get(gid, 0):
                delta.append(Notice(gid, version))
                seen[gid] = version
        return delta

    # ------------------------------------------------------------------
    # A2 ablation instrumentation
    # ------------------------------------------------------------------
    @property
    def stored_notices(self) -> int:
        """How many notices this node currently stores (A2 metric)."""
        return len(self._latest)

    def storage_bytes(self) -> int:
        """Bytes of stored notices (A2 metric)."""
        return len(self._latest) * NOTICE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NoticeTable(stored={len(self._latest)}, "
                f"logged={self.logged})")
