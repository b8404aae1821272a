"""Owner-managed distributed lock queues (§3.2).

Unlike the classic distributed-queue algorithm, JavaSplit keeps each
lock's request queue *at the current owner* and ships it together with
the ownership token.  The home node of the associated object acts only as
a request router (it forwards requests to whoever it believes owns the
lock).  Because the owner holds both the request queue and the wait
queue, Java's ``wait``/``notify``/``notifyAll`` are communication-free,
and the queue can be ordered by thread priority.

This module is pure data structure + policy; the message choreography
lives in :mod:`repro.dsm.protocol`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


#: Bytes one queued request occupies in a token message: node, thread
#: id, priority, seq, restore count.
LOCK_REQUEST_BYTES = 4 + 8 + 1 + 4 + 2


@dataclass
class LockRequest:
    """One queued acquire (or parked waiter)."""

    node: int
    thread_id: int
    priority: int = 5
    seq: int = 0              # FIFO tiebreak within a priority level
    restore_count: int = 1    # re-entrancy depth to restore on grant
    # Causal span id of the acquire chain (None unless a tracer stamps
    # one); travels with the request and is billed by whoever stamped
    # it, so LOCK_REQUEST_BYTES stays the bare-protocol figure.
    obs_span: Optional[int] = None

    def wire(self) -> Tuple[Any, ...]:
        """Field tuple shipped inside a token (``LockRequest(*wire)``);
        the span id is the 6th element only when one was stamped."""
        fields = (self.node, self.thread_id, self.priority, self.seq,
                  self.restore_count)
        return fields if self.obs_span is None else fields + (self.obs_span,)

    def sort_key(self) -> Tuple[int, int]:
        """Ordering key: higher priority first, FIFO within."""
        return (-self.priority, self.seq)


class LockToken:
    """The migrating lock state: ownership + queues + notice snapshot.

    ``seen_notices`` remembers, *per receiving node*, which write
    notices this lock has already delivered there, so each transfer
    ships only the delta that node is missing.  (A single shared
    snapshot would be wrong: the token may carry a notice past node A to
    node B, and A still needs it on the token's next visit.)
    """

    __slots__ = ("gid", "queue", "waitq", "seen_notices", "_seq")

    def __init__(self, gid: int) -> None:
        self.gid = gid
        self.queue: List[LockRequest] = []
        self.waitq: List[LockRequest] = []
        # node_id -> {notice key -> version} delivered to that node
        self.seen_notices: Dict[int, Dict[Any, int]] = {}
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    def enqueue(self, req: LockRequest) -> None:
        """Insert by priority (high first), FIFO within a priority.

        A request from a (node, thread) already queued or parked is
        dropped: normal operation never produces one, but failure
        recovery re-issues requests for blocked threads whose original
        record may in fact have survived on a live token."""
        if self.holds_request(req.node, req.thread_id):
            return
        req.seq = next(self._seq)
        self.queue.append(req)
        self.queue.sort(key=LockRequest.sort_key)

    def holds_request(self, node: int, thread_id: int) -> bool:
        """True if this (node, thread) is already queued or parked."""
        return any(
            r.node == node and r.thread_id == thread_id
            for r in itertools.chain(self.queue, self.waitq)
        )

    def pop_next(self) -> Optional[LockRequest]:
        """Remove and return the next grantee, or None."""
        if not self.queue:
            return None
        return self.queue.pop(0)

    def peek_next(self) -> Optional[LockRequest]:
        """The next grantee without removing it."""
        return self.queue[0] if self.queue else None

    # ------------------------------------------------------------------
    # wait/notify — entirely local to the owner (§3.2)
    # ------------------------------------------------------------------
    def park_waiter(self, req: LockRequest) -> None:
        """Move a thread into the wait queue (Object.wait)."""
        self.waitq = [
            r for r in self.waitq
            if not (r.node == req.node and r.thread_id == req.thread_id)
        ]
        self.waitq.append(req)

    def notify_one(self) -> bool:
        """Move the longest-waiting waiter to the request queue."""
        if not self.waitq:
            return False
        self.enqueue(self.waitq.pop(0))
        return True

    def notify_all(self) -> int:
        n = len(self.waitq)
        while self.waitq:
            self.enqueue(self.waitq.pop(0))
        return n

    # ------------------------------------------------------------------
    def wire_size(self) -> int:
        """Bytes the token occupies when shipped with ownership."""
        size = 8 + 4 + 4  # gid + queue lengths
        size += LOCK_REQUEST_BYTES * (len(self.queue) + len(self.waitq))
        for seen in self.seen_notices.values():
            size += 4 + 12 * len(seen)
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LockToken(gid={self.gid:#x}, queue={len(self.queue)}, "
            f"waiters={len(self.waitq)})"
        )


class NodeLockState:
    """One node's view of one shared object's lock."""

    __slots__ = ("gid", "token", "holder_tid", "count", "transit",
                 "last_sent_to")

    def __init__(self, gid: int) -> None:
        self.gid = gid
        self.token: Optional[LockToken] = None
        self.holder_tid: Optional[int] = None
        self.count = 0
        # True while the token is committed to another node (possibly
        # still waiting on the diff fence) — local acquires must queue.
        self.transit = False
        # Where the token went, for forwarding late LOCK_FWDs.
        self.last_sent_to: Optional[int] = None

    @property
    def held(self) -> bool:
        """True while some thread owns the lock on this node."""
        return self.holder_tid is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeLockState(gid={self.gid:#x}, token={self.token is not None},"
            f" holder={self.holder_tid}, count={self.count}, "
            f"transit={self.transit})"
        )
