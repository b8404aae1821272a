"""Typed network messages with wire-size accounting.

The paper's DSM exchanges messages "ranging from several bytes to several
thousands bytes" over standard Java sockets.  Communication cost in our
simulation is driven by message size, so every message carries an explicit
``size_bytes``; payloads that are real byte strings (serialized objects,
diffs) are accounted exactly, other payload fields are estimated with
:func:`estimate_size`, which looks a value's exact type up in one table
(``_SIZE_OF``) and walks the same table by ``isinstance`` for the rest.
:class:`Message` is a slotted plain class: one is built per send.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

# Fixed framing overhead per message: type tag, src/dst, length, seqno.
HEADER_BYTES = 40

# ---------------------------------------------------------------------------
# Canonical message-type registry.  Every frame that can cross the wire
# has its type named here so the wire codec (``net/wire.py``) and its
# round-trip tests can enumerate the full protocol surface.  Subsystem
# modules re-export the constants they own.
# ---------------------------------------------------------------------------

# Core MTS-HLRC coherence protocol (``repro.dsm.protocol``).
M_FETCH_REQ = "dsm.fetch_req"
M_FETCH_REPLY = "dsm.fetch_reply"
M_DIFF = "dsm.diff"
M_DIFF_ACK = "dsm.diff_ack"
M_LOCK_REQ = "dsm.lock_req"
M_LOCK_FWD = "dsm.lock_fwd"
M_TOKEN = "dsm.token"
M_OWNER_UPDATE = "dsm.owner_update"
M_SPAWN = "dsm.spawn"
M_CONSOLE = "dsm.console"

# Transport-level cumulative ack (ARQ reliable mode; never seq-numbered).
M_TRANSPORT_ACK = "transport.ack"

# Fault-tolerance subsystem (``repro.ft``): heartbeats, buddy
# replication, and the recovery-time diff redirect + notice burst.
M_FT_PING = "ft.ping"
M_FT_SUSPECT = "ft.suspect"
M_FT_REPL = "ft.repl"
M_FT_NOTICES = "ft.notices"
M_FT_REDIFF = "ft.rediff"
M_FT_REDIFF_ACK = "ft.rediff_ack"

# Adaptive-locality subsystem message types (``repro.locality``).  They
# live here — next to the framing constants — because the aggregate
# frame changes how sizes compose: an M_LOC_AGG carries several logical
# sub-frames but pays HEADER_BYTES only once.
M_LOC_HOME_UPDATE = "loc.home_update"   # lazy gid->home redirect gossip
M_LOC_FWD_DIFF = "loc.fwd_diff"         # old home forwards a diff entry
M_LOC_FWD_DIFF_ACK = "loc.fwd_diff_ack"  # new home acks a forwarded diff
M_LOC_BULK_FETCH = "loc.bulk_fetch"     # prefetcher: batched fetch request
M_LOC_BULK_REPLY = "loc.bulk_reply"     # prefetcher: batched unit reply
M_LOC_AGG = "loc.agg"                   # aggregator: coalesced frame

# Adaptive coherence policies (``repro.policy``): per-unit protocol
# switching driven by the locality profiler's sharing-pattern
# classifier.  The push carries a fresh full copy of one unit from its
# home to a stable reader (write-update policy); the broadcast is the
# same copy fanned out to every live node (read-mostly policy).  The
# migratory policy adds no type of its own — its ownership grant rides
# the existing lock token (``pol_grant`` payload field on M_TOKEN).
M_POL_PUSH = "pol.push"
M_POL_BCAST = "pol.bcast"

# Race-detection subsystem (``repro.race``): standalone access-event
# batch shipped to a unit's home at a release point when no diff to that
# home could carry it as a piggyback.
M_RACE_SYNC = "race.sync"

# Telemetry subsystem (``repro.obs``): payload key carrying the causal
# span id of the protocol transaction a message belongs to.  Only ever
# present when ``RuntimeConfig.obs_spans`` is on; locality forwarding
# preserves it (it is not a transport-owned field, cf. ``_strip``).
OBS_SPAN_KEY = "__obs_span__"

#: Every message type that can appear on the wire, for exhaustive
#: codec round-trip coverage (``tests/test_wire.py`` fails if a type is
#: added to the protocol without being registered here).
ALL_MESSAGE_TYPES = (
    M_FETCH_REQ, M_FETCH_REPLY, M_DIFF, M_DIFF_ACK, M_LOCK_REQ,
    M_LOCK_FWD, M_TOKEN, M_OWNER_UPDATE, M_SPAWN, M_CONSOLE,
    M_TRANSPORT_ACK,
    M_FT_PING, M_FT_SUSPECT, M_FT_REPL, M_FT_NOTICES, M_FT_REDIFF,
    M_FT_REDIFF_ACK,
    M_LOC_HOME_UPDATE, M_LOC_FWD_DIFF, M_LOC_FWD_DIFF_ACK,
    M_LOC_BULK_FETCH, M_LOC_BULK_REPLY, M_LOC_AGG,
    M_POL_PUSH, M_POL_BCAST,
    M_RACE_SYNC,
)

_msg_counter = itertools.count()


def _size_bytes(value: bytes) -> int:
    return 4 + len(value)


def _size_str(value: str) -> int:
    return 4 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _size_items(values: Any) -> int:
    # ``estimate_size`` inlined (here and in ``_size_dict``): one Python
    # frame per container, not one per scalar in it.
    total = 4
    for v in values:
        size = _SIZE_OF.get(type(v), _size_by_isinstance)
        total += size if size.__class__ is int else size(v)
    return total


def _size_dict(value: Dict[Any, Any]) -> int:
    # Payload dicts are str-keyed and mostly int-valued: those two are
    # sized here (``_size_str``'s ASCII arm, ``int``'s 8), the rest by
    # the table.
    total = 4
    for k, v in value.items():
        if k.__class__ is str and k.isascii():
            total += 4 + len(k)
        else:
            size = _SIZE_OF.get(type(k), _size_by_isinstance)
            total += size if size.__class__ is int else size(k)
        if v.__class__ is int:
            total += 8
        else:
            size = _SIZE_OF.get(type(v), _size_by_isinstance)
            total += size if size.__class__ is int else size(v)
    return total


def _size_by_isinstance(value: Any) -> int:
    """Sizes of what the exact-type table does not name: subclasses, by
    the first row they are an instance of (an ``IntEnum`` is an int, 8
    bytes), and objects with a ``wire_size()``."""
    for kind, size in _SIZE_OF.items():
        if isinstance(value, kind):
            return size if size.__class__ is int else size(value)
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    raise TypeError(f"cannot estimate wire size of {type(value).__name__}")


#: Exact type -> its size in bytes, or the function that sizes a value
#: of it.  ``bool`` comes before ``int``: it is an int that bills 1.
_SIZE_OF: Dict[type, Any] = {
    type(None): 1, bool: 1, int: 8, float: 8,
    bytes: _size_bytes, str: _size_str,
    list: _size_items, tuple: _size_items,
    set: _size_items, frozenset: _size_items,
    dict: _size_dict,
}


def estimate_size(value: Any) -> int:
    """Estimate the wire size of a payload value, in bytes.

    Integers and floats are billed at 8 bytes (the DSM ships 64-bit global
    ids and doubles), booleans/None at 1, strings and byte strings at their
    encoded length plus a 4-byte length prefix, and containers recursively.
    """
    size = _SIZE_OF.get(type(value), _size_by_isinstance)
    return size if size.__class__ is int else size(value)


class Message:
    """One network message.

    ``payload`` is a dict of named fields; the DSM layers put serialized
    byte strings in it so sizes are exact where it matters.  A
    ``size_bytes`` of 0 means "header plus the estimated payload".
    """

    __slots__ = ("msg_type", "src", "dst", "payload", "size_bytes", "msg_id")

    def __init__(self, msg_type: str, src: int, dst: int,
                 payload: Optional[Dict[str, Any]] = None,
                 size_bytes: int = 0, msg_id: Optional[int] = None) -> None:
        self.msg_type = msg_type
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        if size_bytes <= 0:
            size_bytes = HEADER_BYTES + estimate_size(self.payload)
        self.size_bytes = size_bytes
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.msg_type}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B, id={self.msg_id})"
        )
