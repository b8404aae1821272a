"""Per-object DSM headers.

The paper's rewriter augments the top of each instrumented inheritance
tree with synthetic fields — ``__javasplit__state``,
``__javasplit__version``, ``__javasplit__locking_status``,
``__javasplit__global_id`` (Figure 2).  Our heap objects carry the same
information in a ``header`` slot (see :mod:`repro.heap` for why this
is equivalent); the access-check fast path reads ``header.state``.

States:

* ``LOCAL`` — never escaped its creating thread/node; not registered
  with the DSM.  Checks fall through; locking uses the §4.4 counter.
* ``HOME`` — this replica *is* the master copy (the node is the
  object's home).  Always valid.
* ``VALID`` — cached copy consistent with the required version.
* ``INVALID`` — cached copy invalidated by a write notice (or a fresh
  stub); the next access faults and fetches from home.

What the protocol keeps coherent is a *coherency unit*: a whole object,
or — under the §4.3 extension — one fixed-size region of a big array.
Either way its bookkeeping is one :class:`Unit` record (state, version,
twin).  A whole object's record is its :class:`DSMHeader`; a split
array's header only says "present" and its regions carry one record
each.  On the wire and in every table a unit is named by its *key*:
the gid, or ``(gid, region)``.
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Tuple


class ObjState(enum.IntEnum):
    LOCAL = 0
    HOME = 1
    VALID = 2
    INVALID = 3


class Unit:
    """Bookkeeping of one coherency unit: Figure 2's state and version
    fields plus the multiple-writer twin."""

    __slots__ = ("state", "version", "twin")

    def __init__(self, state: ObjState, version: int) -> None:
        self.state = state
        self.version = version           # scalar timestamp of this replica
        self.twin: Any = None            # pre-write copy (multiple-writer)


def unit_key(gid: int, region: Optional[int] = None) -> Any:
    """The key naming a coherency unit: the gid of a whole object, or
    ``(gid, region)`` for one region of a split array."""
    return gid if region is None else (gid, region)


def split_key(key: Any) -> Tuple[int, Optional[int]]:
    """``(gid, region)`` of a unit key (region None: a whole object)."""
    return key if isinstance(key, tuple) else (key, None)


class RegionInfo:
    """Per-node bookkeeping of one split array (§4.3 extension): the
    region size and one :class:`Unit` record per region."""

    __slots__ = ("elems", "units")

    def __init__(self, total_len: int, elems: int, state: ObjState,
                 version: int) -> None:
        self.elems = elems
        self.units = [Unit(state, version)
                      for _ in range((total_len + elems - 1) // elems)]

    def bounds(self, region: int, total_len: int) -> Tuple[int, int]:
        """Element range [lo, hi) of one region."""
        lo = region * self.elems
        return lo, min(lo + self.elems, total_len)

    def region_of(self, index: int) -> Optional[int]:
        """Region holding an element index; None when out of bounds."""
        region = index // self.elems
        return region if 0 <= region < len(self.units) else None


class DSMHeader(Unit):
    """DSM bookkeeping attached to every heap object in rewritten code;
    doubles as the :class:`Unit` record of a whole-object unit."""

    __slots__ = ("gid", "lock_count", "lock_owner", "class_name", "race")

    def __init__(self, class_name: str) -> None:
        # The Unit fields are set here rather than through super(): this
        # runs once per allocation.
        self.state = ObjState.LOCAL
        self.gid = 0                     # 0 = no global id yet (local)
        self.version = 0                 # scalar timestamp of this replica
        self.twin: Any = None            # pre-write copy (multiple-writer)
        # §4.4 local-object lock counter + owning thread.
        self.lock_count = 0
        self.lock_owner: Any = None
        self.class_name = class_name
        # Race-detector state for LOCAL objects (repro.race); None unless
        # the detector is enabled and the object has been observed.
        self.race: Any = None

    @property
    def is_local(self) -> bool:
        return self.state == ObjState.LOCAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DSMHeader({self.class_name}, {self.state.name}, gid={self.gid:#x},"
            f" v={self.version})"
        )


def attach_header(obj: Any) -> DSMHeader:
    """Attach (or return the existing) DSM header of a heap object."""
    hdr = obj.header
    if hdr is None:
        hdr = DSMHeader(obj.class_name)
        obj.header = hdr
    return hdr
