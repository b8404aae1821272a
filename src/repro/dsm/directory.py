"""Global ids, home assignment, and class-id registry.

Each shared object gets a 64-bit global id when it is promoted from
local to shared (§2): the high bits carry the creating node (which
becomes the object's *home* — the node keeping the master copy), the low
bits a per-node counter.  Homes are therefore computable from the gid
with no directory lookups, which is what makes the protocol's "send it
to the home" steps cheap.

Class ids give reference serialization a compact wire form; they are
assigned deterministically from the sorted class-name list at rewrite
time, so every node agrees without negotiation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

NODE_SHIFT = 40
COUNTER_MASK = (1 << NODE_SHIFT) - 1
MAX_NODE_ID = (1 << 23) - 1  # gids stay positive in a signed 64-bit long
#: The node where ``main`` starts, the C_static holders live and console
#: output is collected; also the fault-tolerance coordinator.
MASTER_NODE = 0


class GidAllocator:
    """Per-node allocator of 64-bit global ids."""

    def __init__(self, node_id: int) -> None:
        if not 0 <= node_id <= MAX_NODE_ID:
            raise ValueError(f"node id {node_id} out of range")
        self.node_id = node_id
        self._counter = 0

    def allocate(self) -> int:
        self._counter += 1
        if self._counter > COUNTER_MASK:  # pragma: no cover - 2^40 objects
            raise OverflowError("gid counter exhausted")
        return (self.node_id << NODE_SHIFT) | self._counter

    @property
    def allocated(self) -> int:
        return self._counter


def home_of(gid: int) -> int:
    """The home node encoded in a global id."""
    if gid <= 0:
        raise ValueError(f"not a valid gid: {gid}")
    return gid >> NODE_SHIFT


class HomeDirectory:
    """Per-gid home entries for coherency units whose master moved.

    Plain ``home_of(gid)`` stays the common case (a miss here); an entry
    exists only for units that were re-homed, by a migration grant or a
    failure recovery.  Each entry carries a monotonically increasing
    epoch so news arriving out of order can never roll a mapping back.

    One type, two roles: every engine routes by its own view
    (``DsmEngine.homes``, updated by grants and redirect gossip), and
    the runtime keeps the authoritative copy (``runtime.homes``),
    written wherever a master moves.  Only that copy uses ``in_flight``.
    """

    def __init__(self) -> None:
        # gid -> (home, epoch); ``DsmEngine.home_node`` probes it directly.
        self._entries: Dict[int, Tuple[int, int]] = {}
        # gid -> (granter, grant) for a grant sent but not yet installed:
        # if its grantee dies, the master goes back to the granter.
        self.in_flight: Dict[int, Tuple[int, Dict[str, Any]]] = {}

    def set(self, gid: int, home: int, epoch: int) -> bool:
        """Install an entry; False for stale news: an older epoch, or
        this one naming another node.  The entry already held is news
        to accept again (a grant overtaken by its own redirect gossip)."""
        current = self._entries.get(gid)
        if (current is not None and current[1] >= epoch
                and current != (home, epoch)):
            return False
        self._entries[gid] = (home, epoch)
        return True

    def get(self, gid: int) -> Optional[int]:
        entry = self._entries.get(gid)
        return entry[0] if entry is not None else None

    def home(self, gid: int) -> int:
        """Where the unit's master lives: its entry, else its origin."""
        entry = self._entries.get(gid)
        return home_of(gid) if entry is None else entry[0]

    def epoch(self, gid: int) -> int:
        entry = self._entries.get(gid)
        return entry[1] if entry is not None else 0

    def entry(self, gid: int) -> Optional[Tuple[int, int]]:
        return self._entries.get(gid)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def granted(self, grant: Dict[str, Any], granter: int,
                grantee: int) -> None:
        """A master left ``granter`` for ``grantee``: record the move and
        keep the grant until it is installed (no other grant of the unit
        can be cut meanwhile: the master is in this one)."""
        self.set(grant["gid"], grantee, grant["epoch"])
        self.in_flight[grant["gid"]] = (granter, grant)


class ClassIdRegistry:
    """Deterministic class-name ↔ id mapping shared by all nodes.

    Ids start at 1 (0 is the null-reference class id on the wire)."""

    def __init__(self, class_names: Iterable[str] = ()) -> None:
        self._by_name: Dict[str, int] = {}
        self._by_id: List[str] = [""]  # id 0 reserved
        for name in sorted(set(class_names)):
            self._register(name)

    def _register(self, name: str) -> int:
        if name in self._by_name:
            return self._by_name[name]
        cid = len(self._by_id)
        self._by_id.append(name)
        self._by_name[name] = cid
        return cid

    def class_id_for(self, class_name: str) -> int:
        try:
            return self._by_name[class_name]
        except KeyError:
            raise KeyError(
                f"class {class_name!r} not in the registry; arrays and "
                f"rewritten classes must be registered at rewrite time"
            ) from None

    def class_name_for(self, class_id: int) -> str:
        if not 1 <= class_id < len(self._by_id):
            raise KeyError(f"unknown class id {class_id}")
        return self._by_id[class_id]

    def __len__(self) -> int:
        return len(self._by_id) - 1

    def names(self) -> List[str]:
        return self._by_id[1:]
