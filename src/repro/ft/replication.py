"""Buddy replication of home-side coherency state.

Every node mirrors the coherency units it is *home* of (master copies
plus their versions) to a deterministic buddy node — the next live node
in ring order.  Replication piggybacks on the release-time events that
advance home state, so the buddy's replica store satisfies the invariant
recovery depends on:

    a replication frame for version v leaves the home strictly before
    the ack / fetch reply / token that could make any survivor depend
    on v, so by the time a failure is detected (tens of milliseconds
    after the last frame left the dead node) the buddy's store covers
    every version a survivor can possibly have observed.

Every promoted unit and every home-state advance is mirrored as it
happens.  Dirty-master serves are mirrored too: a fetch reply publishes
home content that has not had its version bumped yet, so the buddy needs
the content refresh at the *same* version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from ..dsm.objectstate import split_key, unit_key
from ..net.message import HEADER_BYTES, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.worker import WorkerNode
    from .manager import FtManager

# Message types (canonical registry: ``repro.net.message``).
# M_FT_PING: heartbeat ping, worker -> coordinator (master node).
# M_FT_SUSPECT: transport-level suspicion report, any node -> coordinator.
# M_FT_REPL: replication frame, home -> buddy (serialized unit batch).
# M_FT_NOTICES: recovery, adoptive home broadcasts write notices.
from ..net.message import (M_FT_NOTICES, M_FT_PING,  # noqa: F401
                           M_FT_REPL, M_FT_SUSPECT)


def buddy_of(node_id: int, num_nodes: int, dead: Sequence[int] = ()) -> int:
    """The deterministic replication buddy: next live node in ring order."""
    dead_set = set(dead)
    for step in range(1, num_nodes):
        cand = (node_id + step) % num_nodes
        if cand != node_id and cand not in dead_set:
            return cand
    raise ValueError(f"no live buddy for node {node_id}/{num_nodes}")


def key_of(unit: Dict[str, Any]) -> Any:
    """The coherency-unit key of one serialized replication unit."""
    return unit_key(unit["gid"], unit["region"])


class ReplicaStore:
    """One node's passive copy of its buddy-sources' home state.

    Keyed by origin node, then by coherency-unit key.  ``put`` keeps the
    newest unit per key; a same-version arrival *overwrites* (that is the
    dirty-master-serve case — fresher content, version not yet bumped).
    """

    def __init__(self) -> None:
        self._units: Dict[int, Dict[Any, Dict[str, Any]]] = {}

    def put(self, origin: int, unit: Dict[str, Any]) -> None:
        by_key = self._units.setdefault(origin, {})
        key = key_of(unit)
        existing = by_key.get(key)
        if existing is not None and existing["version"] > unit["version"]:
            return  # stale reordering (cannot happen FIFO, but be safe)
        by_key[key] = unit

    def units_of(self, origin: int) -> List[Dict[str, Any]]:
        """All stored units for one origin, in deterministic key order."""
        by_key = self._units.get(origin, {})
        return [by_key[k] for k in sorted(by_key, key=_key_order)]

    def version_of(self, origin: int, key: Any) -> Optional[int]:
        unit = self._units.get(origin, {}).get(key)
        return None if unit is None else unit["version"]

    def __len__(self) -> int:
        return sum(len(m) for m in self._units.values())


def _key_order(key: Any) -> Tuple[int, int]:
    gid, region = split_key(key)
    return gid, 0 if region is None else region + 1


class FtNodeAgent:
    """Per-node fault-tolerance agent: subscribes to the DSM engine's
    hook points, and owns the buddy-side replica store and FT message
    handlers."""

    def __init__(self, manager: "FtManager", worker: "WorkerNode",
                 buddy: int) -> None:
        self.manager = manager
        self.worker = worker
        self.dsm = worker.dsm
        self.transport = worker.transport
        self.node_id = worker.node_id
        self.buddy = buddy
        self.store = ReplicaStore()
        # gids this agent mirrors (every home gid, from promotion on).
        self._published: Set[int] = set()
        # unit keys adopted from a dead home (this node now serves them).
        self._adopted: Set[Any] = set()
        self._repl_versions: Dict[Any, int] = {}
        self.units_replicated = 0
        self.repl_messages = 0

    # ------------------------------------------------------------------
    # DSM hook subscribers
    # ------------------------------------------------------------------
    def attach(self) -> None:
        hooks = self.dsm.hooks
        hooks.promote.append(self.on_promote)
        hooks.spawn.append(self.on_spawn)
        hooks.thread_begin.append(self.on_thread_begin)
        hooks.home_advance.append(self.on_home_advance)
        hooks.fetch_serve.append(self.on_serve)
        self.transport.stamp_epoch = True
        self.transport.on(M_FT_REPL, self.on_repl_msg)
        self.transport.on(M_FT_NOTICES, self.on_notices_msg)

    def on_promote(self, ref: Any, gid: int) -> None:
        """A local object became shared; this node is its home."""
        self._publish_gid(gid)

    def on_spawn(self, thread: Any, payload: Dict[str, Any],
                 target: int) -> None:
        """A thread object is being shipped."""
        self.manager.record_ship(payload["gid"], payload["class_name"],
                                 payload["priority"], target)

    def on_thread_begin(self, jthread: Any, payload: Dict[str, Any]) -> None:
        self.manager.record_start(payload["gid"], self.node_id, jthread)

    def on_home_advance(self, advanced: Sequence[Tuple[Any, int]],
                        writer: Optional[int] = None) -> None:
        """Home state advanced (local flush or applied diff): mirror the
        new versions before the corresponding ack/notice can leave."""
        units = []
        for key, version in advanced:
            gid = split_key(key)[0]
            if gid not in self._published and key not in self._adopted:
                self._publish_gid(gid)
                continue  # publish covered the current version
            if self._repl_versions.get(key, -1) >= version:
                continue
            unit = self.dsm.ft_serialize_unit(key)
            if unit is not None:
                units.append(unit)
        self._send_units(units)

    def on_serve(self, requester: int, obj: Any, region: Optional[int],
                 bulk: bool) -> None:
        """A fetch is about to be served: replicate dirty master content
        (same version, fresher bytes) BEFORE the reply leaves — anything
        a survivor can have observed must be reconstructible from the
        buddy."""
        key = unit_key(obj.header.gid, region)
        if key in self.dsm._dirty_home:
            unit = self.dsm.ft_serialize_unit(key)
            if unit is not None:
                self._send_units([unit], force=True)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _publish_gid(self, gid: int) -> None:
        """Mirror every coherency unit of one gid (all regions)."""
        self._published.add(gid)
        units = []
        for key in self.dsm.unit_keys(gid):
            unit = self.dsm.ft_serialize_unit(key)
            if unit is not None:
                units.append(unit)
        self._send_units(units)

    def publish_all(self) -> int:
        """Mirror this node's entire home set (attach-time sweep for
        pre-existing masters such as static holders, and full re-protect
        after a buddy change)."""
        keys = list(self.dsm.ft_home_keys())
        keys += [k for k in sorted(self._adopted, key=_key_order)
                 if k not in keys]
        units = []
        for key in keys:
            self._published.add(split_key(key)[0])
            unit = self.dsm.ft_serialize_unit(key)
            if unit is not None:
                units.append(unit)
        self._repl_versions.clear()  # new buddy knows nothing yet
        self._send_units(units)
        return len(units)

    def note_adopted(self, key: Any) -> None:
        """Recovery installed a re-homed unit here; mirror it onward."""
        self._adopted.add(key)
        self._published.add(split_key(key)[0])

    def protect_adopted(self, gid: int, version: int) -> None:
        """A granted master was installed here: mirror it to the buddy
        now, before anyone can come to depend on it."""
        self.note_adopted(gid)
        self.on_home_advance([(gid, version)])

    def set_buddy(self, buddy: int) -> None:
        """Re-point replication after the ring changed (a node died)."""
        if buddy == self.buddy:
            return
        self.buddy = buddy
        self.publish_all()

    def _send_units(self, units: List[Dict[str, Any]],
                    force: bool = False) -> None:
        if not units:
            return
        if not force:
            units = [u for u in units
                     if self._repl_versions.get(key_of(u), -1)
                     < u["version"]]
            if not units:
                return
        for u in units:
            key = key_of(u)
            self._repl_versions[key] = max(
                self._repl_versions.get(key, -1), u["version"])
        size = HEADER_BYTES + sum(24 + len(u["data"]) for u in units)
        self.transport.send(self.buddy, M_FT_REPL,
                            {"origin": self.node_id, "units": units},
                            size_bytes=size)
        self.units_replicated += len(units)
        self.repl_messages += 1

    # ------------------------------------------------------------------
    # FT message handlers
    # ------------------------------------------------------------------
    def on_repl_msg(self, msg: Message) -> None:
        origin = msg.payload["origin"]
        for unit in msg.payload["units"]:
            self.store.put(origin, unit)

    def on_notices_msg(self, msg: Message) -> None:
        """Recovery broadcast: invalidate replicas the adoptive home
        cannot prove fresh (anything below the store's version)."""
        from ..dsm.write_notices import Notice
        self.dsm._apply_notices([
            Notice(key, version) for key, version in msg.payload["notices"]
        ])
