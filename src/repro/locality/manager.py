"""LocalityManager / LocalityAgent: the adaptive-locality runtime.

One :class:`LocalityManager` per runtime (when any ``locality_*`` knob
is on) owns a per-node :class:`LocalityAgent`; each grant out and grant
install is also written to the runtime's home directory
(``runtime.homes``), the harness-level record of which unit lives where
now, mirroring what the paper's coordinator would track.  All actual
adaptation traffic —
migration grants, forwarded diffs, redirect gossip, bulk fetches,
aggregate frames — flows through the simulated network and is accounted
like any other protocol message.

Correctness notes for the migration handoff:

- A grant rides in the M_DIFF_ACK of the diff that crossed the policy
  threshold.  Under the §3.1 fence no third-party diff of the unit can
  be in flight at that instant (any earlier writer's flush was acked
  before the token could reach the current writer), so the only diffs a
  stale directory can still aim at the old home come *after* the grant
  — and those hit the forwarding path below.
- The old home demotes its master to an INVALID replica in the same
  handler that serializes the grant, so there is never an instant with
  two masters.
- Directory entries are epoch-guarded: epochs increase strictly along
  a forwarding chain, so stale gossip never rolls a mapping back and
  chained forwards terminate.  A message that finds no master where a
  directory says "here" bounces via the unit's origin home, though:
  that arm follows no epoch and ends when the grant in flight lands —
  never, if there is none.  So a re-routed message carries the chain
  of nodes it passed (``via``), and one longer than ``MAX_HOPS`` is a
  :exc:`ProtocolError`: a corrupt directory fails the run, not spins it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..dsm.directory import home_of
from ..dsm.objectstate import ObjState, split_key
from ..dsm.protocol import (
    M_DIFF,
    M_DIFF_ACK,
    M_FETCH_REQ,
    M_FT_REDIFF_ACK,
    M_LOCK_REQ,
    M_OWNER_UPDATE,
    ProtocolError,
)
from ..dsm.transitions import ACK_GRANT, BULK_UNIT, GRANT_OUT
from ..net.message import (
    HEADER_BYTES,
    M_LOC_AGG,
    M_LOC_BULK_FETCH,
    M_LOC_BULK_REPLY,
    M_LOC_FWD_DIFF,
    M_LOC_FWD_DIFF_ACK,
    M_LOC_HOME_UPDATE,
    Message,
    estimate_size,
)
from .profiler import AccessProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode

#: Message types the release/acquire aggregator may coalesce.  Everything
#: else (tokens, demand fetches, acks) is latency-critical or ordering-
#: sensitive and is sent through immediately — after flushing the
#: destination's buffer, so per-link FIFO order is preserved.
AGG_TYPES = frozenset({
    M_DIFF, M_OWNER_UPDATE, M_LOC_BULK_FETCH, M_LOC_HOME_UPDATE,
})

#: Profiler sliding window: per-unit remote-access events remembered.
WINDOW = 8
#: Remote diffs from a single dominant writer, within the window, before
#: the unit is re-homed to that writer.
MIGRATION_THRESHOLD = 3
#: Max units batched into one bulk-fetch on acquire.
PREFETCH_DEPTH = 8

#: Re-routes a message may take before it is declared lost.  Not a
#: function of cluster size: a bounce lasts while the grant it waits
#: for is in flight — through the fence for a token-borne one (6 hops
#: seen fault-free), through a 25 ms retransmit timeout or several for
#: a dropped one (11 seen at 5% drops), at ~2.5 ms per hop.
MAX_HOPS = 64

#: Wire fields stamped by the transport that must not survive a forward.
_TRANSPORT_FIELDS = ("__seq__", "__epoch__")


def _strip(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in payload.items() if k not in _TRANSPORT_FIELDS}


class LocalityManager:
    """Adaptive-locality subsystem root, attached to one runtime."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        cfg = runtime.config
        self.migration = cfg.locality_migration
        self.prefetch = cfg.locality_prefetch
        self.aggregation = cfg.locality_aggregation
        self.agents: Dict[int, "LocalityAgent"] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        for w in self.runtime.workers:
            self._attach_worker(w)
        self.runtime.hooks.worker_added.append(self._attach_worker)

    def _attach_worker(self, worker: "WorkerNode") -> None:
        agent = LocalityAgent(self, worker)
        self.agents[worker.node_id] = agent
        agent.attach()

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Locality summary for RunReport."""
        stats = [a.dsm.stats for a in self.agents.values()]
        return {
            "migrated_units": len(self.runtime.homes),
            "migrations_out": sum(s.migrations_out for s in stats),
            "fwd_diffs": sum(s.fwd_diffs for s in stats),
            "home_forwards": sum(s.home_forwards for s in stats),
            "prefetch_bulk": sum(s.prefetch_bulk for s in stats),
            "prefetch_units": sum(s.prefetch_units for s in stats),
            "prefetch_hits": sum(s.prefetch_hits for s in stats),
            "agg_frames": sum(s.agg_frames for s in stats),
            "agg_subframes": sum(s.agg_subframes for s in stats),
        }


class LocalityAgent:
    """Per-node locality agent: subscribes to the DSM engine's and the
    transport's hook points, and owns the locality message handlers and
    the release-time aggregator."""

    def __init__(self, manager: LocalityManager,
                 worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.dsm = worker.dsm
        self.transport = worker.transport
        self.node_id = worker.node_id
        self.narrate = manager.runtime.hooks.narrate
        self.migration = manager.migration
        self.prefetch = manager.prefetch
        self.aggregation = manager.aggregation
        self.profiler = AccessProfiler(WINDOW)
        # Proxy state for split diff batches: fwd_id -> record.  Each
        # record shares a ``state`` dict with its siblings so the proxy
        # sends exactly ONE combined ack once every part is applied.
        self._fwd_pending: Dict[int, Dict[str, Any]] = {}
        self._next_fwd_id = 0
        # Redirect gossip dedup: (peer, gid) pairs already hinted.
        self._hinted: Set[Tuple[int, int]] = set()
        # Units whose grant was installed with this node's own in-flight
        # diffs folded in, and the flush interval of the install: copies
        # of its diffs up to then that come back forwarded are dropped,
        # not re-applied.  Later ones (the unit left and returned) count.
        self._self_folded: Dict[int, int] = {}
        # Aggregator: sync-scope depth + per-destination buffers.
        self._scope_depth = 0
        self._buffers: Dict[int, List[Message]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        t = self.transport
        t.on(M_LOC_HOME_UPDATE, self._on_home_update)
        t.on(M_LOC_FWD_DIFF, self._on_fwd_diff)
        t.on(M_LOC_FWD_DIFF_ACK, self._on_fwd_diff_ack)
        t.on(M_LOC_BULK_FETCH, self._on_bulk_fetch)
        t.on(M_LOC_BULK_REPLY, self._on_bulk_reply)
        t.on(M_LOC_AGG, self._on_agg)
        hooks = self.dsm.hooks
        self.dsm.proxy = self
        t.hooks.deliver.append(self.on_deliver)
        self.manager.runtime.hooks.peer_dead.append(self.on_peer_dead)
        if self.migration:
            hooks.diff_applied.append(self.consider_migration)
        if self.prefetch:
            hooks.token_notices.append(self.on_token_notices)
        if self.aggregation:
            # First outbound filter (attach order): the race detector,
            # telemetry and tracer filters registered after it decorate
            # and see every LOGICAL message exactly once; the aggregate
            # frames themselves leave through send_frame and stay
            # invisible to them.
            hooks.sync_scope.append(self._scope)
            t.hooks.outbound.append(self._agg_filter)

    def _emit(self, kind: str, detail: str) -> None:
        for fn in self.narrate:
            fn(self.node_id, kind, detail)

    # ------------------------------------------------------------------
    # Redirect gossip
    # ------------------------------------------------------------------
    def _maybe_hint(self, peer: int, gid: int) -> None:
        """Tell a peer (once) where a migrated unit lives now, so its
        next message goes straight to the current home."""
        if peer == self.node_id or (peer, gid) in self._hinted:
            return
        entry = self.dsm.homes.entry(gid)
        if entry is None:
            return
        home, epoch = entry
        if home == peer:
            # Never tell a node that it is itself the home: the grant
            # in flight to it is the authoritative channel, and an early
            # hint would make it apply still-in-flight forwarded diffs
            # to the replica the grant is about to overwrite.
            return
        self._hinted.add((peer, gid))
        self.transport.send(peer, M_LOC_HOME_UPDATE, {
            "gid": gid, "home": home, "epoch": epoch,
        })

    def _on_home_update(self, msg: Message) -> None:
        p = msg.payload
        gid = p["gid"]
        self.dsm.homes.set(gid, p["home"], p["epoch"])
        # A prefetch aimed at the old home will echo the gid back
        # unserved; nothing else to do here.

    # ------------------------------------------------------------------
    # Stale-directory forwarding (old-home side)
    # ------------------------------------------------------------------
    def forward(self, msg: Message) -> None:
        """The engine's proxy for a home-role message (fetch, lock
        request, owner update) whose unit migrated away: re-route it to
        the current home, and hint the sender."""
        mtype = msg.msg_type
        gid = msg.payload["gid"]
        home = self.dsm.home_node(gid)
        self.dsm.stats.home_forwards += 1
        fwd = _strip(msg.payload)
        peer = msg.src
        if mtype == M_FETCH_REQ:
            # Keep the original requester so the serving home replies
            # directly instead of bouncing through this node.
            fwd["requester"] = msg.payload.get("requester", msg.src)
        elif mtype == M_LOCK_REQ:
            peer = msg.payload["node"]
        via = self._hop(fwd.pop("via", []), gid)
        # The chain rides in the fixed header: sized without it.
        self.transport.send(home, mtype, dict(fwd, via=via),
                            size_bytes=HEADER_BYTES + estimate_size(fwd))
        self._maybe_hint(peer, gid)

    def _hop(self, via: List[int], gid: int) -> List[int]:
        """``via`` plus this node: the chain of a message being
        re-routed from here.  Too long a chain is a ProtocolError naming
        the unit, the chain and every node's directory entry."""
        via = via + [self.node_id]
        if len(via) > MAX_HOPS:
            entries = {w.node_id: w.dsm.homes.entry(gid)
                       for w in self.manager.runtime.workers if not w.dead}
            raise ProtocolError(
                f"gid {gid:#x} re-routed {len(via)} times without reaching "
                f"a master: chain {via}, (home, epoch) directory entries "
                f"by node {entries}")
        return via

    def _on_fwd_diff(self, msg: Message) -> None:
        """New-home side of a forwarded diff.  Re-splits if some entries
        migrated onward (chained migration): epochs increase along the
        chain, so forwarding terminates."""
        self.split(msg, self.dsm._diff_rows(msg.payload))

    def folds_own_diff(self, gid: int, writer: int, interval: int) -> bool:
        """True when a diff entry from ``writer`` for ``gid`` is this
        node's own pre-grant flush: the grant install folded it in, so
        the write is already in the master."""
        return (writer == self.node_id
                and interval <= self._self_folded.get(gid, 0))

    def split(self, msg: Message, rows: List[Tuple[str, Any, Any]]) -> None:
        """The engine's proxy for a diff batch (direct, recovery re-sent
        or forwarded) whose entries' rows are not all ``apply_diff``:
        apply the local part, ack a ``fold`` at the master's current
        version, send ``forward`` entries to their home and ``bounce``
        ones via the origin home — with exactly one combined ack
        promised to the writer."""
        p = msg.payload
        if msg.msg_type == M_LOC_FWD_DIFF:
            ack_type, ack_field = M_LOC_FWD_DIFF_ACK, "fwd_id"
        else:
            ack_field = "ack_id"
            ack_type = (M_DIFF_ACK if msg.msg_type == M_DIFF
                        else M_FT_REDIFF_ACK)
        local: List[Tuple[str, Any, Any]] = []
        folded: List[Tuple[int, int]] = []
        by_home: Dict[int, List[Tuple[Any, bytes, Optional[int]]]] = {}
        for row in rows:
            effect, entry, unit = row
            gid = entry[0]
            if effect == "apply_diff":
                local.append(row)
            elif effect == "fold":
                folded.append((gid, unit[1].version))
            elif effect == "bounce":
                by_home.setdefault(home_of(gid), []).append(entry)
            else:
                by_home.setdefault(self.dsm.home_node(gid), []).append(entry)
        state: Dict[str, Any] = {
            "src": msg.src,
            "ack_type": ack_type,
            "ack_field": ack_field,
            "ack_value": p[ack_field],
            "versions": [],
            "pending": 0,
        }
        state["versions"].extend(folded)
        if local:
            state["versions"].extend(self.dsm._apply_diff_entries(p, local))
        for home in sorted(by_home):
            entries = by_home[home]
            fwd_id = self._next_fwd_id
            self._next_fwd_id += 1
            fpayload = {
                "entries": entries,
                "writer": p["writer"],
                "interval": p["interval"],
                "fwd_id": fwd_id,
                "via": self._hop(p.get("via", []), entries[0][0]),
            }
            size = HEADER_BYTES + sum(14 + len(d) for _g, d, _r in entries)
            self._fwd_pending[fwd_id] = {
                "state": state, "dst": home,
                "payload": fpayload, "size": size,
            }
            state["pending"] += 1
            self.transport.send(home, M_LOC_FWD_DIFF, fpayload,
                                size_bytes=size)
            for gid, _d, _r in entries:
                self._maybe_hint(p["writer"], gid)
        if state["pending"] == 0:
            self._finish_proxy(state)

    def _on_fwd_diff_ack(self, msg: Message) -> None:
        rec = self._fwd_pending.pop(msg.payload["fwd_id"], None)
        if rec is None:
            return  # settled by an earlier (re-forwarded) ack
        state = rec["state"]
        state["versions"].extend(
            tuple(v) if isinstance(v, list) else v
            for v in msg.payload["versions"]
        )
        state["pending"] -= 1
        if state["pending"] == 0:
            self._finish_proxy(state)

    def _finish_proxy(self, state: Dict[str, Any]) -> None:
        self.transport.send(state["src"], state["ack_type"], {
            state["ack_field"]: state["ack_value"],
            "versions": list(state["versions"]),
        })

    # ------------------------------------------------------------------
    # Re-homing: the one grant-out / grant-install pair (locality
    # migration and the migratory coherence policy both use it)
    # ------------------------------------------------------------------
    def grant_out(self, gid: int, grantee: int,
                  with_lock_owner: bool = True) -> Dict[str, Any]:
        """Old-home side: serialize + demote the local master into a
        grant for ``grantee`` (its ``grant_out`` row), under the next
        directory epoch, and point this node's view and the runtime's
        directory at the new home.  A token-borne grant goes without
        ``lock_owner``: its grantee is the new lock owner."""
        unit = self.dsm.arrive(GRANT_OUT, gid, None)
        epoch = self.dsm.homes.epoch(gid) + 1
        grant = dict(unit)
        grant["epoch"] = epoch
        if with_lock_owner:
            grant["lock_owner"] = self.dsm.lock_owner.get(gid, self.node_id)
        self.dsm.homes.set(gid, grantee, epoch)
        self.manager.runtime.homes.granted(grant, self.node_id, grantee)
        return grant

    def install_grant(self, grant: Dict[str, Any],
                      event: str = ACK_GRANT) -> bool:
        """Grantee side: become the home of a granted unit (its
        ``event`` row: ``grant.ack`` or ``grant.token``).  False when
        this node's view holds newer news of the unit.

        Flushes of the unit by this node may still be in flight to the
        old home (the ack-borne grant goes to the very writer the old
        home was serving).  The grant snapshot predates them, but a
        local read of the new master must not — this node wrote them:
        they are applied on top of the snapshot at install, in flush
        order and at the grant's version, and dropped when they come
        back forwarded."""
        gid = grant["gid"]
        if not self.dsm.homes.set(gid, self.node_id, grant["epoch"]):
            return False
        own = [diff for _home, p, _size in self.dsm._pending_diffs.values()
               for g, diff, region in p["entries"]
               if g == gid and region is None]
        if own:
            grant = dict(grant, own_diffs=own)
            self._self_folded[gid] = self.dsm._flush_seq
        # Overwrites clean replicas and merges any dirty twin back on
        # top as a pending home write.
        self.dsm.arrive(event, gid, grant)
        self.dsm.lock_owner[gid] = grant.get("lock_owner", self.node_id)
        runtime = self.manager.runtime
        runtime.homes.in_flight.pop(gid, None)  # the grant is home
        if runtime.ft is not None:
            runtime.ft.agents[self.node_id].protect_adopted(
                gid, grant["version"])
        return True

    # ------------------------------------------------------------------
    # Migration policy (old-home side) and grant install (writer side)
    # ------------------------------------------------------------------
    def consider_migration(self, msg: Message, ack_payload: Dict[str, Any],
                           delay_ns: int) -> None:
        """``diff_applied`` decorator: feed the profiler and grant away
        any unit the writer now dominates.  Grants ride the ``migrate``
        field of the M_DIFF_ACK the writer is fenced on."""
        p = msg.payload
        writer = p["writer"]
        if writer == self.node_id:
            return
        grants: List[Dict[str, Any]] = []
        for gid, _diff, _region in p["entries"]:
            if self.dsm.is_split(gid):
                continue  # split arrays keep their static home
            self.profiler.note_diff(gid, writer)
            if self.dsm.home_node(gid) != self.node_id:
                continue
            if not self.profiler.should_migrate(
                    gid, writer, MIGRATION_THRESHOLD):
                continue
            grant = self.grant_out(gid, writer)
            self.dsm.stats.migrations_out += 1
            self.profiler.reset(gid)
            self._emit("locality.migrate",
                       f"gid={gid:#x} home {self.node_id} -> {writer} "
                       f"epoch {grant['epoch']}")
            grants.append(grant)
        if grants:
            ack_payload["migrate"] = grants

    def on_deliver(self, msg: Message) -> None:
        """Writer side: become the home of each unit granted in an
        arriving M_DIFF_ACK's ``migrate`` field (locality migration and
        policy bootstrap grants alike)."""
        if msg.msg_type != M_DIFF_ACK:
            return
        for grant in msg.payload.get("migrate", ()):
            self.install_grant(grant)

    # ------------------------------------------------------------------
    # Sharing-pattern prefetch
    # ------------------------------------------------------------------
    def on_token_notices(self, notices: List[Any]) -> None:
        """Acquire side: the notice delta names the units this node's
        next reads will miss on — bulk-fetch them per home."""
        by_home: Dict[int, List[int]] = {}
        for n in notices:
            gid, region = split_key(n.gid)
            if region is not None or self.dsm.is_split(gid):
                continue  # a split array's units fault in per region
            obj = self.dsm.cache.get(gid)
            if obj is None:
                continue
            hdr = obj.header
            if hdr is None or hdr.state != ObjState.INVALID:
                continue
            if hdr.version <= 0:
                # Never fetched here: a stub from reference
                # deserialization, not evidence this node reads it.
                continue
            if hdr.version >= self.dsm.notice_table.required_scalar(gid):
                continue
            if (gid, None) in self.dsm._fetch_targets:
                continue  # a demand fetch or prefetch is already in flight
            home = self.dsm.home_node(gid)
            if home == self.node_id:
                continue
            by_home.setdefault(home, []).append(gid)
        for home in sorted(by_home):
            gids = by_home[home][:PREFETCH_DEPTH]
            for gid in gids:
                # Demand misses on these units now park on the bulk reply.
                self.dsm._fetch_targets[(gid, None)] = home
            self.dsm.stats.prefetch_bulk += 1
            self._emit("locality.prefetch",
                       f"{len(gids)} unit(s) from node {home}")
            self.transport.send(home, M_LOC_BULK_FETCH, {"gids": gids})

    def _on_bulk_fetch(self, msg: Message) -> None:
        gids = msg.payload["gids"]
        for gid in gids:
            self.profiler.note_fetch(gid, msg.src)
            if self.dsm.home_node(gid) != self.node_id:
                self._maybe_hint(msg.src, gid)
        self.dsm._serve_bulk(msg.src, gids)

    def _on_bulk_reply(self, msg: Message) -> None:
        p = msg.payload
        served = {u["gid"]: u for u in p["units"]}
        for gid in p["requested"]:
            unit = served.get(gid)
            if unit is not None and self.dsm.arrive(BULK_UNIT, gid, unit):
                # Installed (the request is outstanding until then):
                # wake the demand misses it satisfied.
                if self.dsm._unit_present(gid, None, len(unit["data"])):
                    self.dsm.stats.prefetch_hits += 1
                continue
            self.dsm._fetch_targets.pop((gid, None), None)
            if self.dsm._fetch_waiters.get((gid, None)):
                # Parked waiters whose prefetch came back unserved (or
                # stale): fall back to a normal demand fetch.
                self.dsm._send_fetch(gid, None)

    # ------------------------------------------------------------------
    # Release/acquire message aggregation
    # ------------------------------------------------------------------
    def _scope(self, entering: bool) -> None:
        """``sync_scope`` observer: coalesce what one release / wait /
        token arrival sends, flushing when the outermost scope ends."""
        if entering:
            self._scope_depth += 1
            return
        self._scope_depth -= 1
        if self._scope_depth == 0:
            self._flush_all()

    def _agg_filter(self, msg: Message) -> bool:
        """``outbound`` filter: hold an aggregable frame sent inside a
        sync scope back in its destination's buffer."""
        dst = msg.dst
        if (self._scope_depth > 0 and dst != self.node_id
                and msg.msg_type in AGG_TYPES):
            self._buffers.setdefault(dst, []).append(msg)
            return True
        if self._buffers.get(dst):
            # FIFO: buffered frames must precede this send on the link.
            self._flush_dst(dst)
        return False

    def _flush_all(self) -> None:
        for dst in sorted(self._buffers):
            self._flush_dst(dst)

    def _flush_dst(self, dst: int) -> None:
        buf = self._buffers.pop(dst, None)
        if not buf:
            return
        if len(buf) == 1:
            self.transport.send_frame(buf[0])
            return
        frames = [(m.msg_type, m.payload, m.size_bytes) for m in buf]
        size = HEADER_BYTES + sum(m.size_bytes - HEADER_BYTES for m in buf)
        self.dsm.stats.agg_frames += 1
        self.dsm.stats.agg_subframes += len(buf)
        self._emit("locality.aggregate",
                   f"{len(buf)} frames -> node {dst}")
        self.transport.send_frame(Message(
            M_LOC_AGG, self.node_id, dst, {"frames": frames}, size))

    def _on_agg(self, msg: Message) -> None:
        self.transport.deliver_inner(msg, msg.payload["frames"])

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------
    def on_peer_dead(self, dead: int) -> None:
        """A peer died (recovery phase 5): re-aim pending forwarded
        diffs at the adoptive home and drop prefetches that can never be
        answered (parked demand waiters were already re-issued by
        ft_reissue_fetches).  Survivors only."""
        if self.worker.dead or self.node_id == dead:
            return
        for fwd_id in sorted(self._fwd_pending):
            rec = self._fwd_pending[fwd_id]
            if rec["dst"] != dead:
                continue
            first_gid = rec["payload"]["entries"][0][0]
            new_home = self.dsm.home_node(first_gid)
            rec["dst"] = new_home
            self.transport.send(new_home, M_LOC_FWD_DIFF,
                                _strip(rec["payload"]),
                                size_bytes=rec["size"])
        targets = self.dsm._fetch_targets
        for key in [k for k, node in targets.items() if node == dead]:
            del targets[key]
