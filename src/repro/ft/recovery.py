"""Node-failure recovery orchestration.

On a confirmed failure the orchestrator restores an oracle-consistent
heap and releases every survivor that was blocked on the dead node:

1. **Freeze + drain** — no lock token may leave any survivor while the
   scan runs; in-flight tokens (on the wire or in an ARQ retransmission
   buffer headed to a live peer) are waited out, so afterwards every
   surviving token sits at exactly one node.
2. **Declare dead** — survivors mark the peer dead (epoch bump; frames
   from it, and dead-epoch stragglers, are discarded), the node's CPUs
   halt, and its endpoint leaves the network.
3. **Re-home** — the buddy adopts the dead node's coherency units from
   its replica store (merging its own uncommitted local writes on top),
   a grant lost in flight to the dead node goes back to its granter,
   and the runtime's home directory and every survivor's view are
   pointed at the new homes.
4. **Lock repair** — tokens that died with the node are re-issued at
   the (possibly adoptive) home; owner tables are pointed at the actual
   holders; queued requests from dead threads are purged; survivors'
   blocked threads re-issue their lost requests (token-queue dedup and
   the stale-grant guard make re-issue safe to over-approximate).
5. **Flush repair** — unacked diffs addressed to the dead home are
   redirected to the adoptive home (distinct ``ft.rediff`` frames, so
   accounting stays exact); parked fetches are re-sent.
6. **Invalidate** — the adoptive home broadcasts write notices at its
   store versions; replicas that cannot be proven fresh get invalidated
   through the normal notice path.
7. **Re-ship** — the dead node's unfinished threads restart from their
   last lock-release-consistent state via the normal spawn machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from ..dsm.locks import LockToken
from ..dsm.protocol import M_SPAWN, M_TOKEN
from ..dsm.transitions import ADOPT, REGRANT
from ..net.message import HEADER_BYTES
from ..sim.engine import NS_PER_MS
from .replication import M_FT_NOTICES, buddy_of, key_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .manager import FtManager

#: Poll period while waiting for in-flight lock tokens to settle.
DRAIN_TICK_NS = 1 * NS_PER_MS
#: Wire size of one (key, version) entry in a recovery notice burst.
NOTICE_BYTES = 12


class MasterFailedError(RuntimeError):
    """The master node failed; that is not survivable (console, main
    thread, and failure detection all live there)."""


class RecoveryOrchestrator:
    """Drives the recovery sequence for one confirmed node failure."""

    def __init__(self, manager: "FtManager") -> None:
        self.manager = manager
        self.records: List[Dict[str, Any]] = []
        self.hooks = manager.runtime.hooks

    def _narrate(self, kind: str, detail: str) -> None:
        for fn in self.hooks.narrate:
            fn(self.manager.coordinator, kind, detail)

    # ------------------------------------------------------------------
    def begin(self, dead: int) -> None:
        runtime = self.manager.runtime
        if dead == self.manager.coordinator:
            raise MasterFailedError(
                f"master node {dead} failed; recovery cannot proceed"
            )
        record: Dict[str, Any] = {
            "dead": dead,
            "detected_ns": runtime.engine.now,
            "drain_ticks": 0,
        }
        self._narrate("ft.detect", f"node {dead} declared failed")
        for w in self._live(dead):
            w.dsm.ft_set_token_freeze(True)
        self._drain(dead, record)

    def _live(self, dead: int):
        return [w for w in self.manager.runtime.workers
                if not w.dead and w.node_id != dead]

    # ------------------------------------------------------------------
    # Phase 1: wait out in-flight tokens
    # ------------------------------------------------------------------
    def _tokens_settled(self, dead: int) -> bool:
        network = self.manager.runtime.network
        if network.in_flight(M_TOKEN) > 0:
            return False
        for w in self._live(dead):
            for dst, pending in w.transport._unacked.items():
                if dst == dead or dst in w.transport.dead_peers:
                    continue  # lost with the node; never settles
                if any(m.msg_type == M_TOKEN for m in pending.values()):
                    return False
        return True

    def _drain(self, dead: int, record: Dict[str, Any]) -> None:
        if not self._tokens_settled(dead):
            record["drain_ticks"] += 1
            self.manager.runtime.engine.schedule(
                DRAIN_TICK_NS, lambda: self._drain(dead, record))
            return
        self._recover(dead, record)

    # ------------------------------------------------------------------
    # Phases 2-7 (synchronous at one simulated instant; the repair
    # messages they emit flow through the normal network afterwards)
    # ------------------------------------------------------------------
    def _recover(self, dead: int, record: Dict[str, Any]) -> None:
        manager = self.manager
        runtime = manager.runtime
        workers = runtime.workers
        dead_w = workers[dead]
        live = self._live(dead)

        # Phase 2: declare dead everywhere.
        manager.dead_nodes.add(dead)
        for w in live:
            w.transport.mark_dead(dead)
        dead_w.dead = True
        dead_w.node.halt()
        dead_w.transport.close()
        manager.detector.last_seen.pop(dead, None)
        manager.detector.suspected.discard(dead)

        # Phase 3: re-home, reading the runtime's home directory.  The
        # buddy adopts the stored units whose master lived at the dead
        # node (the store may also hold units the dead node granted away:
        # they have a live master elsewhere).  A grant still in flight
        # to the dead node died on the wire, so its granter takes the
        # master back from the grant.  One loop then points the
        # directory and every survivor's view at each new home.
        homes = runtime.homes
        lost = {gid: homes.in_flight.pop(gid)
                for gid in sorted(homes.in_flight) if homes.get(gid) == dead}
        buddy_id = buddy_of(dead, len(workers), manager.dead_nodes)
        buddy = workers[buddy_id]
        agent_b = manager.agents[buddy_id]
        units = [u for u in agent_b.store.units_of(dead)
                 if homes.home(u["gid"]) == dead and u["gid"] not in lost]
        rehomed: Dict[int, int] = {}
        for unit in units:
            buddy.dsm.arrive(ADOPT, key_of(unit), unit)
            agent_b.note_adopted(key_of(unit))
            rehomed[unit["gid"]] = buddy_id
        for gid, (granter, grant) in lost.items():
            workers[granter].dsm.arrive(REGRANT, gid, grant)
            manager.agents[granter].protect_adopted(gid, grant["version"])
            rehomed[gid] = granter
        for gid in sorted(rehomed):
            epoch = homes.epoch(gid) + 1
            homes.set(gid, rehomed[gid], epoch)
            for w in live:
                w.dsm.homes.set(gid, rehomed[gid], epoch)

        # Phase 4: lock repair.  After the drain, every surviving token
        # sits at exactly one node; a candidate gid with no live holder
        # lost its token with the dead node (promote always minted one).
        candidates = set(rehomed)
        for w in live:
            candidates.update(w.dsm.lock_states)
            candidates.update(w.dsm.lock_owner)
        tokens_reissued = 0
        for gid in sorted(candidates):
            holders = [
                w for w in live
                if (st := w.dsm.lock_states.get(gid)) is not None
                and st.token is not None
            ]
            home_w = workers[homes.home(gid)]
            if holders:
                owner = holders[0].node_id
            else:
                st = home_w.dsm._lock_state(gid)
                st.token = LockToken(gid)
                st.last_sent_to = None
                owner = home_w.node_id
                tokens_reissued += 1
            home_w.dsm.lock_owner[gid] = owner
        for w in live:
            w.dsm.ft_purge_dead(dead)

        # Phase 5: flush repair.
        rediffs = sum(
            w.dsm.ft_redirect_pending(dead, buddy_id) for w in live)
        refetches = sum(w.dsm.ft_reissue_fetches(dead) for w in live)
        relocks = sum(w.dsm.ft_reissue_blocked() for w in live)
        # Per-peer subsystem state follows (the locality agents re-aim
        # forwarded diffs and drop unanswerable prefetches).
        for fn in self.hooks.peer_dead:
            fn(dead)

        # Phase 6: invalidate unprovable replicas.
        notices = [(key_of(u), u["version"]) for u in units]
        if notices:
            size = HEADER_BYTES + NOTICE_BYTES * len(notices)
            for w in live:
                if w.node_id == buddy_id:
                    continue  # adopted units are HOME here, not replicas
                buddy.transport.send(w.node_id, M_FT_NOTICES,
                                     {"notices": notices}, size_bytes=size)

        # Phase 7: re-ship the dead node's unfinished threads.
        respawned = manager.respawn_dead_threads(dead)

        # Re-protect: the ring shrank, so nodes that replicated to the
        # dead node re-point (and re-publish) to their new buddy, and
        # the adoptive home mirrors what it just adopted.
        for w in live:
            manager.agents[w.node_id].set_buddy(
                buddy_of(w.node_id, len(workers), manager.dead_nodes))
        agent_b.publish_all()

        # Release the token freeze (flushes fence-released transfers and
        # re-services every queue, granting what phase 4/5 repaired).
        for w in live:
            w.dsm.ft_set_token_freeze(False)

        manager.recovering.discard(dead)
        record.update({
            "recovered_ns": runtime.engine.now,
            "buddy": buddy_id,
            "units_adopted": len(units),
            "tokens_reissued": tokens_reissued,
            "diffs_redirected": rediffs,
            "fetches_reissued": refetches,
            "lock_requests_reissued": relocks,
            "threads_respawned": respawned,
        })
        self.records.append(record)
        # State the dead node fed is wiped (policy classifications, race
        # clocks: both run degraded from here on); telemetry turns the
        # record into spans.
        for fn in self.hooks.recovered:
            fn(dead, record)
        self._narrate("ft.recovered",
                      f"node {dead} recovered via buddy {buddy_id}: "
                      f"{len(units)} units, {respawned} threads")
