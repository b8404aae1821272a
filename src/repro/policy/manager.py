"""PolicyManager / PolicyAgent: per-unit adaptive coherence policies.

One :class:`PolicyManager` per runtime (when any ``policy_*`` knob is
on) owns a per-node :class:`PolicyAgent` and a harness-level registry
of which policy each promoted unit currently runs.  The classifier is
home-side: the home of a unit sees every remote fetch and diff, feeds
them to an :class:`AccessProfiler` window, and promotes the unit once
``HYSTERESIS`` consecutive windows agree on a pattern.  Demotion
back to plain invalidation is immediate the moment the pattern breaks.

Correctness notes:

- Write-update pushes and read-mostly broadcasts never REPLACE write
  notices; they only advance replica versions, so the invalidation a
  notice would force at the next acquire becomes a version-check no-op
  (``_apply_notices`` skips replicas already at the noticed version).
  A lost or skipped push therefore degrades performance, never
  correctness.
- Whether a push or broadcast is installed is its ``pol.push`` /
  ``pol.bcast`` row in :mod:`repro.dsm.transitions`: only over a
  replica with no pending local writes (no twin), when it moves the
  replica strictly forward, no demand waiter is parked on the unit (the
  reply must not find the replica ahead of it), and the pushed version
  satisfies the notice table (a push must not resurrect a VALID copy
  older than a seen notice).
- The migratory grant reuses the locality migration machinery.  The
  bootstrap grant rides the M_DIFF_ACK of the promoting diff (under
  the §3.1 fence, exactly like a locality migration grant) and is
  installed by ``LocalityAgent.on_deliver``.  Steady-state grants
  ride the lock token itself (``pol_grant`` payload field): the old
  home demotes its master (its ``grant_out`` row) inside the token-send
  handler, the new holder installs it (its ``grant.token`` row) before
  applying the token's notice delta — so the delta's own notice for
  the unit is a no-op against the fresh master and the owner update
  resolves locally.  Directory entries stay epoch-guarded.
- The policy therefore always runs on top of the locality substrate:
  when no ``locality_*`` knob is on, the manager attaches a
  LocalityManager with every knob off, which contributes no traffic of
  its own but provides the directory redirects, stale-home forwarding
  and grant installation that migrated units need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..dsm.objectstate import ObjState, split_key
from ..dsm.transitions import TOKEN_GRANT
from ..locality.profiler import (
    DIFF,
    FETCH,
    MIGRATORY,
    PRODUCER_CONSUMER,
    READ_MOSTLY,
    AccessProfiler,
)
from ..net.message import (HEADER_BYTES, M_POL_BCAST, M_POL_PUSH, M_TOKEN,
                           Message)
from ..sim import cost_model as cm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode

#: Classifier sliding window: home-observed remote accesses per unit.
WINDOW = 12
#: Events of the defining kind within the window before a pattern is
#: recognized (diffs for producer-consumer/migratory, fetches for
#: read-mostly).  2 promotes early enough to pay off on check-scale app
#: instances.
THRESHOLD = 2
#: Consecutive identical classifications before a unit is promoted to a
#: policy (demotion back to invalidate is immediate).
HYSTERESIS = 2

#: Per-unit policies a unit can be promoted to.
POLICY_UPDATE = "update"
POLICY_MIGRATORY = "migratory"
POLICY_BROADCAST = "broadcast"

#: Sharing pattern -> the policy that exploits it.
_PATTERN_POLICY = {
    PRODUCER_CONSUMER: POLICY_UPDATE,
    MIGRATORY: POLICY_MIGRATORY,
    READ_MOSTLY: POLICY_BROADCAST,
}


class PolicyManager:
    """Adaptive-coherence subsystem root, attached to one runtime."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        cfg = runtime.config
        self.update = cfg.policy_update
        self.migratory = cfg.policy_migratory
        self.broadcast = cfg.policy_broadcast
        self.agents: Dict[int, "PolicyAgent"] = {}
        # Harness-level registry: gid -> active policy for every promoted
        # unit.  It lives here (not in an agent) because the deciding
        # node changes when a migratory unit's home travels: whichever
        # node is CURRENTLY home consults it at token-send time.
        self.units: Dict[int, str] = {}
        # Recovery bookkeeping (degraded mode, see on_recovery).
        self.recovery_wipes = 0
        self.units_wiped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        # The policies ride the locality substrate (directory redirects,
        # stale-home forwarding, grant installation, recovery adoption
        # of migrated units).  With no locality_* knob on, attach a
        # LocalityManager whose knobs are all off: its agents adapt
        # nothing and send nothing of their own.
        if self.runtime.locality is None:
            from ..locality import LocalityManager
            self.runtime.locality = LocalityManager(self.runtime)
            self.runtime.locality.attach()
        for w in self.runtime.workers:
            self._attach_worker(w)
        self.runtime.hooks.worker_added.append(self._attach_worker)
        self.runtime.hooks.recovered.append(self.on_recovery)

    def _attach_worker(self, worker: "WorkerNode") -> None:
        agent = PolicyAgent(self, worker)
        self.agents[worker.node_id] = agent
        agent.attach()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def policy_of(self, gid: int) -> Optional[str]:
        return self.units.get(gid)

    def set_policy(self, gid: int, policy: str) -> None:
        self.units[gid] = policy

    def clear_policy(self, gid: int) -> None:
        self.units.pop(gid, None)

    def live_nodes(self) -> List[int]:
        return [w.node_id for w in self.runtime.workers if not w.dead]

    # ------------------------------------------------------------------
    # Failure recovery (the ``recovered`` hook point)
    # ------------------------------------------------------------------
    def on_recovery(self, dead: int,
                    _record: Optional[Dict[str, Any]] = None) -> None:
        """A node died: every classification was built partly from its
        accesses, and a promoted unit's reader set may name it.  Wipe
        ALL policy state back to plain invalidation and re-learn from
        live traffic — correctness never depended on the policies, so
        degraded mode is purely a performance reset."""
        self.recovery_wipes += 1
        self.units_wiped += len(self.units)
        self.units.clear()
        for node_id in sorted(self.agents):
            self.agents[node_id].on_recovery(dead)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Policy summary for RunReport."""
        stats = [a.dsm.stats for a in self.agents.values()]
        return {
            "active_units": len(self.units),
            "by_policy": {
                policy: sum(1 for p in self.units.values() if p == policy)
                for policy in (POLICY_UPDATE, POLICY_MIGRATORY,
                               POLICY_BROADCAST)
            },
            "promotions": sum(s.pol_promotions for s in stats),
            "demotions": sum(s.pol_demotions for s in stats),
            "pushes": sum(s.pol_pushes for s in stats),
            "push_installs": sum(s.pol_push_installs for s in stats),
            "broadcasts": sum(s.pol_bcasts for s in stats),
            "broadcast_installs": sum(s.pol_bcast_installs for s in stats),
            "grants": sum(s.pol_grants for s in stats),
            "grant_installs": sum(s.pol_grant_installs for s in stats),
            "recovery_wipes": self.recovery_wipes,
            "units_wiped": self.units_wiped,
        }


class PolicyAgent:
    """Per-node policy agent: subscribes to the DSM engine's hook points
    and owns the push/broadcast message handlers."""

    def __init__(self, manager: PolicyManager, worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.dsm = worker.dsm
        self.transport = worker.transport
        self.node_id = worker.node_id
        self.narrate = manager.runtime.hooks.narrate
        # This node's locality agent: grants go out and come in there.
        self.locality = manager.runtime.locality.agents[worker.node_id]
        self.profiler = AccessProfiler(WINDOW)
        # Home-side reader tracking for write-update pushes:
        # gid -> {reader node -> last version known to be there}.
        self._readers: Dict[int, Dict[int, int]] = {}
        # Promotion hysteresis: gid -> (candidate policy, streak length).
        self._streak: Dict[int, Tuple[str, int]] = {}
        # Last classified pattern per unit, to emit classify events only
        # on change (the classifier runs on every remote access).
        self._last_pattern: Dict[int, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        self.transport.on(M_POL_PUSH, self._on_push)
        self.transport.on(M_POL_BCAST, self._on_push)
        hooks = self.dsm.hooks
        hooks.fetch_serve.append(self.on_fetch_served)
        hooks.diff_applied.append(self.on_diff_applied)
        hooks.home_advance.append(self.on_home_advance)
        hooks.token_send.append(self.on_token_send)
        self.transport.hooks.deliver.append(self.on_deliver)

    def _emit(self, kind: str, detail: str) -> None:
        for fn in self.narrate:
            fn(self.node_id, kind, detail)

    # ------------------------------------------------------------------
    # Classification (home side)
    # ------------------------------------------------------------------
    def _policy_for_pattern(self, pattern: Optional[str]) -> Optional[str]:
        policy = _PATTERN_POLICY.get(pattern) if pattern else None
        if policy == POLICY_UPDATE and not self.manager.update:
            return None
        if policy == POLICY_MIGRATORY and not self.manager.migratory:
            return None
        if policy == POLICY_BROADCAST and not self.manager.broadcast:
            return None
        return policy

    def _note_event(self, gid: int, kind: str, node: int) -> None:
        if kind == FETCH:
            self.profiler.note_fetch(gid, node)
        else:
            self.profiler.note_diff(gid, node)
        self._reclassify(gid)

    def _reclassify(self, gid: int) -> None:
        pattern = self.profiler.classify(gid, THRESHOLD)
        if pattern != self._last_pattern.get(gid):
            self._last_pattern[gid] = pattern
            self._emit("policy.classify",
                       f"gid={gid:#x} pattern={pattern or 'none'}")
        target = self._policy_for_pattern(pattern)
        current = self.manager.policy_of(gid)
        if target == current:
            self._streak.pop(gid, None)
            return
        if target is None:
            # Pattern broke (or maps to a disabled policy): demote at
            # once — invalidation is always correct, so there is no
            # reason to keep a mispredicted policy running.
            self._streak.pop(gid, None)
            if current is not None:
                self._demote(gid, current, pattern)
            return
        cand, n = self._streak.get(gid, (None, 0))
        n = n + 1 if cand == target else 1
        if n >= HYSTERESIS:
            self._streak.pop(gid, None)
            self._promote(gid, current, target)
        else:
            self._streak[gid] = (target, n)

    def _promote(self, gid: int, old: Optional[str], policy: str) -> None:
        self.manager.set_policy(gid, policy)
        self.dsm.stats.pol_promotions += 1
        self._emit("policy.promote",
                   f"gid={gid:#x} {old or 'invalidate'} -> {policy}")

    def _demote(self, gid: int, current: str,
                pattern: Optional[str]) -> None:
        # For update/broadcast demotion simply stops the pushes (the
        # write notices were flowing all along); a demoted migratory
        # unit stays homed wherever it is and the directory keeps
        # redirecting — only the token piggyback stops.
        self.manager.clear_policy(gid)
        self._readers.pop(gid, None)
        self.dsm.stats.pol_demotions += 1
        self._emit("policy.demote",
                   f"gid={gid:#x} {current} -> invalidate "
                   f"(pattern={pattern or 'none'})")

    # ------------------------------------------------------------------
    # DSM hooks (home side)
    # ------------------------------------------------------------------
    def on_fetch_served(self, requester: int, obj: Any,
                        region: Optional[int], bulk: bool) -> None:
        """A demand fetch is being served from this home."""
        hdr = obj.header
        if bulk:
            return
        gid = hdr.gid
        if self.dsm.is_split(gid):
            return
        if requester == self.node_id:
            return
        self._readers.setdefault(gid, {})[requester] = hdr.version
        self._note_event(gid, FETCH, requester)

    def on_diff_applied(self, msg: Message, ack_payload: Dict[str, Any],
                        delay_ns: int) -> None:
        """``diff_applied`` decorator: feed the classifier and run the
        promoted units' write-time actions.  Migratory bootstrap grants
        ride the same fenced ``migrate`` field of the M_DIFF_ACK as
        locality migration grants (the locality agent installs both)."""
        p = msg.payload
        writer = p["writer"]
        grants: List[Dict[str, Any]] = []
        for gid, _diff, _region in p["entries"]:
            if self.dsm.is_split(gid):
                continue
            if writer != self.node_id:
                self._note_event(gid, DIFF, writer)
            obj = self.dsm.cache.get(gid)
            hdr = obj.header if obj is not None else None
            if hdr is None or hdr.state != ObjState.HOME:
                continue  # granted away mid-batch
            policy = self.manager.policy_of(gid)
            if policy == POLICY_UPDATE:
                self._push_unit(gid, exclude=writer, broadcast=False)
            elif policy == POLICY_BROADCAST:
                self._push_unit(gid, exclude=writer, broadcast=True)
            elif policy == POLICY_MIGRATORY and writer != self.node_id:
                grants.append(self._make_grant(gid, writer))
        if grants:
            ack_payload.setdefault("migrate", []).extend(grants)

    def on_home_advance(self, advanced: List[Tuple[Any, int]],
                        writer: Optional[int]) -> None:
        """The home itself published writes (release-time flush of
        ``_dirty_home``): push the fresh copies of promoted units.
        (Remote writers' diffs are handled by ``on_diff_applied``.)"""
        if writer != self.node_id:
            return
        for key, _version in advanced:
            if self.dsm.is_split(split_key(key)[0]):
                continue
            policy = self.manager.policy_of(key)
            if policy == POLICY_UPDATE:
                self._push_unit(key, exclude=None, broadcast=False)
            elif policy == POLICY_BROADCAST:
                self._push_unit(key, exclude=None, broadcast=True)

    # ------------------------------------------------------------------
    # Write-update / read-mostly pushes
    # ------------------------------------------------------------------
    def _push_unit(self, gid: int, exclude: Optional[int],
                   broadcast: bool) -> None:
        """Ship the local master to the unit's readers (push) or to
        every live node (broadcast)."""
        unit = self.dsm.ship_unit(gid)
        version = unit["version"]
        if broadcast:
            targets = [n for n in self.manager.live_nodes()
                       if n != self.node_id and n != exclude
                       and n not in self.transport.dead_peers]
        else:
            readers = self._readers.get(gid)
            if not readers:
                return
            targets = [n for n in sorted(readers)
                       if n != self.node_id and n != exclude
                       and readers[n] < version
                       and n not in self.transport.dead_peers]
        if not targets:
            return
        payload = {
            "gid": gid,
            "class_name": unit["class_name"],
            "version": version,
            "data": unit["data"],
        }
        msg_type = M_POL_BCAST if broadcast else M_POL_PUSH
        kind = "policy.broadcast" if broadcast else "policy.push"
        size = HEADER_BYTES + 24 + len(unit["data"])
        delay = (
            self.dsm.cost_model[cm.PROTO_HANDLER_NS]
            + len(unit["data"]) * self.dsm.cost_model[cm.SERIALIZE_PER_BYTE_NS]
        )
        for dst in targets:
            if broadcast:
                self.dsm.stats.pol_bcasts += 1
            else:
                self.dsm.stats.pol_pushes += 1
                self._readers[gid][dst] = version
            self._emit(kind, f"gid={gid:#x} v{version} -> n{dst}")
            self.dsm.engine.schedule(
                delay,
                lambda d=dst: self.transport.send(
                    d, msg_type, dict(payload), size_bytes=size))

    # ------------------------------------------------------------------
    # Push / broadcast install (receiver side)
    # ------------------------------------------------------------------
    def _on_push(self, msg: Message) -> None:
        """Installed or dropped, as the unit's row says."""
        self.dsm.arrive(msg.msg_type, msg.payload["gid"], msg.payload)

    # ------------------------------------------------------------------
    # Migratory grants
    # ------------------------------------------------------------------
    def _make_grant(self, gid: int, grantee: int,
                    on_token: bool = False) -> Dict[str, Any]:
        """Hand the local master to ``grantee`` through the locality
        agent's grant-out path and forget what this node had learnt
        about the unit.  A bootstrap grant rides the M_DIFF_ACK (same
        shape as a locality migration grant; installed by
        ``LocalityAgent.on_deliver`` on the grantee); a steady-state one
        rides the lock token."""
        grant = self.locality.grant_out(gid, grantee,
                                        with_lock_owner=not on_token)
        self.dsm.stats.pol_grants += 1
        self.profiler.reset(gid)
        if not on_token:
            self._readers.pop(gid, None)
        self._last_pattern.pop(gid, None)
        self._emit("policy.grant",
                   f"gid={gid:#x} home {self.node_id} -> {grantee} "
                   f"epoch {grant['epoch']}" + (" (token)" if on_token else ""))
        return grant

    def on_token_send(self, gid: int, req: Any,
                      payload: Dict[str, Any]) -> int:
        """Steady state: when a migratory unit's token leaves its
        current home, the master travels with it.  Returns the extra
        wire bytes the grant adds to the token frame."""
        if self.manager.policy_of(gid) != POLICY_MIGRATORY:
            return 0
        if req.node == self.node_id or self.dsm.is_split(gid):
            return 0
        if self.dsm.home_node(gid) != self.node_id:
            return 0
        grant = self._make_grant(gid, req.node, on_token=True)
        payload["pol_grant"] = grant
        return 24 + len(grant["data"])

    def on_deliver(self, msg: Message) -> None:
        """Install a token-borne master BEFORE the token's notice delta
        is applied: the fresh master makes the unit's own notice a
        no-op, and the owner update resolves locally."""
        grant = (msg.payload.get("pol_grant")
                 if msg.msg_type == M_TOKEN else None)
        if grant is None:
            return
        if not self.locality.install_grant(grant, TOKEN_GRANT):
            return  # a strictly newer migration moved the unit onward
        self._emit("policy.grant_install",
                   f"gid={grant['gid']:#x} v{grant['version']} "
                   f"epoch {grant['epoch']}")

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------
    def on_recovery(self, dead: int) -> None:
        self._readers.clear()
        self._streak.clear()
        self._last_pattern.clear()
        self.profiler = AccessProfiler(WINDOW)
