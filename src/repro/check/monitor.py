"""Protocol invariant monitor for the MTS-HLRC engine.

Attaches to every :class:`~repro.dsm.protocol.DsmEngine` of a runtime and
observes the protocol from the outside — it subscribes to the engine's
and the transport's hook points (:mod:`repro.hooks`) but keeps its own
independent bookkeeping (e.g. its own ledger of unacked diffs), so a
protocol mutation that corrupts the engine's internal counters is still
caught.

Invariants checked (violations are collected, or raised with
``strict=True``):

``release-flush``
    A release point (monitor exit, ``wait``) leaves no pending twinned
    writes behind — the diff flush of §3 is not skippable.
``fence``
    In scalar-timestamp mode a lock token never leaves a node while that
    node has diffs that are not yet acknowledged by their homes (the
    §3.1 scalar-timestamp condition).  Checked against the monitor's own
    diff/ack ledger.
``version-monotonic``
    A home's per-coherency-unit version advances by exactly one per
    applied diff and never regresses in what it ships (fetch replies,
    grants, pushes).
``diff-base``
    A diff is only applied to a master that is at least as new as the
    twin the diff was computed against.
``single-home``
    Every shared object a live node caches has exactly one live master
    copy — never none, never two — resident on the node its gid names
    (``home_of``) or, once a grant or a recovery moved it, on the node
    the runtime's home directory names.
    Each migration handoff and recovery adoption is additionally
    checked *at the instant it installs*: no two live nodes may hold a
    master of the same unit, ever.
``bounded-notices``
    In bounded scalar mode a node never stores more than one notice per
    coherency unit (the paper's §5 storage claim; vector timestamps
    keep one per CU *per writer*).
``fetch-version``
    A fetch reply's version satisfies the version the cache's notice
    table required when the fetch was issued, and never moves a replica
    backwards in time.
``transition``
    Every state change observed — an install, an invalidation, a
    demotion — is one some row of :data:`repro.dsm.transitions.TABLE`
    allows for its event, judged from the unit's state as the monitor
    reads it just before the change.  The monitor never executes a row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..dsm.objectstate import ObjState, split_key, unit_key
from ..dsm.directory import home_of
from ..dsm.protocol import (M_DIFF, M_DIFF_ACK, M_FT_REDIFF,
                            M_FT_REDIFF_ACK, SCALAR, DsmEngine)
from ..dsm.transitions import allows, label
from ..net.message import M_FT_NOTICES

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.javasplit import JavaSplitRuntime


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    time_ns: int
    node: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return (f"[{self.time_ns / 1e6:.3f}ms n{self.node}] "
                f"{self.kind}: {self.detail}")


class MonitorError(AssertionError):
    """Raised in strict mode on the first violation."""


class InvariantMonitor:
    """Observes all DSM engines of one runtime and records violations."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: List[Violation] = []
        self._engine = None               # sim engine, for timestamps
        self._runtime = None
        self._workers: List[Any] = []
        # gid -> node that promoted it (single-home claims).
        self._home_claims: Dict[int, int] = {}
        # Independent diff/ack ledger: node -> outstanding diff ack ids.
        # Keyed by ack id (not a count) so a fault-tolerance redirect of
        # an already-sent diff (``ft.rediff``, same ack id) does not
        # double-count, and the losing copy's ack can be ignored.
        self._unacked: Dict[int, Set[int]] = {}
        # Twin base versions in flight: (writer, key) -> FIFO of bases.
        self._bases: Dict[Tuple[int, Any], Deque[int]] = {}
        # Highest version a home has served / applied, per key.
        self._served: Dict[Any, int] = {}
        # Required version recorded when a cache issued a fetch.
        self._required: Dict[Tuple[int, Any], int] = {}
        # Distinct CU keys ever noticed, per node (bounded-storage bound).
        self._cu_keys: Dict[int, Set[Any]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, runtime: "JavaSplitRuntime",
               strict: bool = False) -> "InvariantMonitor":
        """Observe every worker of a runtime; returns the monitor."""
        monitor = cls(strict=strict)
        monitor._engine = runtime.engine
        monitor._runtime = runtime
        for worker in runtime.workers:
            monitor._subscribe(worker)
        # Late joiners too (the same invariants apply to them).
        runtime.hooks.worker_added.append(monitor._subscribe)
        return monitor

    # ------------------------------------------------------------------
    def report(self, node: int, kind: str, detail: str) -> None:
        v = Violation(self._engine.now if self._engine else 0,
                      node, kind, detail)
        self.violations.append(v)
        # Before the strict-mode raise, so the flight recorder dumps its
        # postmortem even when the violation aborts the run.
        if self._runtime is not None:
            for fn in self._runtime.hooks.violation:
                fn(node, kind, detail)
        if self.strict:
            raise MonitorError(str(v))

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations

    def summary(self) -> str:
        if not self.violations:
            return "invariant monitor: ok"
        lines = [f"invariant monitor: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Instrumentation: one subscriber per hook point, every one passive
    # ------------------------------------------------------------------
    def _subscribe(self, worker: Any) -> None:
        self._workers.append(worker)
        dsm = worker.dsm
        node = dsm.node_id
        transport = dsm.transport
        scalar = dsm.config.timestamp_mode == SCALAR
        # With the adaptive-locality subsystem on, a grantee drops its
        # own pre-grant diffs when they come back forwarded (they are
        # already folded into the master it installed).
        locality = self._runtime.locality
        loc = None if locality is None else locality.agents.get(node)
        unacked = self._unacked.setdefault(node, set())
        bases = self._bases
        table = dsm.notice_table
        keys = self._cu_keys.setdefault(node, set())
        # The diff batch being delivered here and the versions it found.
        batch = found = None

        def note_noticed(noticed):
            """Coherency units this node is being told about; the table
            must not hold more notices than units it has heard of.  That
            bound is the MTS (scalar) claim; HLRC's vector timestamps
            legitimately keep one notice per (CU, writer)."""
            if not scalar:
                return
            keys.update(noticed)
            if table.stored_notices > len(keys):
                self.report(node, "bounded-notices",
                            f"{table.stored_notices} notices stored for "
                            f"{len(keys)} coherency units")

        # --- promote: single-home claims -----------------------------
        def on_promote(ref, gid):
            if home_of(gid) != node:
                self.report(node, "single-home",
                            f"promoted gid {gid:#x} homed at node "
                            f"{home_of(gid)}")
            prior = self._home_claims.setdefault(gid, node)
            if prior != node:
                self.report(node, "single-home",
                            f"gid {gid:#x} already claimed by node "
                            f"{prior}")

        # --- release points must flush -------------------------------
        def on_sync_scope(entering):
            # Leaving a release / wait scope (a token arrival's scope
            # runs inside that token's delivery and flushes nothing).
            if entering or transport.delivering is not None:
                return
            if dsm._dirty or dsm._dirty_home:
                left = list(dsm._dirty) + list(dsm._dirty_home)
                self.report(node, "release-flush",
                            f"release left unflushed writes: {left}")

        # --- outbound: diff ledger + twin base capture ---------------
        def on_outbound(msg):
            if msg.msg_type == M_DIFF:
                unacked.add(msg.payload["ack_id"])
                for gid, _diff, region in msg.payload["entries"]:
                    key = unit_key(gid, region)
                    bases.setdefault((node, key), deque()).append(
                        self._version_of(dsm, key))
            elif msg.msg_type == M_FT_REDIFF:
                # Recovery re-sends an already-ledgered diff to the
                # adoptive home; same ack id, so the set-add is a no-op
                # and the twin bases must not be re-queued.
                unacked.add(msg.payload["ack_id"])
            return False

        # --- deliver: ack ledger, and the versions a diff batch finds -
        def on_deliver(msg):
            nonlocal batch, found
            mtype = msg.msg_type
            p = msg.payload
            if mtype == M_DIFF_ACK or mtype == M_FT_REDIFF_ACK:
                ack_id = p["ack_id"]
                # A rediff ack can lose the race against the original
                # ack; the engine ignores it then, and so does the ledger.
                if mtype == M_DIFF_ACK and ack_id not in unacked:
                    self.report(node, "fence",
                                f"ack for unknown diff {ack_id} observed")
                unacked.discard(ack_id)
                note_noticed(key for key, _version in p["versions"])
            elif mtype == M_FT_NOTICES:
                note_noticed(key for key, _version in p["notices"])
            elif "entries" in p and mtype != M_FT_REDIFF:
                # A diff batch (direct, or forwarded by the old home of
                # a migrated unit): snapshot the versions it finds; the
                # entries applied here come back in ``home_advance``.
                # A recovery re-apply of a batch the dead home may have
                # applied already is not held to the +1 / twin-base rules.
                writer = p["writer"]
                found = {}
                for gid, _diff, region in p["entries"]:
                    key = unit_key(gid, region)
                    if (loc is not None and region is None
                            and dsm.home_node(gid) == node
                            and loc.folds_own_diff(
                                gid, writer, p["interval"])):
                        # Dropped, not applied: settle the twin-base
                        # FIFO slot, expect no version movement.
                        fifo = bases.get((writer, key))
                        if fifo:
                            fifo.popleft()
                        continue
                    found[key] = self._version_of(dsm, key)
                batch = msg

        # --- diff apply at home --------------------------------------
        def on_home_advance(advanced, writer):
            note_noticed(key for key, _version in advanced)
            if batch is None or batch is not transport.delivering \
                    or writer is None:
                return  # the home's own flush, or a grant's pending write
            if writer == node:
                # Read-your-writes: a grant install folds the grantee's
                # in-flight flushes into the master, and drops them when
                # they come back around.  One applied was missing since
                # the install and rolls back what was written meanwhile.
                self.report(node, "own-diff",
                            f"node applied its own earlier flush of "
                            f"{[key for key, _v in advanced]!r} to its master")
            for key, after in advanced:
                before = found.pop(key, None)
                if before is None:
                    continue
                if after != before + 1:
                    self.report(node, "version-monotonic",
                                f"diff apply moved {key!r} "
                                f"{before} -> {after}")
                fifo = bases.get((writer, key))
                if fifo:
                    base = fifo.popleft()
                    if before < base:
                        self.report(node, "diff-base",
                                    f"diff for {key!r} from node {writer} "
                                    f"built on version {base} applied to "
                                    f"master at {before}")

        # --- token transfer: the scalar-timestamp fence --------------
        def on_token_send(gid, req, payload):
            if scalar and unacked:
                self.report(node, "fence",
                            f"token for gid {gid:#x} leaving with "
                            f"{len(unacked)} unacked diff(s)")
            return 0

        def on_token_notices(notices):
            note_noticed(notice.gid for notice in notices)

        # --- fetch path ----------------------------------------------
        def on_block(thread, kind, gid, region, carrier):
            if kind == "fetch" and scalar:
                key = unit_key(gid, region)
                self._required[(node, key)] = table.required_scalar(key)

        def on_unit_shipped(key, unit):
            version = unit["version"]
            last = self._served.get(key, 0)
            if version < last:
                self.report(node, "version-monotonic",
                            f"home served {key!r} at version {version} "
                            f"after serving {last}")
            else:
                self._served[key] = version

        def on_unit_installed(key, unit, role, before):
            gid, region = split_key(key)
            if role == ObjState.HOME:
                # The one door through which a master ever moves
                # (migration grants and recovery adoptions): right
                # after it, no other live node may still hold a master
                # of the same whole-object unit.
                if region is not None:
                    return
                holders = []
                for w in self._workers:
                    obj = w.dsm.cache.get(gid)
                    if (not w.dead and obj is not None
                            and obj.header.state == ObjState.HOME):
                        holders.append(w.node_id)
                if len(holders) > 1:
                    self.report(node, "single-home",
                                f"gid {gid:#x} has master copies on "
                                f"nodes {holders} at install")
                return
            was = before[1]
            version = unit["version"]
            if (gid, region) in dsm._fetch_targets:
                # The reply to a fetch (or prefetch) this node issued.
                if version < was:
                    self.report(node, "fetch-version",
                                f"reply moved replica {key!r} backwards "
                                f"{was} -> {version}")
            else:
                # Unsolicited (a policy push / broadcast): never moves
                # a replica backwards.  (No copy, asked for or not, ever
                # lands on a master: the ``transition`` check holds the
                # engine to the table, whose rows drop it.)
                if version < was:
                    self.report(node, "version-monotonic",
                                f"push moved replica gid {gid:#x} "
                                f"backwards {was} -> {version}")
            required = self._required.pop((node, key), None)
            if required is not None and version < required:
                self.report(node, "fetch-version",
                            f"reply for {key!r} at version {version} "
                            f"below required {required}")

        # --- every state change against the transition table ---------
        def on_transition(event, key, after):
            unit = dsm.unit(key)
            if unit is None:
                before = (None, False, False)
            else:
                rec = unit[1]
                before = (rec.state, rec.twin is not None,
                          (key if key.__class__ is tuple else (key, None))
                          in dsm._fetch_targets)
            if not allows(event, before, after):
                self.report(node, "transition",
                            f"{event} took {key!r} from {label(before)} "
                            f"to {after.name}: no row allows it")

        hooks = dsm.hooks
        hooks.transition.append(on_transition)
        hooks.promote.append(on_promote)
        hooks.sync_scope.append(on_sync_scope)
        hooks.home_advance.append(on_home_advance)
        hooks.token_send.append(on_token_send)
        hooks.token_notices.append(on_token_notices)
        hooks.block.append(on_block)
        hooks.unit_shipped.append(on_unit_shipped)
        hooks.unit_installed.append(on_unit_installed)
        transport.hooks.outbound.append(on_outbound)
        transport.hooks.deliver.append(on_deliver)

    # ------------------------------------------------------------------
    @staticmethod
    def _version_of(dsm: DsmEngine, key: Any) -> Optional[int]:
        """Current local version of a coherency unit (master or replica)."""
        unit = dsm.unit(key)
        return None if unit is None else unit[1].version

    # ------------------------------------------------------------------
    # End-of-run structural scan
    # ------------------------------------------------------------------
    def finalize(self) -> List[Violation]:
        """Post-run structural checks; returns all violations so far.

        Workers that died mid-run are skipped: their frozen cache is no
        longer part of the system (recovery re-homed their masters).
        Every unit a live node caches has exactly one live master, on
        the node the runtime's home directory names."""
        holders: Dict[int, List[int]] = {}
        cached: Dict[int, int] = {}   # gid -> a live node caching it
        for worker in self._workers:
            if getattr(worker, "dead", False):
                continue
            dsm = worker.dsm
            node = dsm.node_id
            for gid, obj in dsm.cache.items():
                hdr = obj.header
                if hdr is None:
                    continue
                cached.setdefault(gid, node)
                if hdr.state == ObjState.HOME:
                    holders.setdefault(gid, []).append(node)
                    # The master's own node knows it is home (a grant
                    # or a recovery wrote its view).
                    if dsm.home_node(gid) != node:
                        self.report(node, "single-home",
                                    f"master for gid {gid:#x} resident at "
                                    f"node {node}, homed at "
                                    f"{dsm.home_node(gid)}")
            if dsm._outstanding_acks:
                self.report(node, "fence",
                            f"{dsm._outstanding_acks} diff ack(s) "
                            "outstanding at end of run")
        homes = self._runtime.homes
        for gid in sorted(cached):
            nodes = holders.get(gid)
            if nodes is None:
                self.report(cached[gid], "single-home",
                            f"gid {gid:#x} is cached with no live master")
            elif len(nodes) != 1:
                self.report(nodes[0], "single-home",
                            f"gid {gid:#x} has {len(nodes)} master copies "
                            f"(nodes {nodes})")
            elif homes.home(gid) != nodes[0]:
                self.report(nodes[0], "single-home",
                            f"master for gid {gid:#x} resident at node "
                            f"{nodes[0]}, the home directory names "
                            f"{homes.home(gid)}")
        return self.violations
