"""Protocol invariant monitor for the MTS-HLRC engine.

Attaches to every :class:`~repro.dsm.protocol.DsmEngine` of a runtime and
observes the protocol from the outside — it wraps hook methods and
message handlers but keeps its own independent bookkeeping (e.g. its own
ledger of unacked diffs), so a protocol mutation that corrupts the
engine's internal counters is still caught.

Invariants checked (violations are collected, or raised with
``strict=True``):

``release-flush``
    A release point (``end_interval``) leaves no pending twinned writes
    behind — the diff flush of §3 is not skippable.
``fence``
    In scalar-timestamp mode a lock token never leaves a node while that
    node has diffs that are not yet acknowledged by their homes (the
    §3.1 scalar-timestamp condition).  Checked against the monitor's own
    diff/ack ledger.
``version-monotonic``
    A home's per-coherency-unit version advances by exactly one per
    applied diff and never regresses in fetch replies.
``diff-base``
    A diff is only applied to a master that is at least as new as the
    twin the diff was computed against.
``single-home``
    Every shared object has exactly one master copy, resident on the
    node its gid names (``home_of``) — or, once the adaptive-locality
    subsystem has migrated it, on the node the home directory names.
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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..dsm.objectstate import ObjState, unit_key
from ..dsm.directory import home_of
from ..dsm.protocol import M_DIFF, M_FT_REDIFF, SCALAR, DsmEngine
from ..net.message import M_LOC_FWD_DIFF, M_POL_BCAST, M_POL_PUSH, Message

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
        # Optional callback fired on every violation with (node, kind,
        # detail) — before the strict-mode raise, so the flight recorder
        # dumps its postmortem even when the violation aborts the run.
        self.on_violation: Optional[Any] = None
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
        """Instrument every worker of a runtime; returns the monitor."""
        monitor = cls(strict=strict)
        monitor._engine = runtime.engine
        monitor._runtime = runtime
        for worker in runtime.workers:
            monitor._wrap(worker.dsm)
            monitor._workers.append(worker)
        # Instrument late joiners too (same invariants apply to them).
        runtime.worker_added_hooks.append(monitor._on_worker_added)
        obs = getattr(runtime, "obs", None)
        if obs is not None and getattr(obs, "flight_enabled", False):
            monitor.on_violation = obs.dump_on_violation
        return monitor

    def _on_worker_added(self, worker: Any) -> None:
        self._wrap(worker.dsm)
        self._workers.append(worker)

    # ------------------------------------------------------------------
    def report(self, node: int, kind: str, detail: str) -> None:
        v = Violation(self._engine.now if self._engine else 0,
                      node, kind, detail)
        self.violations.append(v)
        if self.on_violation is not None:
            self.on_violation(node, kind, detail)
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
    # Instrumentation
    # ------------------------------------------------------------------
    def _wrap(self, dsm: DsmEngine) -> None:
        node = dsm.node_id
        scalar = dsm.config.timestamp_mode == SCALAR
        # With the adaptive-locality subsystem on, a diff can be split
        # (entries homed elsewhere are forwarded, not applied here) and
        # a migration grant can advance the version past the +1 the
        # plain apply produces — the per-entry checks adapt below.
        locality = self._runtime.locality
        loc = None if locality is None else locality.agents.get(node)
        has_loc = loc is not None
        self._unacked.setdefault(node, set())
        self._cu_keys.setdefault(node, set())

        # --- promote: single-home claims -----------------------------
        promote = dsm.promote

        def checked_promote(ref):
            fresh = ref.header is None or not ref.header.gid
            gid = promote(ref)
            if fresh:
                if home_of(gid) != node:
                    self.report(node, "single-home",
                                f"promoted gid {gid:#x} homed at node "
                                f"{home_of(gid)}")
                prior = self._home_claims.setdefault(gid, node)
                if prior != node:
                    self.report(node, "single-home",
                                f"gid {gid:#x} already claimed by node "
                                f"{prior}")
            return gid

        dsm.promote = checked_promote

        # --- end_interval: releases must flush -----------------------
        end_interval = dsm.end_interval

        def checked_end_interval(thread):
            end_interval(thread)
            if dsm._dirty or dsm._dirty_home:
                left = list(dsm._dirty) + list(dsm._dirty_home)
                self.report(node, "release-flush",
                            f"release left unflushed writes: {left}")

        dsm.end_interval = checked_end_interval

        # --- transport.send: diff ledger + twin base capture ---------
        transport_send = dsm.transport.send

        def checked_send(dst, msg_type, payload=None, size_bytes=0):
            if msg_type == M_DIFF:
                self._unacked[node].add(payload["ack_id"])
                for gid, _diff, region in payload["entries"]:
                    key = unit_key(gid, region)
                    self._bases.setdefault((node, key), deque()).append(
                        self._version_of(dsm, key))
            elif msg_type == M_FT_REDIFF:
                # Recovery re-sends an already-ledgered diff to the
                # adoptive home; same ack id, so the set-add is a no-op
                # and the twin bases must not be re-queued.
                self._unacked[node].add(payload["ack_id"])
            return transport_send(dst, msg_type, payload, size_bytes)

        dsm.transport.send = checked_send

        # --- diff apply at home --------------------------------------
        # Wrap the *registered* handler (not the engine method) so
        # several observers compose in attach order.
        on_diff = dsm.transport._handlers[M_DIFF]

        def pre_applied_entries(payload):
            """Version snapshot of the entries this node will apply
            (skipping entries a locality split forwards elsewhere);
            also returns the keys the locality agent will DROP because
            they are this node's own pre-grant diffs, already folded
            into the master it installed."""
            pre = {}
            folded = set()
            for gid, _diff, region in payload["entries"]:
                # Only whole-object units ever migrate.
                migratable = has_loc and region is None
                if migratable and dsm.home_node(gid) != node:
                    continue  # forwarded to the migrated home, not applied
                key = unit_key(gid, region)
                if migratable and loc.folds_own_diff(gid, payload["writer"]):
                    folded.add(key)
                pre[key] = self._version_of(dsm, key)
            return pre, folded

        def post_applied_entries(payload, pre, folded):
            """Version and twin-base checks after a diff apply; shared
            by M_DIFF and the locality forward."""
            writer = payload["writer"]
            for key, before in pre.items():
                fifo = self._bases.get((writer, key))
                if key in folded:
                    # Dropped, not applied: settle the twin-base FIFO
                    # slot but expect no version movement.
                    if fifo:
                        fifo.popleft()
                    continue
                after = self._version_of(dsm, key)
                # A migration grant resolves the home's own pending
                # write on top of the apply, so +2 is legitimate with
                # locality on; regression never is.
                bad = (after < before + 1) if has_loc \
                    else (after != before + 1)
                if before is not None and bad:
                    self.report(node, "version-monotonic",
                                f"diff apply moved {key!r} "
                                f"{before} -> {after}")
                if fifo:
                    base = fifo.popleft()
                    if before is not None and before < base:
                        self.report(node, "diff-base",
                                    f"diff for {key!r} from node {writer} "
                                    f"built on version {base} applied to "
                                    f"master at {before}")

        def checked_on_diff(msg: Message):
            pre, folded = pre_applied_entries(msg.payload)
            on_diff(msg)
            post_applied_entries(msg.payload, pre, folded)

        self._replace_handler(dsm, M_DIFF, checked_on_diff)

        # --- locality: forwarded diff applies at the migrated home ----
        on_fwd_diff = dsm.transport._handlers.get(M_LOC_FWD_DIFF)
        if on_fwd_diff is not None:
            def checked_on_fwd_diff(msg: Message):
                pre, folded = pre_applied_entries(msg.payload)
                on_fwd_diff(msg)
                post_applied_entries(msg.payload, pre, folded)

            self._replace_handler(dsm, M_LOC_FWD_DIFF,
                                  checked_on_fwd_diff)

        # --- diff acks: ledger settle --------------------------------
        from ..dsm.protocol import M_DIFF_ACK, M_FT_REDIFF_ACK

        on_diff_ack = dsm.transport._handlers[M_DIFF_ACK]

        def checked_on_diff_ack(msg: Message):
            ack_id = msg.payload["ack_id"]
            if ack_id not in self._unacked[node]:
                self.report(node, "fence",
                            f"ack for unknown diff {ack_id} observed")
            self._unacked[node].discard(ack_id)
            on_diff_ack(msg)

        dsm.transport._handlers[M_DIFF_ACK] = checked_on_diff_ack

        on_rediff_ack = dsm.transport._handlers[M_FT_REDIFF_ACK]

        def checked_on_rediff_ack(msg: Message):
            # A rediff ack can lose the race against the original ack;
            # the engine ignores it then, and so does the ledger.
            self._unacked[node].discard(msg.payload["ack_id"])
            on_rediff_ack(msg)

        dsm.transport._handlers[M_FT_REDIFF_ACK] = checked_on_rediff_ack

        # --- token transfer: the scalar-timestamp fence --------------
        send_token = dsm._send_token

        def checked_send_token(st, req):
            if scalar and self._unacked[node]:
                self.report(node, "fence",
                            f"token for gid {st.gid:#x} leaving with "
                            f"{len(self._unacked[node])} unacked diff(s)")
            send_token(st, req)

        dsm._send_token = checked_send_token

        # --- fetch path ----------------------------------------------
        start_fetch = dsm._start_fetch

        def checked_start_fetch(thread, hdr, region=None):
            key = unit_key(hdr.gid, region)
            if scalar:
                self._required[(node, key)] = \
                    dsm.notice_table.required_scalar(key)
            start_fetch(thread, hdr, region)

        dsm._start_fetch = checked_start_fetch

        serve_fetch = dsm._serve_fetch

        def checked_serve_fetch(requester, obj, region=None):
            key = unit_key(obj.header.gid, region)
            version = self._version_of(dsm, key)
            last = self._served.get(key)
            if last is not None and version is not None and version < last:
                self.report(node, "version-monotonic",
                            f"home served {key!r} at version {version} "
                            f"after serving {last}")
            if version is not None:
                self._served[key] = max(self._served.get(key, 0), version)
            serve_fetch(requester, obj, region)

        dsm._serve_fetch = checked_serve_fetch

        # --- locality: bulk prefetch serves publish versions too ------
        serve_bulk = dsm._serve_bulk

        def checked_serve_bulk(requester, gids):
            for gid in gids:
                obj = dsm.cache.get(gid)
                if obj is None or obj.header is None \
                        or obj.header.state != ObjState.HOME \
                        or dsm.is_split(gid):
                    continue  # not served; the reply only echoes it
                version = obj.header.version
                last = self._served.get(gid)
                if last is not None and version < last:
                    self.report(node, "version-monotonic",
                                f"bulk serve of gid {gid:#x} at version "
                                f"{version} after serving {last}")
                self._served[gid] = max(self._served.get(gid, 0), version)
            return serve_bulk(requester, gids)

        dsm._serve_bulk = checked_serve_bulk

        # --- per-instant single-home across migrations/adoptions ------
        # ft_install_master is the one door through which a master ever
        # moves (migration grants and recovery adoptions both use it);
        # right after it runs, no other live node may still hold a
        # master of the same whole-object unit.
        ft_install = dsm.ft_install_master

        def checked_ft_install_master(unit):
            ft_install(unit)
            if unit.get("region") is None:
                gid = unit["gid"]
                holders = []
                for w in self._workers:
                    if getattr(w, "dead", False):
                        continue
                    obj = w.dsm.cache.get(gid)
                    if obj is not None and obj.header is not None \
                            and obj.header.state == ObjState.HOME:
                        holders.append(w.node_id)
                if len(holders) > 1:
                    self.report(node, "single-home",
                                f"gid {gid:#x} has master copies on "
                                f"nodes {holders} at install")

        dsm.ft_install_master = checked_ft_install_master

        from ..dsm.protocol import M_FETCH_REPLY

        on_fetch_reply = dsm.transport._handlers[M_FETCH_REPLY]

        def checked_on_fetch_reply(msg: Message):
            p = msg.payload
            key = unit_key(p["gid"], p.get("region"))
            before = self._version_of(dsm, key)
            on_fetch_reply(msg)
            version = p["version"]
            if before is not None and version < before:
                self.report(node, "fetch-version",
                            f"reply moved replica {key!r} backwards "
                            f"{before} -> {version}")
            required = self._required.pop((node, key), None)
            if required is not None and version < required:
                self.report(node, "fetch-version",
                            f"reply for {key!r} at version {version} "
                            f"below required {required}")

        self._replace_handler(dsm, M_FETCH_REPLY, checked_on_fetch_reply)

        # --- policy: a push/broadcast install never moves a replica
        # backwards and never touches a master -------------------------
        def checked_on_pol_push(msg: Message, _inner=None):
            gid = msg.payload["gid"]
            obj = dsm.cache.get(gid)
            was_home = (obj is not None and obj.header is not None
                        and obj.header.state == ObjState.HOME)
            before = self._version_of(dsm, gid)
            _inner(msg)
            after = self._version_of(dsm, gid)
            if before is not None and after is not None and after < before:
                self.report(node, "version-monotonic",
                            f"push moved replica gid {gid:#x} backwards "
                            f"{before} -> {after}")
            if was_home and after != before:
                self.report(node, "single-home",
                            f"push overwrote the master of gid {gid:#x}")

        for mtype in (M_POL_PUSH, M_POL_BCAST):
            pol_inner = dsm.transport._handlers.get(mtype)
            if pol_inner is not None:
                self._replace_handler(
                    dsm, mtype,
                    lambda msg, _inner=pol_inner:
                    checked_on_pol_push(msg, _inner=_inner))

        # --- bounded notice storage ----------------------------------
        table = dsm.notice_table
        table_add = table.add
        # The one-notice-per-CU bound is the MTS (scalar) claim; vector
        # timestamps legitimately keep one notice per (CU, writer).
        bounded = table.mode == "bounded" and scalar
        keys = self._cu_keys[node]

        def checked_add(notice):
            advanced = table_add(notice)
            keys.add(notice.gid)
            if bounded and table.stored_notices > len(keys):
                self.report(node, "bounded-notices",
                            f"{table.stored_notices} notices stored for "
                            f"{len(keys)} coherency units")
            return advanced

        table.add = checked_add

    # ------------------------------------------------------------------
    @staticmethod
    def _replace_handler(dsm: DsmEngine, msg_type: str, wrapper) -> None:
        dsm.transport._handlers[msg_type] = wrapper

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
        longer part of the system (recovery re-homed their masters)."""
        holders: Dict[int, List[int]] = {}
        for worker in self._workers:
            if getattr(worker, "dead", False):
                continue
            dsm = worker.dsm
            node = dsm.node_id
            for gid, obj in dsm.cache.items():
                hdr = obj.header
                if hdr is None:
                    continue
                if hdr.state == ObjState.HOME:
                    holders.setdefault(gid, []).append(node)
                    # home_node() follows recovery's re-homing redirects
                    # (it is home_of() when no node has died).
                    if dsm.home_node(gid) != node:
                        self.report(node, "single-home",
                                    f"master for gid {gid:#x} resident at "
                                    f"node {node}, homed at "
                                    f"{dsm.home_node(gid)}")
            if dsm._outstanding_acks:
                self.report(node, "fence",
                            f"{dsm._outstanding_acks} diff ack(s) "
                            "outstanding at end of run")
        for gid, nodes in holders.items():
            if len(nodes) != 1:
                self.report(nodes[0], "single-home",
                            f"gid {gid:#x} has {len(nodes)} master copies "
                            f"(nodes {nodes})")
        return self.violations
