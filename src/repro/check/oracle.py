"""Sequentially-consistent single-copy reference oracle.

The oracle maintains a *single-copy DSM*: a golden snapshot of every
shared coherency unit at every version the protocol ever published
(served in a fetch reply or produced by a diff application at the home).
Because the home applies diffs in a total order per coherency unit, this
replay is exactly the state a trivial one-copy memory would hold after
the same logical access/sync trace.

Against that reference the oracle cross-checks:

* **install integrity** — the data a cache installs from a fetch reply
  is bit-identical to the golden state of the version the home served
  (catches transport corruption, mis-applied diffs, version mix-ups);
* **final heap convergence** — when the run ends, every clean replica
  matches the golden state of its version, and every master matches the
  golden state of its current version.

Benign data races are handled soundly: a home that is written between
two releases may serve the *same* version with different contents (LRC
permits either value for a racy read), so the golden store keeps every
distinct snapshot observed per version and installs must match one of
them.  Replicas that were written locally since their last install are
excluded from the final convergence check — their divergence from the
base version is exactly the pending multiple-writer diff.

Use together with :class:`~repro.check.monitor.InvariantMonitor`; the
runner (:mod:`repro.check.runner`) additionally compares the program's
result and console output against an un-instrumented single-JVM run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..dsm.objectstate import ObjState, unit_key
from ..dsm.protocol import M_DIFF, M_FETCH_REPLY, DsmEngine
from ..jvm.heap import ArrayObj, Obj
from ..net.message import (M_LOC_BULK_REPLY, M_LOC_FWD_DIFF, M_POL_BCAST,
                           M_POL_PUSH, Message)
from .monitor import Violation

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.javasplit import JavaSplitRuntime

#: Slot-level stand-in for NaN so snapshots compare by equality.
_NAN = ("double", "nan")


def normalize_slots(slots) -> Tuple[Any, ...]:
    """A comparable snapshot of heap slots: refs become their gids."""
    out = []
    for v in slots:
        if isinstance(v, (Obj, ArrayObj)):
            hdr = v.header
            gid = hdr.gid if hdr is not None else 0
            # An unpromoted ref has no global identity; it can never have
            # crossed the wire, so tag it by local identity.
            out.append(("ref", gid) if gid else ("localref", id(v)))
        elif isinstance(v, float) and math.isnan(v):
            out.append(_NAN)
        else:
            out.append(v)
    return tuple(out)


class SingleCopyOracle:
    """Cross-checks a runtime's DSM traffic against a single-copy heap."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        # Optional callback fired on every violation with (node, kind,
        # detail) — the flight recorder hooks in here to dump postmortems.
        self.on_violation: Optional[Any] = None
        self._engine = None
        self._runtime = None
        self._workers: List[Any] = []
        # key -> version -> list of acceptable normalized snapshots.
        self._golden: Dict[Any, Dict[int, List[Tuple[Any, ...]]]] = {}
        # Replicas written locally since their last install: (node, key).
        self._tainted: set = set()
        self.checked_installs = 0
        self.checked_final = 0

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, runtime: "JavaSplitRuntime") -> "SingleCopyOracle":
        oracle = cls()
        oracle._engine = runtime.engine
        oracle._runtime = runtime
        for worker in runtime.workers:
            oracle._wrap(worker.dsm)
            oracle._workers.append(worker)
        # Workers that join mid-run publish versions too; without
        # wrapping them their diffs would look "never published" to
        # every prefetch/install check on the original nodes.
        runtime.worker_added_hooks.append(oracle._on_worker_added)
        obs = getattr(runtime, "obs", None)
        if obs is not None and getattr(obs, "flight_enabled", False):
            oracle.on_violation = obs.dump_on_violation
        return oracle

    def _on_worker_added(self, worker: Any) -> None:
        self._wrap(worker.dsm)
        self._workers.append(worker)

    # ------------------------------------------------------------------
    def report(self, node: int, kind: str, detail: str) -> None:
        self.violations.append(Violation(
            self._engine.now if self._engine else 0, node, kind, detail
        ))
        if self.on_violation is not None:
            self.on_violation(node, kind, detail)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (f"oracle: {self.checked_installs} installs, "
                f"{self.checked_final} final replicas checked")
        if not self.violations:
            return head + ", ok"
        lines = [head + f", {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @staticmethod
    def _unit_slots(dsm: DsmEngine, key: Any) -> list:
        """The raw slots of one coherency unit (whole object or region)."""
        obj, _rec, lo, hi = dsm.unit(key)
        return (obj.data if isinstance(obj, ArrayObj) else obj.fields)[lo:hi]

    def _record(self, key: Any, version: int,
                snapshot: Tuple[Any, ...]) -> None:
        versions = self._golden.setdefault(key, {})
        snaps = versions.setdefault(version, [])
        if snapshot not in snaps:
            snaps.append(snapshot)

    # ------------------------------------------------------------------
    def _wrap(self, dsm: DsmEngine) -> None:
        node = dsm.node_id
        locality = self._runtime.locality
        loc = None if locality is None else locality.agents.get(node)
        has_loc = loc is not None

        def record_current(key):
            """A unit's current version and content become golden."""
            self._record(key, dsm.unit(key)[1].version, normalize_slots(
                self._unit_slots(dsm, key)))

        # --- home: serving a fetch publishes a version ----------------
        serve_fetch = dsm._serve_fetch

        def recording_serve_fetch(requester, obj, region=None):
            serve_fetch(requester, obj, region)
            record_current(unit_key(obj.header.gid, region))

        dsm._serve_fetch = recording_serve_fetch

        # --- home: applying a diff creates a version ------------------
        # Wrap the registered handler so monitor + oracle compose.
        on_diff = dsm.transport._handlers[M_DIFF]

        def record_applied_entries(payload):
            """Record the post-apply golden state of every entry this
            node mastered; shared by M_DIFF and the locality forward."""
            for gid, _diff, region in payload["entries"]:
                obj = dsm.cache.get(gid)
                if obj is None:  # pragma: no cover - _on_diff raised
                    continue
                # Only whole-object units ever migrate.
                migratable = has_loc and region is None
                if migratable and obj.header.state != ObjState.HOME:
                    # Split/forwarded entry (not applied here) or one
                    # granted away by the migration the apply triggered
                    # (the grant wrap below records that version).
                    continue
                if migratable and loc.folds_own_diff(gid, payload["writer"]):
                    # The agent dropped this entry: it is the node's own
                    # pre-grant diff, already folded into the master it
                    # installed — nothing new was published.
                    continue
                record_current(unit_key(gid, region))

        def recording_on_diff(msg: Message):
            on_diff(msg)
            record_applied_entries(msg.payload)

        dsm.transport._handlers[M_DIFF] = recording_on_diff

        # --- locality: forwarded applies and migration grants ---------
        on_fwd_diff = dsm.transport._handlers.get(M_LOC_FWD_DIFF)
        if on_fwd_diff is not None:
            def recording_on_fwd_diff(msg: Message,
                                      _inner=on_fwd_diff):
                _inner(msg)
                record_applied_entries(msg.payload)

            dsm.transport._handlers[M_LOC_FWD_DIFF] = recording_on_fwd_diff

        if has_loc:
            # A grant publishes the unit at its (possibly just-bumped)
            # version; the new home may serve that version before any
            # further diff touches it.
            grant_unit = dsm._loc_grant_unit

            def recording_grant_unit(gid):
                unit = grant_unit(gid)
                if unit is not None:
                    self._record(gid, unit["version"], normalize_slots(
                        self._unit_slots(dsm, gid)))
                return unit

            dsm._loc_grant_unit = recording_grant_unit

            # A grant install may fold the grantee's own in-flight
            # diffs into the master (the grant install keeps the local
            # working copy): that folded state is published at the
            # grant's version and is what later serves start from.
            ft_install = dsm.ft_install_master

            def recording_ft_install_master(unit):
                ft_install(unit)
                if unit.get("region") is not None:
                    return
                obj = dsm.cache.get(unit["gid"])
                if obj is not None and obj.header is not None \
                        and obj.header.state == ObjState.HOME:
                    self._record(unit["gid"], obj.header.version,
                                 normalize_slots(
                                     self._unit_slots(dsm, unit["gid"])))

            dsm.ft_install_master = recording_ft_install_master

            # A bulk prefetch serve publishes versions like a fetch
            # serve does...
            serve_bulk = dsm._serve_bulk

            def recording_serve_bulk(requester, gids):
                units = serve_bulk(requester, gids)
                for unit in units:
                    obj = dsm.cache.get(unit["gid"])
                    if obj is None:  # pragma: no cover - just served
                        continue
                    self._record(unit["gid"], unit["version"],
                                 normalize_slots(
                                     self._unit_slots(dsm, unit["gid"])))
                return units

            dsm._serve_bulk = recording_serve_bulk

        # ...and a prefetch install must match the served golden state.
        on_bulk_reply = dsm.transport._handlers.get(M_LOC_BULK_REPLY)
        if on_bulk_reply is not None:
            def checking_on_bulk_reply(msg: Message,
                                       _inner=on_bulk_reply):
                _inner(msg)
                for unit in msg.payload["units"]:
                    gid = unit["gid"]
                    obj = dsm.cache.get(gid)
                    if obj is None or obj.header is None:
                        continue
                    if obj.header.state != ObjState.VALID \
                            or obj.header.version != unit["version"]:
                        continue  # agent rejected this unit as stale
                    self._tainted.discard((node, gid))
                    got = normalize_slots(self._unit_slots(dsm, gid))
                    self._check(node, gid, unit["version"], got,
                                "prefetch install")
                    self.checked_installs += 1

            dsm.transport._handlers[M_LOC_BULK_REPLY] = \
                checking_on_bulk_reply

        # --- policy: a push/broadcast publishes its version at the
        # home and must install golden state at the receiver ------------
        policy = self._runtime.policy
        pol = None if policy is None else policy.agents.get(node)
        if pol is not None:
            publish_unit = pol.publish_unit

            def recording_publish_unit(gid, _inner=publish_unit):
                unit = _inner(gid)
                if unit is not None:
                    self._record(gid, unit["version"], normalize_slots(
                        self._unit_slots(dsm, gid)))
                return unit

            pol.publish_unit = recording_publish_unit

            def checking_on_pol_push(msg: Message, _inner=None):
                # The agent's install counters disambiguate a guarded
                # skip (stale push, dirty replica, fetch in flight)
                # from an actual install.
                before = (dsm.stats.pol_push_installs
                          + dsm.stats.pol_bcast_installs)
                _inner(msg)
                after = (dsm.stats.pol_push_installs
                         + dsm.stats.pol_bcast_installs)
                if after == before:
                    return  # push rejected by the install guards
                gid = msg.payload["gid"]
                obj = dsm.cache.get(gid)
                if obj is None:  # pragma: no cover - just installed
                    return
                self._tainted.discard((node, gid))
                got = normalize_slots(self._unit_slots(dsm, gid))
                self._check(node, gid, msg.payload["version"], got,
                            "push install")
                self.checked_installs += 1

            for mtype in (M_POL_PUSH, M_POL_BCAST):
                inner = dsm.transport._handlers.get(mtype)
                if inner is not None:
                    dsm.transport._handlers[mtype] = (
                        lambda msg, _inner=inner:
                        checking_on_pol_push(msg, _inner=_inner))

        # --- cache: a flushed local write taints the replica ----------
        transport_send = dsm.transport.send

        def tainting_send(dst, msg_type, payload=None, size_bytes=0):
            if msg_type == M_DIFF:
                for gid, _diff, region in payload["entries"]:
                    self._tainted.add((node, unit_key(gid, region)))
            return transport_send(dst, msg_type, payload, size_bytes)

        dsm.transport.send = tainting_send

        # --- cache: installs must match the served golden state -------
        on_fetch_reply = dsm.transport._handlers[M_FETCH_REPLY]

        def checking_on_fetch_reply(msg: Message):
            on_fetch_reply(msg)
            p = msg.payload
            key = unit_key(p["gid"], p.get("region"))
            self._tainted.discard((node, key))
            if dsm.unit(key) is None:  # pragma: no cover - reply always installs
                return
            got = normalize_slots(self._unit_slots(dsm, key))
            self._check(node, key, p["version"], got, "install")
            self.checked_installs += 1

        dsm.transport._handlers[M_FETCH_REPLY] = checking_on_fetch_reply

        # A write between installs also diverges the replica from its
        # base version (multiple-writer): taint on twin creation.
        write_check = dsm.write_check

        def tainting_write_check(thread, ref, value, index=None):
            ok, cost = write_check(thread, ref, value, index)
            hdr = ref.header
            if ok and hdr is not None and hdr.gid:
                if hdr.state == ObjState.VALID or dsm.is_split(hdr.gid):
                    self._tainted.add((node, unit_key(
                        hdr.gid, dsm.region_at(hdr.gid, index))))
            return ok, cost

        dsm.write_check = tainting_write_check

    # ------------------------------------------------------------------
    def _check(self, node: int, key: Any, version: int,
               got: Tuple[Any, ...], what: str) -> None:
        known = self._golden.get(key, {})
        snaps = known.get(version)
        if snaps is None:
            self.report(node, "oracle-version",
                        f"{what} of {key!r} at version {version}, which "
                        f"the single-copy reference never published "
                        f"(known: {sorted(known)})")
            return
        if got not in snaps:
            self.report(node, "oracle-state",
                        f"{what} of {key!r} at version {version} diverges "
                        f"from the single-copy reference: got {got!r}, "
                        f"expected one of {snaps!r}")

    # ------------------------------------------------------------------
    def finalize(self) -> List[Violation]:
        """Final heap convergence: clean replicas and masters must match
        the single-copy reference at their versions.

        Workers that died mid-run are skipped: recovery re-homed their
        masters, and their frozen cache left the system."""
        for worker in self._workers:
            if getattr(worker, "dead", False):
                continue
            dsm = worker.dsm
            node = dsm.node_id
            for gid, obj in dsm.cache.items():
                hdr = obj.header
                if hdr is None or not hdr.gid:
                    continue
                if dsm.is_split(gid):
                    for key in dsm.unit_keys(gid):
                        rec = dsm.unit(key)[1]
                        if (node, key) in self._tainted:
                            continue
                        if rec.twin is not None or key in dsm._dirty:
                            continue
                        if key in dsm._dirty_home:
                            continue  # adopted master with merged writes
                        if rec.state == ObjState.INVALID:
                            continue
                        if key not in self._golden:
                            continue  # never crossed the wire
                        got = normalize_slots(self._unit_slots(dsm, key))
                        self._check(node, key, rec.version, got,
                                    "final state")
                        self.checked_final += 1
                    continue
                if hdr.state == ObjState.HOME:
                    if hdr.version in self._golden.get(gid, {}) \
                            and gid not in dsm._dirty_home:
                        got = normalize_slots(self._unit_slots(dsm, gid))
                        self._check(node, gid, hdr.version, got, "master")
                        self.checked_final += 1
                elif hdr.state == ObjState.VALID:
                    if (node, gid) in self._tainted:
                        continue
                    if hdr.twin is not None or gid in dsm._dirty:
                        continue
                    got = normalize_slots(self._unit_slots(dsm, gid))
                    self._check(node, gid, hdr.version, got, "final state")
                    self.checked_final += 1
        return self.violations
