"""Sequentially-consistent single-copy reference oracle.

The oracle maintains a *single-copy DSM*: a golden snapshot of every
shared coherency unit at every version the protocol ever published
(shipped by a home in a fetch or prefetch reply, a grant or a push, or
produced by a diff application at the home).
Because the home applies diffs in a total order per coherency unit, this
replay is exactly the state a trivial one-copy memory would hold after
the same logical access/sync trace.

Against that reference the oracle cross-checks:

* **install integrity** — the data a cache installs (fetch and prefetch
  replies, pushes) is bit-identical to the golden state of the version
  the home shipped
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

The oracle is a plain subscriber of the engine's hook points
(:mod:`repro.hooks`): ``unit_shipped`` and ``home_advance`` feed the
golden store, ``unit_installed`` is where installs are checked, and the
outbound ``M_DIFF`` marks a replica as written.  It names no subsystem
and rebinds nothing.

Use together with :class:`~repro.check.monitor.InvariantMonitor`; the
runner (:mod:`repro.check.runner`) additionally compares the program's
result and console output against an un-instrumented single-JVM run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from ..dsm.objectstate import ObjState, split_key, unit_key
from ..dsm.protocol import M_DIFF, M_FT_REDIFF, DsmEngine
from ..heap import ArrayObj, Obj
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
            oracle._subscribe(worker)
        # Workers that join mid-run publish versions too; unobserved,
        # their diffs would look "never published" to every install
        # check on the original nodes.
        runtime.hooks.worker_added.append(oracle._subscribe)
        return oracle

    # ------------------------------------------------------------------
    def report(self, node: int, kind: str, detail: str) -> None:
        self.violations.append(Violation(
            self._engine.now if self._engine else 0, node, kind, detail
        ))
        if self._runtime is not None:
            for fn in self._runtime.hooks.violation:
                fn(node, kind, detail)

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
    def _subscribe(self, worker: Any) -> None:
        """Observe one worker through the engine's hook points (see
        :mod:`repro.hooks`); every subscriber only reads."""
        self._workers.append(worker)
        dsm = worker.dsm
        node = dsm.node_id
        tainted = self._tainted

        def record_current(key):
            """A unit's current version and content become golden."""
            self._record(key, dsm.unit(key)[1].version, normalize_slots(
                self._unit_slots(dsm, key)))

        def on_unit_shipped(key, unit):
            # Home: whatever leaves for a reader or a new home (fetch
            # and prefetch replies, grants, pushes) publishes the
            # master's version.
            record_current(key)

        def on_home_advance(advanced, writer):
            applying = dsm.transport.delivering
            if applying is None:
                # The home's own release-time flush: it becomes golden
                # when it is first shipped; until then the master has
                # diverged from everything published, like a replica
                # written since its install (this keeps a split array's
                # home-written regions out of the final check).
                tainted.update((node, key) for key, _version in advanced)
            elif writer is not None and applying.msg_type != M_FT_REDIFF:
                # Home: applying a writer's diff batch creates a version.
                # (A recovery re-apply can only inflate the version of
                # content already published; a grant's pending write is
                # published by the shipment that follows it.)
                for key, _version in advanced:
                    record_current(key)

        def on_outbound(msg):
            # Cache: a flushed local write taints the replica -- it has
            # diverged from its base version (multiple-writer).
            if msg.msg_type == M_DIFF:
                for gid, _diff, region in msg.payload["entries"]:
                    tainted.add((node, unit_key(gid, region)))
            return False

        def on_unit_installed(key, unit, role, before):
            if role == ObjState.HOME:
                # A master install may fold the new home's own working
                # copy in: the result is published at the installed
                # version and is what later serves start from.
                if split_key(key)[1] is None:
                    record_current(key)
                return
            # Cache: an install must match the served golden state.
            tainted.discard((node, key))
            solicited = split_key(key) in dsm._fetch_targets
            self._check(node, key, unit["version"],
                        normalize_slots(self._unit_slots(dsm, key)),
                        "install" if solicited else "push install")
            self.checked_installs += 1

        dsm.hooks.unit_shipped.append(on_unit_shipped)
        dsm.hooks.home_advance.append(on_home_advance)
        dsm.hooks.unit_installed.append(on_unit_installed)
        dsm.transport.hooks.outbound.append(on_outbound)

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
