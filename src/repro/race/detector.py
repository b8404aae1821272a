"""RaceManager / RaceAgent: the distributed data-race detector.

One :class:`RaceManager` per runtime (when ``race_detect`` is on) owns a
per-node :class:`RaceAgent`, mirroring the ``ft``/``locality`` subsystem
shape.  Each agent subscribes to the DSM engine's and the transport's
hook points (sync edges, clock shipping) and is the interpreter's
``race_hook`` (access observation), so both
local and shared accesses are observed at the very instrumentation
points the paper already pays for (§2, §4).

Architecture
------------
- **Accessor side.**  Every checked field/array access records an event:
  ``(unit, slot, thread, clock snapshot, read/write, site, lockset)``.
  Accesses to LOCAL (never-promoted) objects are analyzed in place on
  the object's header; accesses to shared units are analyzed at the
  unit's *home* — immediately when the accessor is the home, otherwise
  the event is buffered and shipped at the next release point
  (piggybacked on the diff the interval flush already sends to that
  home when there is one, else in a standalone ``race.sync`` message).
  Events are deduplicated per interval: a thread's clock is constant
  between two sync operations, so one read + one write per (unit, slot)
  per interval carries all the information.
- **Home side.**  Per (unit, slot) the home keeps FastTrack-style
  metadata: a single last-access *epoch* per kind, adaptively promoted
  to a per-thread table (the "read vector clock") on the first
  concurrent second reader/writer.  Because events arrive out of
  happens-before order, every retained access keeps its full clock
  snapshot and the concurrency test is symmetric (see ``vc.py``).
- **Lockset.**  The same event stream feeds an Eraser-style state
  machine per slot (Virgin → Exclusive → Shared → Shared-Modified with
  candidate-lockset intersection), refined hybrid-style (after
  O'Callahan & Choi): each thread also maintains a *limited* clock
  carrying only fork/join edges (spawn shipping + Thread-object
  monitors, whose ``finished`` handshake IS the join), and an empty
  lockset only becomes a report when the conflicting pair is unordered
  under that limited relation.  This kills the classic Eraser false
  alarms on the fork/join idiom (constructor write before ``start()``,
  result read after ``join()``) while keeping Eraser's
  lock-schedule-insensitivity.  ``race_mode`` selects ``"hb"``,
  ``"lockset"``, or ``"both"`` (the default: happens-before verdicts
  annotated with the lockset diagnosis, plus lockset-only findings).
- **Reporting.**  Each race is reported once — keyed by (class, field
  or ``[]``, the unordered pair of access sites) — with both
  conflicting sites (class, field/array index, bytecode pc, source
  line, node, thread, simulated time).  ``race_suppress`` patterns
  (``Class.field`` / ``Class[]``) silence *documented* benign races the
  way a ThreadSanitizer suppression file would; suppressed findings are
  still counted.

Precision notes
---------------
- The §4.4 local-lock fast path is a real mutual-exclusion edge between
  same-node threads, so local acquires/releases maintain a lock clock
  on the object's header; promotion migrates it (and the per-slot
  metadata) into the home store.
- After a node-failure recovery all detector state is wiped and the run
  is marked ``degraded``: re-issued lock tokens cannot carry the dead
  node's lock clocks, and analyzing across the wipe would fabricate
  races.  No false positives — at the cost of misses spanning the kill.
- With home migration (``locality_migration``) a unit's metadata can
  split across the old and the new home; cross-store pairs are missed,
  never invented (each store checks independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..dsm.protocol import M_DIFF, M_TOKEN
from ..net.message import M_RACE_SYNC, Message, estimate_size
from ..rewriter.naming import original_name
from .vc import ThreadClock, concurrent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode

#: Cap on retained race reports (each race is reported once; the
#: overflow count is surfaced in the summary).
MAX_REPORTS = 50

# Eraser state machine (per slot).
VIRGIN, EXCLUSIVE, SHARED, SHARED_MOD = range(4)

_ERASER_NAMES = {VIRGIN: "virgin", EXCLUSIVE: "exclusive",
                 SHARED: "shared", SHARED_MOD: "shared-modified"}


def _lock_key_sort(key: Any) -> Tuple[int, Any]:
    """Deterministic ordering over mixed gid/local lock keys."""
    return (0, key, 0, 0) if isinstance(key, int) else (1,) + tuple(key)


class AccessRecord:
    """One observed access, with its frozen clock snapshots.

    ``vc`` is the full happens-before snapshot (every sync edge);
    ``fj`` is the *limited* snapshot carrying only fork/join edges —
    the relation the lockset engine filters against (see
    ``RaceAgent._pair_for``).  Both ticks mirror, so ``clock`` is the
    accessing thread's own component of either.
    """

    __slots__ = ("tid", "clock", "vc", "fj", "write", "site", "lockset",
                 "time_ns", "node")

    def __init__(self, tid: int, clock: int, vc: Dict[int, int],
                 fj: Dict[int, int], write: bool,
                 site: Tuple[str, str, int, int],
                 lockset: FrozenSet[Any], time_ns: int, node: int) -> None:
        self.tid = tid
        self.clock = clock
        self.vc = vc
        self.fj = fj
        self.write = write
        self.site = site          # (class, method, pc, line)
        self.lockset = lockset
        self.time_ns = time_ns
        self.node = node

    def site_dict(self) -> Dict[str, Any]:
        klass, method, pc, line = self.site
        return {
            "kind": "write" if self.write else "read",
            "class": original_name(klass),
            "method": method,
            "pc": pc,
            "line": line,
            "node": self.node,
            "thread": self.tid,
            "time_ns": self.time_ns,
        }


class SlotState:
    """Detector metadata for one (unit, slot).

    ``w``/``r`` hold the FastTrack-compressed access history: ``None``,
    a single :class:`AccessRecord` (the epoch fast path), or a per-tid
    dict (the promoted "vector clock" form).
    """

    __slots__ = ("w", "r", "estate", "eowner", "cset", "last_by_tid",
                 "last_w_by_tid")

    def __init__(self) -> None:
        self.w: Any = None
        self.r: Any = None
        self.estate = VIRGIN
        self.eowner: Optional[int] = None
        self.cset: Optional[set] = None
        # Most recent access / most recent WRITE per thread (lockset
        # site pairing).  Writes are tracked separately because a
        # thread's later reads would otherwise shadow its write and
        # leave a racing read with only read candidates to pair with.
        self.last_by_tid: Dict[int, AccessRecord] = {}
        self.last_w_by_tid: Dict[int, AccessRecord] = {}

    def records(self, structure: Any):
        if structure is None:
            return ()
        if isinstance(structure, dict):
            return structure.values()
        return (structure,)


class LocalRaceState:
    """Per-object detector state while the object is still LOCAL."""

    __slots__ = ("key", "lock_vc", "slots")

    def __init__(self, key: Tuple[str, int, int]) -> None:
        self.key = key                     # ("l", node, seq) lock key
        # §4.4 local-lock clock: (full VC, fork/join VC) release pair.
        self.lock_vc: Optional[Tuple[Dict[int, int], Dict[int, int]]] = None
        self.slots: Dict[Any, SlotState] = {}


@dataclass
class RaceReport:
    """One reported race: two conflicting sites on one variable."""

    class_name: str
    slot: Any                    # field name, or int array index
    engine: str                  # "hb" or "lockset"
    a: AccessRecord
    b: AccessRecord
    detected_ns: int
    unit: Any                    # gid or local key
    lockset: Optional[List[Any]] = None   # candidate set (lockset modes)
    suppressed: bool = False

    @property
    def variable(self) -> str:
        base = original_name(self.class_name)
        if isinstance(self.slot, int):
            return f"{base}[{self.slot}]"
        return f"{base}.{self.slot}"

    @property
    def suppress_key(self) -> str:
        base = original_name(self.class_name)
        if isinstance(self.slot, int):
            return f"{base}[]"
        return f"{base}.{self.slot}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variable": self.variable,
            "engine": self.engine,
            "detected_ns": self.detected_ns,
            "sites": [self.a.site_dict(), self.b.site_dict()],
            "lockset": self.lockset,
            "suppressed": self.suppressed,
        }

    def format(self) -> str:
        lines = [f"race on {self.variable} [{self.engine}]"
                 + (f"  lockset={self.lockset}" if self.lockset else "")]
        for s in (self.a, self.b):
            d = s.site_dict()
            lines.append(
                f"  {d['kind']:5s} {d['class']}.{d['method']} pc={d['pc']}"
                f" line={d['line']}  node={d['node']} thread={d['thread']}"
                f" t={d['time_ns'] / 1e6:.3f}ms")
        return "\n".join(lines)


class RaceManager:
    """Race-detection subsystem root, attached to one runtime."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        cfg = runtime.config
        self.mode = cfg.race_mode
        self.suppress = tuple(cfg.race_suppress)
        self.agents: Dict[int, "RaceAgent"] = {}
        # Optional tracer callback: (node, kind, detail).
        self.event_sink: Optional[Callable[[int, str, str], None]] = None
        self.reports: List[RaceReport] = []
        self.suppressed_count = 0
        self.dropped_reports = 0
        self.degraded = False
        self._seen: set = set()
        self._finalized = False
        self.drained_events = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        for w in self.runtime.workers:
            self._attach_worker(w)
        self.runtime.worker_added_hooks.append(self._attach_worker)

    def _attach_worker(self, worker: "WorkerNode") -> None:
        agent = RaceAgent(self, worker)
        self.agents[worker.node_id] = agent
        agent.attach()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def add_report(self, agent: "RaceAgent", engine: str, class_name: str,
                   slot: Any, a: AccessRecord, b: AccessRecord,
                   unit: Any, cset: Optional[set]) -> None:
        slot_kind = slot if isinstance(slot, str) else "[]"
        pair = frozenset(((a.site, a.write), (b.site, b.write)))
        key = (class_name, slot_kind, pair)
        if key in self._seen:
            return
        self._seen.add(key)
        # Deterministic site order: earlier access first, tid tiebreak.
        if (a.time_ns, a.tid) > (b.time_ns, b.tid):
            a, b = b, a
        report = RaceReport(
            class_name=class_name, slot=slot, engine=engine, a=a, b=b,
            detected_ns=agent.engine.now, unit=unit,
            lockset=(sorted(cset, key=_lock_key_sort)
                     if cset is not None else None),
        )
        if any(report.suppress_key == pat for pat in self.suppress):
            report.suppressed = True
            self.suppressed_count += 1
            agent.emit("race.suppressed", report.variable)
            return
        if len(self.reports) >= MAX_REPORTS:
            self.dropped_reports += 1
            return
        self.reports.append(report)
        agent.emit("race.report", f"{report.variable} [{engine}]")

    # ------------------------------------------------------------------
    # Failure recovery: wipe — never analyze across a recovery epoch.
    # ------------------------------------------------------------------
    def on_recovery(self, dead: int) -> None:
        self.degraded = True
        for agent in self.agents.values():
            agent.wipe()
        live = [a for n, a in sorted(self.agents.items())
                if not a.worker.dead]
        if live:
            live[0].emit("race.wipe", f"node {dead} died; metadata reset")

    # ------------------------------------------------------------------
    # End of run: drain events still buffered on the accessor side (a
    # main thread's trailing accesses never reach a release point).
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        for node_id in sorted(self.agents):
            agent = self.agents[node_id]
            if agent.worker.dead:
                continue
            for home in sorted(agent.buffers):
                for ev in agent.buffers[home]:
                    target = self.agents.get(agent.dsm.home_node(ev[0]))
                    if target is None or target.worker.dead:
                        target = agent
                    target.process_wire_event(ev)
                    self.drained_events += 1
            agent.buffers.clear()

    # ------------------------------------------------------------------
    def sorted_reports(self) -> List[RaceReport]:
        return sorted(
            self.reports,
            key=lambda r: (r.detected_ns, r.variable, r.engine,
                           r.a.time_ns, r.b.time_ns))

    def report(self) -> Dict[str, Any]:
        """Summary dict for RunReport.race."""
        agents = [self.agents[n] for n in sorted(self.agents)]
        return {
            "mode": self.mode,
            "races": len(self.reports),
            "reports": [r.to_dict() for r in self.sorted_reports()],
            "suppressed": self.suppressed_count,
            "reports_dropped": self.dropped_reports,
            "degraded": self.degraded,
            "events_observed": sum(a.events_observed for a in agents),
            "events_shipped": sum(a.events_shipped for a in agents),
            "events_piggybacked": sum(a.events_piggybacked for a in agents),
            "events_drained": self.drained_events,
            "sync_msgs": sum(a.sync_msgs for a in agents),
            "read_promotions": sum(a.read_promotions for a in agents),
            "write_promotions": sum(a.write_promotions for a in agents),
        }


class RaceAgent:
    """Per-node detector: clocks, event capture, home-side analysis."""

    def __init__(self, manager: RaceManager, worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.dsm = worker.dsm
        self.engine = worker.dsm.engine
        self.node_id = worker.node_id
        self.mode = manager.mode
        self.hb = manager.mode in ("hb", "both")
        self.eraser = manager.mode in ("lockset", "both")

        self.clocks: Dict[int, ThreadClock] = {}
        # Limited happens-before: a second clock per thread that joins
        # only on fork/join edges (spawn shipping + Thread-object
        # monitors), ticking in lockstep with the full one.  The
        # lockset engine filters against THIS relation, keeping
        # Eraser's lock-schedule insensitivity (see ``_pair_for``).
        self.fj: Dict[int, ThreadClock] = {}
        self.held: Dict[int, set] = {}          # tid -> held lock keys
        # gid -> (full VC, fork/join VC) release pair.
        self.lock_vc: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
        # gid -> "is this a javasplit.Thread monitor" (join-edge gids).
        self._thread_monitor: Dict[int, bool] = {}
        # Home-side per-unit metadata: gid -> slot -> SlotState.
        self.units: Dict[int, Dict[Any, SlotState]] = {}
        self.unit_class: Dict[int, str] = {}
        # Accessor-side event buffers per destination home node.
        self.buffers: Dict[int, List[tuple]] = {}
        # Per-interval dedup: (unit key, slot, tid, write) -> snapshot id.
        self._dedup: Dict[tuple, int] = {}
        self._local_seq = 0

        self.events_observed = 0
        self.events_shipped = 0
        self.events_piggybacked = 0
        self.sync_msgs = 0
        self.read_promotions = 0
        self.write_promotions = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        transport = self.dsm.transport
        transport.on(M_RACE_SYNC, self._on_race_sync)
        transport.hooks.outbound.append(self.on_outbound)
        transport.hooks.deliver.append(self.on_deliver)
        hooks = self.dsm.hooks
        hooks.promote.append(self.on_promote)
        hooks.lock_edge.append(self.on_lock_edge)
        hooks.spawn.append(self.on_spawn)
        hooks.thread_begin.append(self.on_thread_begin)
        hooks.interval_end.append(self.on_end_interval)
        hooks.token_send.append(self.on_token_send)
        self.worker.jvm.interpreter.race_hook = self.observe

    def on_outbound(self, msg: Message) -> bool:
        """Piggyback pending event batches on diffs already headed to the
        same home (the flush and the events share a destination)."""
        if msg.msg_type == M_DIFF and self.buffers.get(msg.dst):
            evs = self.buffers.pop(msg.dst)
            msg.payload["race_ev"] = evs
            self.events_piggybacked += len(evs)
            msg.size_bytes += 8 + estimate_size(evs)
        return False

    def on_deliver(self, msg: Message) -> None:
        """Consume what the sending agent piggybacked: access events on
        a diff, the lock's release clock on a token (absent on a
        recovery re-issue: the detector runs degraded after a kill)."""
        if msg.msg_type == M_DIFF:
            evs = msg.payload.get("race_ev")
            if evs:
                self.ingest(evs)
        elif msg.msg_type == M_TOKEN:
            pair = msg.payload.get("race")
            self.lock_vc[msg.payload["gid"]] = (
                (dict(pair[0]), dict(pair[1])) if pair else ({}, {}))

    def emit(self, kind: str, detail: str) -> None:
        if self.manager.event_sink is not None:
            self.manager.event_sink(self.node_id, kind, detail)

    def wipe(self) -> None:
        """Recovery epoch boundary: drop all analysis state."""
        self.units.clear()
        self.unit_class.clear()
        self.buffers.clear()
        self._dedup.clear()
        self.lock_vc.clear()
        # Thread clocks and held-lock sets survive: they describe live
        # threads, not analyzed history.

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def clock_of(self, tid: int) -> ThreadClock:
        clk = self.clocks.get(tid)
        if clk is None:
            clk = self.clocks[tid] = ThreadClock(tid)
        return clk

    def fj_of(self, tid: int) -> ThreadClock:
        clk = self.fj.get(tid)
        if clk is None:
            clk = self.fj[tid] = ThreadClock(tid)
        return clk

    def _is_thread_monitor(self, gid: int) -> bool:
        """Is this gid a ``javasplit.Thread`` monitor?  Its wait/notify
        handshake on ``finished`` IS the join edge, so (only) these
        lock edges feed the limited fork/join clocks."""
        cached = self._thread_monitor.get(gid)
        if cached is None:
            obj = self.dsm.cache.get(gid)
            if obj is None:
                return False  # no replica yet: re-resolve on next grant
            rtclass = getattr(obj, "rtclass", None)
            cached = bool(rtclass is not None
                          and rtclass.is_subtype_of("javasplit.Thread"))
            self._thread_monitor[gid] = cached
        return cached

    # ---- monitor edges (``lock_edge`` hook) ---------------------------
    def on_lock_edge(self, tid: int, gid: int, hdr: Any,
                     acquired: bool) -> None:
        """Join the lock's release clock on acquire; publish this
        thread's clock as the release clock (and tick) on release."""
        if gid:
            key: Any = gid
            pair = self.lock_vc.get(gid)
        else:
            # §4.4 local lock: its clock lives on the object's header.
            # Local monitors are never join edges (a started Thread
            # object is always promoted), so only the full clock joins.
            ls = self._local_state(hdr)
            key = ls.key
            pair = ls.lock_vc
        if acquired:
            if pair is not None:
                self.clock_of(tid).join(pair[0])
                if gid and pair[1] and self._is_thread_monitor(gid):
                    self.fj_of(tid).join(pair[1])
            self.held.setdefault(tid, set()).add(key)
            return
        clk = self.clock_of(tid)
        fj = self.fj_of(tid)
        pair = (clk.snapshot(), fj.snapshot())
        if gid:
            self.lock_vc[gid] = pair
        else:
            ls.lock_vc = pair
        clk.tick()
        fj.tick()
        held = self.held.get(tid)
        if held is not None:
            held.discard(key)

    # ---- token / spawn clock shipping --------------------------------
    def on_token_send(self, gid: int, req: Any,
                      payload: Dict[str, Any]) -> int:
        """HB edge: ship this node's view of the lock's release clock."""
        pair = self.lock_vc.get(gid)
        vc = [pair[0], pair[1]] if pair is not None else [{}, {}]
        payload["race"] = vc
        return 8 + estimate_size(vc)

    def on_spawn(self, thread, payload: Dict[str, Any], target: int) -> None:
        """Fork edge: snapshot the parent clocks for the child, tick."""
        clk = self.clock_of(thread.tid)
        fj = self.fj_of(thread.tid)
        payload["race"] = [clk.snapshot(), fj.snapshot()]
        clk.tick()
        fj.tick()

    def on_thread_begin(self, jthread, payload: Dict[str, Any]) -> None:
        pair = payload.get("race")
        if pair:
            self.clock_of(jthread.tid).join(pair[0])
            self.fj_of(jthread.tid).join(pair[1])

    # ------------------------------------------------------------------
    # Promotion: migrate header-local metadata into the home store
    # (promote() always makes *this* node the unit's home).
    # ------------------------------------------------------------------
    def on_promote(self, ref: Any, gid: int) -> None:
        hdr = ref.header
        ls: Optional[LocalRaceState] = hdr.race
        self.unit_class.setdefault(gid, hdr.class_name)
        if ls is None:
            return
        hdr.race = None
        rtclass = getattr(ref, "rtclass", None)
        if rtclass is not None:
            self._thread_monitor[gid] = \
                rtclass.is_subtype_of("javasplit.Thread")
        self.lock_vc[gid] = ls.lock_vc if ls.lock_vc is not None else ({}, {})
        # The local lock key becomes the gid: remap held sets, candidate
        # locksets, and retained records of this unit's slots.
        for held in self.held.values():
            if ls.key in held:
                held.discard(ls.key)
                held.add(gid)
        for slot, st in ls.slots.items():
            if st.cset is not None and ls.key in st.cset:
                st.cset.discard(ls.key)
                st.cset.add(gid)
            for structure in (st.w, st.r):
                for rec in st.records(structure):
                    if ls.key in rec.lockset:
                        rec.lockset = frozenset(
                            gid if k == ls.key else k for k in rec.lockset)
        store = self.units.setdefault(gid, {})
        store.update(ls.slots)
        # Re-key interval dedup entries from the local key to the gid.
        for key in [k for k in self._dedup if k[0] == ls.key]:
            self._dedup[(gid,) + key[1:]] = self._dedup.pop(key)

    def _local_state(self, hdr) -> LocalRaceState:
        ls = hdr.race
        if ls is None:
            self._local_seq += 1
            ls = hdr.race = LocalRaceState(("l", self.node_id,
                                            self._local_seq))
        return ls

    # ------------------------------------------------------------------
    # Access observation (interpreter race_hook)
    # ------------------------------------------------------------------
    def observe(self, thread, ref, slot, is_write, frame, instr) -> None:
        hdr = getattr(ref, "header", None)
        if hdr is None:
            return
        tid = thread.tid
        clk = self.clock_of(tid)
        snap = clk.snapshot()
        fjsnap = self.fj_of(tid).snapshot()
        gid = hdr.gid
        unit_key: Any = gid
        if not gid:
            unit_key = self._local_state(hdr).key
        dedup_key = (unit_key, slot, tid, is_write)
        snap_id = (id(snap), id(fjsnap))
        if self._dedup.get(dedup_key) == snap_id:
            return
        self._dedup[dedup_key] = snap_id
        self.events_observed += 1
        method = frame.method
        site = (method.klass, method.name, frame.pc, instr.line)
        lockset = frozenset(self.held.get(tid) or ())
        rec = AccessRecord(tid, snap.get(tid, 0), snap, fjsnap, is_write,
                           site, lockset, self.engine.now, self.node_id)
        if not gid:
            ls = hdr.race
            self._analyze(ls.slots, slot, rec, hdr.class_name, ls.key)
            return
        self.unit_class.setdefault(gid, hdr.class_name)
        home = self.dsm.home_node(gid)
        if home == self.node_id:
            self._analyze(self.units.setdefault(gid, {}), slot, rec,
                          self.unit_class[gid], gid)
            return
        self.buffers.setdefault(home, []).append((
            gid, self.dsm.class_id_for(hdr.class_name), slot, tid,
            rec.clock, snap, fjsnap, 1 if is_write else 0, site,
            sorted(lockset, key=_lock_key_sort), rec.time_ns, self.node_id,
        ))

    # ------------------------------------------------------------------
    # Event shipping (release points) and reception
    # ------------------------------------------------------------------
    def on_end_interval(self, thread) -> None:
        """Release point: ship buffered events not already piggybacked
        on this interval's diffs."""
        if not self.buffers:
            return
        transport = self.dsm.transport
        for home in sorted(self.buffers):
            evs = self.buffers.pop(home)
            if not evs:
                continue
            self.events_shipped += len(evs)
            self.sync_msgs += 1
            transport.send(home, M_RACE_SYNC, {"events": evs})
            self.emit("race.sync", f"-> n{home} ({len(evs)} events)")

    def _on_race_sync(self, msg) -> None:
        self.ingest(msg.payload["events"])

    def ingest(self, events) -> None:
        for ev in events:
            self.process_wire_event(ev)

    def process_wire_event(self, ev) -> None:
        (gid, class_id, slot, tid, clock, vc, fj, write, site, lockset,
         time_ns, node) = ev
        class_name = self.dsm.class_name_for(class_id)
        self.unit_class.setdefault(gid, class_name)
        rec = AccessRecord(
            tid, clock, vc, fj, bool(write), tuple(site),
            frozenset(k if isinstance(k, int) else tuple(k)
                      for k in lockset),
            time_ns, node)
        self._analyze(self.units.setdefault(gid, {}), slot, rec,
                      class_name, gid)

    # ------------------------------------------------------------------
    # Home-side analysis
    # ------------------------------------------------------------------
    def _analyze(self, slots: Dict[Any, SlotState], slot: Any,
                 rec: AccessRecord, class_name: str, unit: Any) -> None:
        st = slots.get(slot)
        if st is None:
            st = slots[slot] = SlotState()
        if self.hb:
            self._hb_check(st, rec, class_name, slot, unit)
        if self.eraser:
            self._eraser_check(st, rec, class_name, slot, unit)
            st.last_by_tid[rec.tid] = rec
            if rec.write:
                st.last_w_by_tid[rec.tid] = rec

    def _hb_check(self, st: SlotState, rec: AccessRecord,
                  class_name: str, slot: Any, unit: Any) -> None:
        cset = st.cset if self.eraser else None
        for prev in st.records(st.w):
            if prev.tid != rec.tid and concurrent(
                    prev.tid, prev.clock, prev.vc,
                    rec.tid, rec.clock, rec.vc):
                self.manager.add_report(self, "hb", class_name, slot,
                                        prev, rec, unit, cset)
        if rec.write:
            for prev in st.records(st.r):
                if prev.tid != rec.tid and concurrent(
                        prev.tid, prev.clock, prev.vc,
                        rec.tid, rec.clock, rec.vc):
                    self.manager.add_report(self, "hb", class_name, slot,
                                            prev, rec, unit, cset)
            st.w = self._retain(st.w, rec, write=True)
        else:
            st.r = self._retain(st.r, rec, write=False)

    def _retain(self, structure: Any, rec: AccessRecord,
                write: bool) -> Any:
        """FastTrack adaptive storage: epoch -> per-tid table."""
        if structure is None:
            return rec
        if isinstance(structure, dict):
            structure[rec.tid] = rec
            return structure
        if structure.tid == rec.tid:
            return rec
        # Second thread: promote the epoch to a full per-thread table.
        if write:
            self.write_promotions += 1
        else:
            self.read_promotions += 1
        return {structure.tid: structure, rec.tid: rec}

    def _eraser_check(self, st: SlotState, rec: AccessRecord,
                      class_name: str, slot: Any, unit: Any) -> None:
        if st.estate == VIRGIN:
            st.estate = EXCLUSIVE
            st.eowner = rec.tid
            return
        if st.estate == EXCLUSIVE:
            if rec.tid == st.eowner:
                return
            st.estate = SHARED_MOD if rec.write else SHARED
            st.cset = set(rec.lockset)
        else:
            assert st.cset is not None
            st.cset &= rec.lockset
            if rec.write:
                st.estate = SHARED_MOD
        if st.estate == SHARED_MOD and not st.cset:
            prev = self._pair_for(st, rec)
            if prev is not None:
                self.manager.add_report(self, "lockset", class_name, slot,
                                        prev, rec, unit, st.cset)

    @staticmethod
    def _pair_for(st: SlotState, rec: AccessRecord) -> Optional[AccessRecord]:
        """Most recent *conflicting, concurrent* access by another
        thread (lockset site pairing).

        Pure Eraser would report here unconditionally — and false-alarm
        on the fork/join idiom (a constructor write before ``start()``,
        or a result read after ``join()``, holds no lock yet is
        perfectly ordered).  The standard hybrid refinement (after
        O'Callahan & Choi): filter the pair against a *limited*
        happens-before relation carrying only fork/join edges, NOT lock
        edges.  Fork/join-ordered pairs are never races under any
        schedule, so dropping them loses nothing; lock edges stay out
        of the filter so Eraser keeps its schedule-insensitivity (a
        benign unlocked read that happens to be lock-ordered on THIS
        schedule is still reported, like Eraser would).  Ordered pairs
        leave the state machine in SHARED_MOD with an empty cset, so a
        later genuinely-unordered access still reports.
        """
        candidates = st.last_by_tid if rec.write else st.last_w_by_tid
        best = None
        for tid, prev in sorted(candidates.items()):
            if tid == rec.tid:
                continue
            if not concurrent(prev.tid, prev.clock, prev.fj,
                              rec.tid, rec.clock, rec.fj):
                continue
            if best is None or prev.time_ns > best.time_ns:
                best = prev
        return best
