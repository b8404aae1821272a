"""The MTS-HLRC protocol engine (§3).

One :class:`DsmEngine` per node.  It plays three roles at once:

1. **Host hooks** — the DSM pseudo-instructions of rewritten bytecode
   land here: access checks (read/write miss handling), acquire/release
   (distributed monitors), static-holder resolution, allocation headers,
   thread spawn, wait/notify.  The engine names no JVM module: what it
   asks of its host is the constructor's seam.
2. **Home node** — serves fetches from the master copies it hosts,
   applies incoming diffs (bumping per-object scalar versions), routes
   lock requests to current owners.
3. **Cache** — maintains replicas, twins, the write-notice table, and
   the per-node lock states.

Protocol summary (scalar-timestamp MTS-HLRC, the default):

* read miss  → FETCH_REQ to home → FETCH_REPLY(data, version); whole
  object granularity.
* first write after validation → twin; release → diffs batched per home
  → DIFF → DIFF_ACK(new versions) → write notices.
* lock transfer to a *remote* requester waits until *all* of this
  node's outstanding diffs are acknowledged (the scalar-timestamp fence
  of §3.1); the token then carries the notice **delta** relative to what
  it already delivered (bounded per-CU notices, §3.1), plus the request
  and wait queues (§3.2), so wait/notify stay communication-free.

What an arrival does to a coherency unit is its ``(event, state)`` row
in :mod:`.transitions`: each arrival site looks the row up once
(``_row``/``arrive``, with the guards and effects the rows name, mixed
in from :class:`~.transitions.Arrivals`) and runs its effect, or batches
it (diff entries, notices).  The access checks' hit paths stay inline (a miss
is a fetch, whose reply is a row); lock choreography has no rows.

Nothing else: the HLRC baseline of ablations A1/A2 is a subclass in
:mod:`.hlrc` that overrides the steps under "Timestamp steps" and the
guards ``_stale`` and ``_fetch_ready``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..heap import ArrayObj, Obj, default_value
from ..hooks import DsmHooks
from ..net.message import (HEADER_BYTES, M_LOC_BULK_REPLY, OBS_SPAN_KEY,
                           Message)
from ..net.message import (  # canonical registry lives with the codec
    M_CONSOLE, M_DIFF, M_DIFF_ACK, M_FETCH_REPLY, M_FETCH_REQ,
    M_FT_REDIFF, M_FT_REDIFF_ACK, M_LOCK_FWD, M_LOCK_REQ, M_OWNER_UPDATE,
    M_SPAWN, M_TOKEN)
from ..net.transport import Transport
from ..sim import cost_model as cm
from .diffs import apply_diff, compute_diff, make_twin
from .directory import (MASTER_NODE, NODE_SHIFT, ClassIdRegistry,
                        GidAllocator, HomeDirectory, home_of)
from .locks import LockRequest, LockToken, NodeLockState
from .objectstate import (DSMHeader, ObjState, RegionInfo, Unit,
                          attach_header, split_key, unit_key)
from .serialization import ClassSpec, deserialize_any, serialize_any
from .transitions import (DIFF, FETCH_REPLY, FETCH_REQ, NOTICE, TABLE,
                          Arrivals, ProtocolError, bind)
from .write_notices import NOTICE_BYTES, WRITER_BYTES, Notice, NoticeTable

SCALAR = "scalar"

#: Unit states the access and lock hooks test: ``ObjState.X`` is a class
#: attribute look-up, paid on every check.
_LOCAL, _HOME, _INVALID = ObjState.LOCAL, ObjState.HOME, ObjState.INVALID

#: A host thread, duck-typed: ``tid``, ``priority``, ``wake()`` (a miss
#: re-executes) and ``complete()`` (a grant finishes the blocked op).
Thread = Any


@dataclass
class DsmConfig:
    """Protocol configuration: the engine (timestamp mode), the local-lock fast path, and the array-region extension."""
    timestamp_mode: str = SCALAR          # dsm.engine_class picks the engine
    local_lock_opt: bool = True           # §4.4 lock-counter fast path
    # §4.3 extension: arrays longer than this many elements become
    # multiple coherency units of this region size (None = paper default,
    # one CU per array).
    array_region_elems: Optional[int] = None


@dataclass
class DsmStats:
    """Per-node protocol counters, aggregated into run reports."""
    fetches: int = 0
    fetch_bytes: int = 0
    diffs_sent: int = 0
    diff_bytes: int = 0
    lock_requests: int = 0
    token_transfers: int = 0
    invalidations: int = 0
    promotions: int = 0
    local_acquires: int = 0
    shared_acquires: int = 0
    fence_waits: int = 0
    deferred_fetches: int = 0
    region_fetches: int = 0
    stale_installs: int = 0     # replica copies that found a master here
    # ----- adaptive locality (src/repro/locality) ---------------------
    migrations_out: int = 0     # units this home granted away
    migrations_in: int = 0      # units this node became home of
    fwd_diffs: int = 0          # diff entries forwarded by an old home
    home_forwards: int = 0      # fetch/lock/owner messages re-routed
    prefetch_bulk: int = 0      # bulk-fetch messages issued
    prefetch_units: int = 0     # units installed from bulk replies
    prefetch_hits: int = 0      # demand fetches satisfied by a prefetch
    agg_frames: int = 0         # aggregate frames sent
    agg_subframes: int = 0      # logical messages carried inside them
    # ----- adaptive coherence policies (src/repro/policy) -------------
    pol_promotions: int = 0     # units promoted to a policy (home side)
    pol_demotions: int = 0      # units demoted back to invalidate
    pol_pushes: int = 0         # write-update unit copies pushed
    pol_push_installs: int = 0  # pushed copies installed by a reader
    pol_bcasts: int = 0         # read-mostly broadcast copies sent
    pol_bcast_installs: int = 0  # broadcast copies installed
    pol_grants: int = 0         # migratory ownership grants sent
    pol_grant_installs: int = 0  # migratory grants installed


class DsmEngine(Arrivals):
    """Per-node DSM: host hooks + protocol message handlers."""

    def __init__(
        self,
        host: Any,
        transport: Transport,
        specs: Dict[str, ClassSpec],
        class_registry: ClassIdRegistry,
        config: Optional[DsmConfig] = None,
        choose_spawn_node: Optional[Callable[[], int]] = None,
        static_gids: Optional[Dict[str, Tuple[int, str]]] = None,
        console: Optional[List[str]] = None,
    ) -> None:
        """The seam: ``host`` runs this node's threads (the JVM, or a
        test's script host) and supplies ``engine`` (simulated time),
        ``cost_model``, ``lookup(class_name)`` (a stub's or static
        holder's layout) and ``start_thread_obj(obj, method, priority,
        name, before_start)`` for spawn arrivals.  Threads are called
        directly (:data:`Thread`): a grant costs no host call."""
        self.host = host
        self.node_id = transport.node_id
        self.transport = transport
        self.engine = host.engine
        self.cost_model = host.cost_model
        self.specs = specs
        self.registry = class_registry
        self.config = config or DsmConfig()
        self._handler_ns = self.cost_model[cm.PROTO_HANDLER_NS]
        self._serialize_ns = self.cost_model[cm.SERIALIZE_PER_BYTE_NS]
        self._local_lock_ns = self.cost_model[cm.LOCAL_LOCK_OP]
        self._acquire_ns = self.cost_model[cm.SHARED_ACQUIRE]
        self._release_ns = self.cost_model[cm.SHARED_RELEASE]
        self.choose_spawn_node = choose_spawn_node or (lambda: self.node_id)
        # class_name -> (gid, holder_class_name) for C_static holders
        self.static_gids = static_gids or {}
        self.console = console if console is not None else []
        self.stats = DsmStats()

        # Optional runtime callback: a shipped thread began on this node
        # (used by the load balancer to retire in-flight placements).
        self.on_spawn_arrival: Optional[Callable[[int], None]] = None
        # The locality agent, if attached: what forward / bounce / fold
        # rows hand over (messages for units that moved, diff batches).
        self.proxy: Any = None

        self.gids = GidAllocator(self.node_id)
        self.cache: Dict[int, Any] = {}
        # §4.3 extension: gid -> RegionInfo of the arrays split into
        # several coherency units (every other object is one unit).
        self._regions: Dict[int, RegionInfo] = {}
        self.notice_table = NoticeTable()
        self.lock_states: Dict[int, NodeLockState] = {}
        self.lock_owner: Dict[int, int] = {}     # home role: gid -> owner node
        # keyed (gid, region); region None = whole object
        self._fetch_waiters: Dict[Tuple[int, Optional[int]], List[Thread]] = {}
        self._dirty: Set[Any] = set()            # keys of twinned replicas
        self._dirty_home: Set[Any] = set()       # keys of home-written masters
        self._threads: Dict[int, Thread] = {}
        # Node-level flush sequence: a per-node monotonic interval id
        # shared by all local threads, carried by every diff batch.
        self._flush_seq = 0
        # The §3.1 fence: outstanding diff-flush acks + deferred sends.
        self._outstanding_acks = 0
        self._fence_queue: List[Callable[[], None]] = []
        self._next_ack_id = 0
        # Tap points for the services that ride on the protocol (ft,
        # locality, policy, race, obs, tracing); see repro.hooks.
        self.hooks = DsmHooks()
        # This node's view of where re-homed units live (epoch-guarded).
        self.homes = HomeDirectory()
        # Where each in-flight fetch (or prefetch) was sent; a unit with
        # an entry here has a request outstanding.
        self._fetch_targets: Dict[Tuple[int, Optional[int]], int] = {}
        # Failure-recovery state, inert until repro.ft drives it:
        #   _pending_diffs   ack_id -> (home, payload, size) of unacked
        #                    flushes, so recovery can redirect them
        #   _blocked_on      tid -> (gid, restore) while a thread is blocked
        #                    on a lock grant, so lost requests can be
        #                    re-issued and stale re-grants detected
        #   _ft_token_freeze recovery is scanning for live tokens; no token
        #                    may leave this node until it finishes
        self._pending_diffs: Dict[int, Tuple[int, Dict[str, Any], int]] = {}
        self._blocked_on: Dict[int, Tuple[int, int]] = {}
        self._ft_token_freeze = False
        self._ft_frozen_sends: List[Callable[[], None]] = []

        # Row hits, one counter per TABLE row (``repro check`` sums them).
        self.row_hits = [0] * len(TABLE)
        self._counters = vars(self.stats)  # what a row's counter names
        self._rows = bind(type(self))

        for mtype, handler in (
            (M_FETCH_REQ, self._on_fetch_req),
            (M_FETCH_REPLY, self._on_fetch_reply),
            (M_DIFF, self._on_diff),
            (M_DIFF_ACK, self._on_diff_ack),
            (M_LOCK_REQ, self._on_lock_req),
            (M_LOCK_FWD, self._on_lock_fwd),
            (M_TOKEN, self._on_token),
            (M_OWNER_UPDATE, self._on_owner_update),
            (M_SPAWN, self._on_spawn),
            (M_CONSOLE, self._on_console),
            (M_FT_REDIFF, self._on_diff),
            (M_FT_REDIFF_ACK, self._on_diff_ack),
        ):
            transport.on(mtype, handler)

    # ==================================================================
    # Home lookup
    # ==================================================================
    def home_node(self, gid: int) -> int:
        """Current home of a gid as this node knows it: its entry in
        ``homes`` if the master moved (a migration grant or a failure
        recovery re-homed it), else its origin node.  ``homes.home(gid)``
        inline: one probe of the entries, then the gid's origin bits."""
        entry = self.homes._entries.get(gid)
        return gid >> NODE_SHIFT if entry is None else entry[0]

    # ==================================================================
    # Setup helpers
    # ==================================================================
    def install_static_holder(self, class_name: str, gid: int, holder_class: str) -> Any:
        """Create a C_static master copy on this (the master) node."""
        rtc = self.host.lookup(holder_class)
        obj = Obj(rtc)
        hdr = attach_header(obj)
        hdr.gid = gid
        hdr.state = ObjState.HOME
        hdr.version = 1
        self.cache[gid] = obj
        self.lock_owner[gid] = self.node_id
        st = self._lock_state(gid)
        st.token = LockToken(gid)
        return obj

    def reserve_gids(self, count: int) -> None:
        """Skip gids that were pre-assigned (static holders on master)."""
        for _ in range(count):
            self.gids.allocate()

    # ==================================================================
    # Resolver protocol (serialization callbacks)
    # ==================================================================
    def gid_for(self, ref: Any) -> int:
        """Resolver hook: global id of a ref, promoting if needed."""
        return self.promote(ref)

    def class_id_for(self, class_name: str) -> int:
        """Resolver hook: wire id for a class name."""
        return self.registry.class_id_for(class_name)

    def class_name_for(self, class_id: int) -> str:
        """Resolver hook: class name for a wire id."""
        return self.registry.class_name_for(class_id)

    def replica_for(self, gid: int, class_name: str) -> Any:
        """Resolver hook: local replica for a gid (INVALID stub if new)."""
        obj = self.cache.get(gid)
        if obj is not None:
            return obj
        if self.home_node(gid) == self.node_id:
            raise ProtocolError(
                f"node {self.node_id} is home of gid {gid:#x} but has no "
                f"master copy"
            )
        return self._new_stub(gid, class_name)

    def _new_stub(self, gid: int, class_name: str) -> Any:
        """Cache an INVALID placeholder replica for a gid."""
        if class_name.endswith("[]"):
            obj = ArrayObj(class_name[:-2], 0)
        else:
            obj = Obj(self.host.lookup(class_name))
        hdr = attach_header(obj)
        hdr.gid = gid
        hdr.state = ObjState.INVALID
        hdr.version = 0
        self.cache[gid] = obj
        return obj

    # ==================================================================
    # Promotion: local -> shared (§2)
    # ==================================================================
    def promote(self, ref: Any) -> int:
        """Local -> shared: assign a gid; this node becomes the home."""
        hdr = attach_header(ref)
        if hdr.gid:
            return hdr.gid
        gid = self.gids.allocate()
        hdr.gid = gid
        hdr.state = ObjState.HOME
        hdr.version = 1
        self.cache[gid] = ref
        region_elems = self.config.array_region_elems
        if (
            region_elems is not None
            and isinstance(ref, ArrayObj)
            and len(ref.data) > region_elems
        ):
            self._regions[gid] = RegionInfo(
                len(ref.data), region_elems, ObjState.HOME, 1)
        self.lock_owner[gid] = self.node_id
        st = self._lock_state(gid)
        st.token = LockToken(gid)
        # Carry over a §4.4 local-lock counter held at promotion time.
        if hdr.lock_count > 0 and hdr.lock_owner is not None:
            st.holder_tid = hdr.lock_owner.tid
            st.count = hdr.lock_count
        hdr.lock_count = 0
        hdr.lock_owner = None
        self.stats.promotions += 1
        for fn in self.hooks.promote:
            fn(ref, gid)
        return gid

    # ==================================================================
    # Coherency units: a whole object, or one region of a split array
    # ==================================================================
    def unit(self, key: Any) -> Optional[Tuple[Any, Unit, int, Optional[int]]]:
        """Resolve a unit key to ``(obj, record, lo, hi)``: the heap
        object, the unit's state/version/twin record and its slot range
        (``hi`` None = to the end).  None if this node never saw it."""
        # split_key(key), without its frame: every handler comes through here.
        gid, region = key if key.__class__ is tuple else (key, None)
        obj = self.cache.get(gid)
        if obj is None:
            return None
        if region is None:
            return obj, obj.header, 0, None
        reg = self._regions.get(gid)
        if reg is None:
            return None
        lo, hi = reg.bounds(region, len(obj.data))
        return obj, reg.units[region], lo, hi

    def is_split(self, gid: int) -> bool:
        """Whether this node knows ``gid`` as an array of several units."""
        return gid in self._regions

    def unit_keys(self, gid: int) -> List[Any]:
        """Keys of every coherency unit of one object."""
        reg = self._regions.get(gid)
        if reg is None:
            return [gid]
        return [(gid, r) for r in range(len(reg.units))]

    def region_at(self, gid: int, index: Any) -> Optional[int]:
        """Region of a split array holding element ``index``; None for a
        whole-object unit, a touch that names no element (ARRAYLENGTH)
        or an index out of bounds (the access itself raises)."""
        reg = self._regions.get(gid)
        if reg is None or index is None:
            return None
        return reg.region_of(index)

    # ==================================================================
    # Host hooks: allocation / threads
    # ==================================================================
    def on_new(self, obj: Any) -> None:
        """Allocation hook: attach a LOCAL DSM header."""
        attach_header(obj)  # starts LOCAL

    def on_thread_started(self, thread: Thread) -> None:
        """Track live threads for lock-grant completion."""
        self._threads[thread.tid] = thread

    def on_thread_finished(self, thread: Thread) -> None:
        """Drop finished threads from the live-thread map."""
        self._threads.pop(thread.tid, None)

    def _thread(self, tid: int) -> Thread:
        try:
            return self._threads[tid]
        except KeyError:
            raise ProtocolError(
                f"node {self.node_id}: no live thread {tid}"
            ) from None

    # ==================================================================
    # Host hooks: access checks
    # ==================================================================
    def read_check(self, thread: Thread, ref: Any, index: Any = None) -> Tuple[bool, int]:
        """Hook behind DSM_READCHECK: pass through or fetch-and-block."""
        hdr: DSMHeader = ref.header
        if hdr is None:
            # Object allocated outside hook-aware paths (defensive).
            attach_header(ref)
            return True, 0
        rec, region = hdr, None
        if hdr.gid and hdr.gid in self._regions:
            region = self.region_at(hdr.gid, index)
            if region is None:
                # ARRAYLENGTH (the stub was sized at first contact) or
                # out of bounds (let the access raise).
                return True, 0
            rec = self._regions[hdr.gid].units[region]
        if rec.state != _INVALID:
            return True, 0
        self._start_fetch(thread, hdr, region)
        return False, self._handler_ns

    def write_check(self, thread: Thread, ref: Any, value: Any, index: Any = None) -> Tuple[bool, int]:
        """Hook behind DSM_WRITECHECK: twin, mark dirty, or fetch."""
        hdr: DSMHeader = ref.header
        if hdr is None:
            attach_header(ref)
            return True, 0
        state = hdr.state
        if state == _LOCAL:
            return True, 0
        key = hdr.gid
        rec, region = hdr, None
        if key in self._regions:
            region = self.region_at(key, index)
            if region is None:
                return True, 0  # out of bounds: let the access raise
            key = (key, region)
            rec = self.unit(key)[1]
            state = rec.state
        if state == _INVALID:
            self._start_fetch(thread, hdr, region)
            return False, self._handler_ns
        if state == _HOME:
            self._dirty_home.add(key)
            return True, 0
        # VALID cached copy: twin before first write (multiple-writer).
        if rec.twin is None:
            _, _, lo, hi = self.unit(key)
            rec.twin = make_twin(ref, lo, hi)
            self._dirty.add(key)
        return True, 0

    def _start_fetch(self, thread: Thread, hdr: DSMHeader,
                     region: Optional[int] = None) -> None:
        gid = hdr.gid
        self._fetch_waiters.setdefault((gid, region), []).append(thread)
        request = None
        if (gid, region) not in self._fetch_targets:
            request = self._fetch_request(gid, region)
        # else a fetch (or a prefetch covering the unit) is already in
        # flight; its reply installs the data and wakes the waiters.
        for fn in self.hooks.block:
            fn(thread, "fetch", gid, region, request)
        if request is not None:
            if region is not None:
                self.stats.region_fetches += 1
            self._send_fetch(gid, region, request)

    def _fetch_request(self, gid: int, region: Optional[int]) -> Dict[str, Any]:
        """What a fetch requires: the unit's version in the table."""
        required = self.notice_table.required_scalar(unit_key(gid, region))
        return {"gid": gid, "region": region, "required": required}

    def _send_fetch(self, gid: int, region: Optional[int],
                    request: Optional[Dict[str, Any]] = None) -> None:
        """Send a fetch request to the unit's current home, recording
        where it went (recovery re-issues the ones a dead home held)."""
        self.stats.fetches += 1
        target = self._fetch_targets[(gid, region)] = self.home_node(gid)
        if target == self.node_id or target in self.transport.dead_peers:
            # From itself it would install a replica over its own master,
            # or publish a replica's data as the master's; a dead node
            # never answers.  Either way the directory lost the master.
            where = ("itself" if target == self.node_id
                     else f"dead node {target}")
            raise ProtocolError(f"node {self.node_id} would fetch "
                                f"{unit_key(gid, region)!r} from {where}")
        self.transport.send(target, M_FETCH_REQ,
                            request or self._fetch_request(gid, region))

    # ==================================================================
    # Host hooks: synchronization
    # ==================================================================
    def acquire(self, thread: Thread, ref: Any) -> Tuple[bool, int]:
        """Hook behind DSM_ACQUIRE: counter fast path, local grant, queueing, or a lock request to the home node."""
        hdr: DSMHeader = ref.header
        if hdr.state == _LOCAL:
            # §4.4 fast path: a counter, cheaper than original Java.
            if self.config.local_lock_opt and (
                    hdr.lock_owner is None or hdr.lock_owner is thread):
                hdr.lock_owner = thread
                hdr.lock_count += 1
                self.stats.local_acquires += 1
                for fn in self.hooks.lock_edge:
                    fn(thread.tid, 0, hdr, True)
                return True, self._local_lock_ns
            # Second thread contends: the object escapes.
            self.promote(ref)
        gid = hdr.gid
        st = self._lock_state(gid)
        cost = self._acquire_ns
        self.stats.shared_acquires += 1
        token = st.token
        if token is not None and not st.transit:
            if st.holder_tid is None:
                st.holder_tid = thread.tid
                st.count = 1
                for fn in self.hooks.lock_edge:
                    fn(thread.tid, gid, None, True)
                return True, cost
            if st.holder_tid == thread.tid:
                st.count += 1
                return True, cost
        req = LockRequest(self.node_id, thread.tid, thread.priority)
        for fn in self.hooks.block:
            fn(thread, "lock", gid, None, req)
        self._blocked_on[thread.tid] = (gid, 1)
        if token is not None:
            # Held by another thread here — or committed to a remote node
            # but still fenced, in which case the request joins the queue
            # and travels with the token.
            token.enqueue(req)
        else:
            # No token here: route through the home node.
            self._send_lock_req(gid, req)
        return False, cost

    def _send_lock_req(self, gid: int, req: LockRequest) -> None:
        self.stats.lock_requests += 1
        payload = {
            "gid": gid,
            "node": req.node,
            "tid": req.thread_id,
            "priority": req.priority,
            "restore": req.restore_count,
        }
        if req.obs_span is not None:
            payload[OBS_SPAN_KEY] = req.obs_span
        self.transport.send(self.home_node(gid), M_LOCK_REQ, payload)

    def release(self, thread: Thread, ref: Any) -> int:
        """Hook behind DSM_RELEASE: end the interval (flush diffs) and hand the token to the next requester."""
        hdr: DSMHeader = ref.header
        if hdr.state == _LOCAL:
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("release of unheld local lock")
            hdr.lock_count -= 1
            if hdr.lock_count == 0:
                hdr.lock_owner = None
                for fn in self.hooks.lock_edge:
                    fn(thread.tid, 0, hdr, False)
            return self._local_lock_ns
        gid = hdr.gid
        st = self._lock_state(gid)
        if st.holder_tid != thread.tid:
            raise ProtocolError(
                f"monitorexit by non-owner (gid {gid:#x}, thread "
                f"{thread.tid}, holder {st.holder_tid})"
            )
        cost = self._release_ns
        st.count -= 1
        if st.count == 0:
            self._release_point(thread, st)
        return cost

    def _release_point(self, thread: Thread, st: NodeLockState) -> None:
        """The monitor is free: end the interval, then hand the token to
        the next requester (shared by release and wait)."""
        st.holder_tid = None
        for fn in self.hooks.lock_edge:
            fn(thread.tid, st.gid, None, False)
        for fn in self.hooks.sync_scope:
            fn(True)
        self.end_interval(thread)
        self._service_queue(st)
        for fn in self.hooks.sync_scope:
            fn(False)

    # ------------------------------------------------------------------
    # wait / notify (invoked through rewritten natives)
    # ------------------------------------------------------------------
    def dsm_wait(self, thread: Thread, ref: Any) -> None:
        """Object.wait over the token's wait queue (communication-free, §3.2)."""
        hdr: DSMHeader = ref.header
        if hdr.state == _LOCAL:
            # wait() implies another thread will notify: the object
            # escapes its creating thread now.
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("wait() by non-owner")
            self.promote(ref)
        gid = hdr.gid
        st = self._lock_state(gid)
        if st.holder_tid != thread.tid or st.token is None:
            raise ProtocolError("wait() by non-owner")
        req = LockRequest(self.node_id, thread.tid, thread.priority,
                          restore_count=st.count)
        st.count = 0
        for fn in self.hooks.block:
            fn(thread, "wait", gid, None, req)
        st.token.park_waiter(req)
        self._blocked_on[thread.tid] = (gid, req.restore_count)
        # wait() is a release point.
        self._release_point(thread, st)

    def dsm_notify(self, thread: Thread, ref: Any, all_: bool) -> None:
        """Object.notify/notifyAll over the token's wait queue."""
        hdr: DSMHeader = ref.header
        if hdr.state == _LOCAL:
            # Owner notifying a local object: no one can be waiting on a
            # never-escaped object, so this is a no-op.
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("notify() by non-owner")
            return
        st = self._lock_state(hdr.gid)
        if st.holder_tid != thread.tid or st.token is None:
            raise ProtocolError("notify() by non-owner")
        if all_:
            st.token.notify_all()
        else:
            st.token.notify_one()

    # ------------------------------------------------------------------
    # Thread spawn (rewritten Thread.start)
    # ------------------------------------------------------------------
    def spawn(self, thread: Thread, tobj: Any, priority: int) -> int:
        """Ship a started Thread object to the node the balancer picks."""
        gid = self.promote(tobj)
        target = self.choose_spawn_node()
        payload = {
            "gid": gid,
            "class_name": tobj.class_name,
            "priority": priority,
        }
        for fn in self.hooks.spawn:
            fn(thread, payload, target)
        if target == self.node_id:
            self.start_spawned(payload)
        else:
            # Spawning publishes the Thread object's current state: flush
            # it so the remote node's fetch observes the constructor's
            # writes (the spawn itself is a release-like event).
            self.end_interval(thread)
            self.transport.send(target, M_SPAWN, payload)
        return target

    def start_spawned(self, p: Dict[str, Any]) -> None:
        """Start the thread a spawn payload describes on this node (a
        spawn arrival, a local placement or a recovery re-spawn)."""
        gid, class_name = p["gid"], p["class_name"]

        def begin(thread: Thread) -> None:
            for fn in self.hooks.thread_begin:
                fn(thread, p)

        self.host.start_thread_obj(
            self.replica_for(gid, class_name), "__runWrapper", p["priority"],
            f"{class_name}-{gid & 0xFFFF:x}", begin)
        if self.on_spawn_arrival is not None:
            self.on_spawn_arrival(self.node_id)

    def _on_spawn(self, msg: Message) -> None:
        self.start_spawned(msg.payload)

    # ------------------------------------------------------------------
    # Console forwarding (rewritten Sys.print — §4.1 wrapped native I/O)
    # ------------------------------------------------------------------
    def print_line(self, text: str) -> None:
        """Console output wrapper: forwards lines to the master node."""
        if self.node_id == MASTER_NODE:
            self.console.append(text)
        else:
            self.transport.send(MASTER_NODE, M_CONSOLE, {"text": text})

    def _on_console(self, msg: Message) -> None:
        self.console.append(msg.payload["text"])

    # ------------------------------------------------------------------
    # Static holders (§4.2)
    # ------------------------------------------------------------------
    def static_ref(self, thread: Thread, class_name: str) -> Tuple[Any, int]:
        """Hook behind DSM_STATICREF: the node's cached C_static replica."""
        entry = self.static_gids.get(class_name)
        if entry is None:
            raise ProtocolError(f"no static holder registered for {class_name}")
        gid, holder_class = entry
        obj = self.cache.get(gid)
        if obj is None:
            obj = self.replica_for(gid, holder_class)
        return obj, 0

    # ==================================================================
    # Interval end: diff flush (multiple-writer LRC)
    # ==================================================================
    def end_interval(self, thread: Thread) -> None:
        """Release point: flush this node's pending diffs (§3)."""
        self._flush(list(self._dirty), flush_home=True)
        for fn in self.hooks.interval_end:
            fn(thread)

    def _flush(self, keys, flush_home: bool) -> None:
        """Flush pending writes: diffs of the given cached replicas to
        their homes, plus (optionally) version bumps of home-written
        masters.  Tagged with a node-level monotonic interval."""
        self._flush_seq += 1
        interval = self._flush_seq
        by_home: Dict[int, List[Tuple[int, bytes, Optional[int]]]] = {}
        for key in keys:
            if key not in self._dirty:
                continue
            self._dirty.discard(key)
            obj, rec, lo, hi = self.unit(key)
            twin, rec.twin = rec.twin, None
            if twin is None:
                continue
            diff = compute_diff(obj, twin, self.specs.get(obj.class_name),
                                self, lo, hi)
            if diff is None:
                continue
            gid, region = split_key(key)
            by_home.setdefault(
                self.home_node(gid), []).append((gid, diff, region))
        if flush_home:
            # Home-written masters: bump version locally, notice at once.
            advanced: List[Tuple[Any, int]] = []
            for key in list(self._dirty_home):
                self._dirty_home.discard(key)
                rec = self.unit(key)[1]
                rec.version += 1
                advanced.append((key, rec.version))
                self._note_advance(key, rec.version, self.node_id, interval)
            if advanced:
                for fn in self.hooks.home_advance:
                    fn(advanced, self.node_id)
        for home, entries in by_home.items():
            ack_id = self._next_ack_id
            self._next_ack_id += 1
            self._outstanding_acks += 1
            payload = {
                "entries": list(entries),
                "ack_id": ack_id,
                "writer": self.node_id,
                "interval": interval,
            }
            self.stats.diffs_sent += len(entries)
            size = HEADER_BYTES + 14 * len(entries)
            for _gid, diff, _region in entries:
                size += len(diff)
            self.stats.diff_bytes += size
            self._pending_diffs[ack_id] = (home, payload, size)
            self._note_flush(entries, interval)
            self.transport.send(home, M_DIFF, payload, size_bytes=size)

    def _diff_rows(self, p: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
        """Each entry of a diff batch with its row's effect and its unit."""
        rows = []
        for entry in p["entries"]:
            gid, _diff, region = entry
            row, unit, _fx = self._row(
                DIFF, gid if region is None else (gid, region), p)
            rows.append((row.effect, entry, unit))
        return rows

    def _apply_diff_entries(self, p: Dict[str, Any],
                            rows: List[Tuple[str, Any, Any]]) -> List[Tuple[Any, int]]:
        """The ``apply_diff`` effect for the ``rows`` of a diff payload's
        entries: apply them to local masters and announce the new
        versions (``home_advance``); returns the (key, new_version) acks."""
        acks: List[Tuple[Any, int]] = []
        writer = p["writer"]
        interval = p["interval"]
        for _effect, (gid, diff, region), (obj, rec, lo, hi) in rows:
            key = gid if region is None else (gid, region)
            apply_diff(obj, self.specs.get(obj.class_name), diff, self, lo, hi)
            rec.version += 1
            acks.append((key, rec.version))
            self._note_advance(key, rec.version, writer, interval)
        for fn in self.hooks.home_advance:
            fn(acks, writer)
        return acks

    def _on_diff(self, msg: Message) -> None:
        """Home role: apply a diff batch and ack the new versions.  Also
        serves M_FT_REDIFF, a batch whose original home died before
        acknowledging it: content-idempotent even if the dead home had
        already applied it (diffs carry absolute slot values), so at
        worst the version inflates — versions only need be monotonic."""
        p = msg.payload
        rows = self._diff_rows(p)
        for effect, _entry, _unit in rows:
            if effect != "apply_diff":
                # Forwarded, bounced or folded entries: the proxy splits
                # the batch and will send one combined ack.
                self.proxy.split(msg, rows)
                return
        ack_payload: Dict[str, Any] = {
            "ack_id": p["ack_id"], "versions": self._apply_diff_entries(p, rows)}
        delay = self._handler_ns
        ack_type = M_FT_REDIFF_ACK
        if msg.msg_type == M_DIFF:
            ack_type = M_DIFF_ACK
            for fn in self.hooks.diff_applied:
                fn(msg, ack_payload, delay)
        self.engine.schedule(delay, partial(
            self.transport.send, msg.src, ack_type, ack_payload))

    def _on_diff_ack(self, msg: Message) -> None:
        """Writer side: settle one flush.  An M_FT_REDIFF_ACK that lost
        the race against the original home's ack is already settled."""
        if self._pending_diffs.pop(msg.payload["ack_id"], None) is None:
            return
        self._note_ack(msg.payload["versions"])
        self._outstanding_acks -= 1
        if self._outstanding_acks == 0:
            queue, self._fence_queue = self._fence_queue, []
            for action in queue:
                action()

    # ------------------------------------------------------------------
    # Recovery: pending diffs redirected to an adoptive home
    # ------------------------------------------------------------------
    def ft_redirect_pending(self, dead: int, new_home: int) -> int:
        """Re-send every unacked diff that was destined for ``dead`` to
        its adoptive home.  Returns the number of redirected flushes."""
        redirected = 0
        for ack_id in sorted(self._pending_diffs):
            home, payload, size = self._pending_diffs[ack_id]
            if home != dead:
                continue
            self._pending_diffs[ack_id] = (new_home, payload, size)
            self.transport.send(new_home, M_FT_REDIFF, payload,
                                size_bytes=size)
            redirected += 1
        return redirected

    # ==================================================================
    # Fetch handling
    # ==================================================================
    def _on_fetch_req(self, msg: Message) -> None:
        gid = msg.payload["gid"]
        region = msg.payload.get("region")
        if gid in self._regions and region is None:
            region = 0  # split array first touched as a whole by a stub
        key = gid if region is None else (gid, region)
        _row, unit, effect = self._row(FETCH_REQ, key, msg)
        effect(self, FETCH_REQ, key, unit, msg)

    def _serve_fetch(self, requester: int, obj: Any,
                     region: Optional[int] = None) -> None:
        for fn in self.hooks.fetch_serve:
            fn(requester, obj, region, False)
        key = unit_key(obj.header.gid, region)
        payload = self.ship_unit(key)
        data = payload["data"]
        size = HEADER_BYTES + 24 + len(data)
        self.stats.fetch_bytes += size
        delay = self._handler_ns + len(data) * self._serialize_ns
        self.engine.schedule(delay, partial(
            self.transport.send, requester, M_FETCH_REPLY, payload, size))

    def ship_unit(self, key: Any) -> Optional[Dict[str, Any]]:
        """Serialize a master for a reader or a new home: every copy
        another node's program can come to see (fetch and prefetch
        replies, migration grants, policy pushes) leaves through here."""
        unit = self.ft_serialize_unit(key)
        if unit is not None:
            for fn in self.hooks.unit_shipped:
                fn(key, unit)
        return unit

    def _on_fetch_reply(self, msg: Message) -> None:
        """Install the unit (or drop it, per its row) and wake the
        threads parked on it."""
        p = msg.payload
        gid, region = p["gid"], p.get("region")
        key = gid if region is None else (gid, region)
        _row, unit, effect = self._row(FETCH_REPLY, key, p)
        effect(self, FETCH_REPLY, key, unit, p)
        self._unit_present(gid, region, msg.size_bytes)

    def _unit_present(self, gid: int, region: Optional[int],
                      nbytes: int) -> int:
        """A unit some thread asked for is readable here: retire the
        request and wake the threads parked on it."""
        self._fetch_targets.pop((gid, region), None)
        waiters = self._fetch_waiters.pop((gid, region), [])
        if region == 0:
            # A no-index (length) waiter may also be parked on region 0.
            waiters = waiters + self._fetch_waiters.pop((gid, None), [])
        for fn in self.hooks.fetch_done:
            fn(gid, region, waiters, nbytes)
        for thread in waiters:
            thread.wake()
        return len(waiters)

    def _install_unit(self, p: Dict[str, Any], role: ObjState,
                      event: str) -> bool:
        """Install one serialized coherency unit into the local cache:
        as a ``VALID`` replica (``install_replica``: fetch replies,
        prefetch bulk replies, policy pushes), or as the ``HOME`` master
        (``install_master``: grants and recovery adoptions), which merges
        local uncommitted writes to a cached replica of the unit back on
        top, and the node's own in-flight flushes a grant carries in
        ``own_diffs`` under them — they are program actions the
        multiple-writer protocol has not lost yet."""
        gid = p["gid"]
        region = p.get("region")
        master = role == ObjState.HOME
        key = unit_key(gid, region)
        for fn in self.hooks.transition:
            fn(event, key, role)
        obj = self.cache.get(gid)
        if obj is None:
            # A master-to-be is homed here already; replica_for would
            # (rightly, for a replica) demand its master copy.
            make = self._new_stub if master else self.replica_for
            obj = make(gid, p["class_name"])
        if region is not None:
            # First contact: split the stub and size it to its true length.
            total_len = p["total_len"]
            if gid not in self._regions:
                self._regions[gid] = RegionInfo(
                    total_len, p["region_elems"], ObjState.INVALID, 0)
            if len(obj.data) != total_len:
                obj.data = [default_value(obj.elem_type)] * total_len
            obj.header.state = role  # "present"; the regions carry the truth
        _, rec, lo, hi = self.unit(key)
        before = (rec.state, rec.version)
        spec = self.specs.get(obj.class_name)
        twin, rec.twin = rec.twin, None
        local_diff = None
        if master and twin is not None:
            local_diff = compute_diff(obj, twin, spec, self, lo, hi)
            self._dirty.discard(key)
        deserialize_any(obj, spec, p["data"], self, lo)
        for diff in p.get("own_diffs", ()):
            # This node's flushes the snapshot predates (a grant to
            # the unit's writer): its master may not lack them.
            apply_diff(obj, spec, diff, self, lo, hi)
        rec.state = role
        rec.version = max(rec.version, p["version"]) if master else p["version"]
        if local_diff is not None:
            apply_diff(obj, spec, local_diff, self, lo, hi)
            self._dirty_home.add(key)
        for fn in self.hooks.unit_installed:
            fn(key, p, role, before)
        if master and any(k in self._fetch_targets or k in self._fetch_waiters
                          for k in {(gid, region), (gid, region or None)}):
            # Asked for before this node became the home (region 0's
            # no-index waiters park under ``(gid, None)``).  The unit is
            # present, which is all a fetch waits for; the reply, if one
            # still comes, is a stale copy its row drops.
            self._unit_present(gid, region, len(p["data"]))
        return True

    # ==================================================================
    # Adaptive-locality primitives (driven by repro.locality)
    # ==================================================================
    def _serve_bulk(self, requester: int, gids: List[int]) -> List[Dict[str, Any]]:
        """Answer one prefetch bulk-fetch: serialize every requested
        whole-object unit this node masters into a single reply frame.
        The reply always echoes the requested gids so the requester can
        retire its in-flight bookkeeping even for units served elsewhere.
        Returns the units served (for external cross-checking)."""
        units: List[Dict[str, Any]] = []
        total = 0
        for gid in gids:
            obj = self.cache.get(gid)
            if obj is None or gid in self._regions:
                continue
            hdr = obj.header
            if hdr is None or hdr.state != ObjState.HOME:
                continue
            for fn in self.hooks.fetch_serve:
                fn(requester, obj, None, True)
            unit = self.ship_unit(gid)
            if unit is None:  # pragma: no cover - defensive
                continue
            units.append(unit)
            total += len(unit["data"])
        size = HEADER_BYTES + sum(24 + len(u["data"]) for u in units)
        self.stats.fetch_bytes += size
        payload = {"requested": list(gids), "units": units}
        delay = self._handler_ns + total * self._serialize_ns
        self.engine.schedule(delay, partial(
            self.transport.send, requester, M_LOC_BULK_REPLY, payload, size))
        return units

    # ==================================================================
    # Invalidation
    # ==================================================================
    def _apply_notices(self, notices: List[Notice]) -> None:
        # Merge into the table for onward propagation; but decide
        # invalidation against each REPLICA's version, never the table:
        # diff acks advance the table without refreshing the replica, so
        # table advancement is not a proxy for replica freshness.
        # Rows batch here: every flush a delta demands leaves in one
        # interval, ahead of the invalidations.
        self.notice_table.add_all(notices)
        to_flush = []
        to_invalidate = []
        for notice in notices:
            key = notice.gid
            if to_invalidate and key in to_invalidate:
                continue
            effect = self._row(NOTICE, key, notice)[0].effect
            if effect == "drop":
                continue
            if effect == "flush_then_invalidate":
                to_flush.append(key)
            to_invalidate.append(key)
        if to_flush:
            self._flush(to_flush, flush_home=False)
        for key in to_invalidate:
            for fn in self.hooks.transition:
                fn(NOTICE, key, ObjState.INVALID)
            rec = self.unit(key)[1]
            rec.state = ObjState.INVALID
            rec.twin = None

    # ==================================================================
    # Timestamp steps: dsm.hlrc overrides these, _fetch_request,
    # ship_unit, _install_unit and _when_fence_clear.  _fetch_ready and
    # _stale are guards of the transition table.
    # ==================================================================
    def _note_advance(self, key: Any, version: int, writer: int,
                      interval: int) -> None:
        """A master here reached ``version`` (``writer``'s ``interval``)."""
        self.notice_table.add(Notice(key, version))

    def _note_flush(self, entries: List[Any], interval: int) -> None:
        """Diffs left for a home: their notices wait for its ack."""

    def _note_ack(self, versions: List[Tuple[Any, int]]) -> None:
        """A home acked a flush: the versions it made are notices now."""
        for key, version in versions:
            self.notice_table.add(Notice(key, version))

    def _fetch_ready(self, key: Any, unit: Any, msg: Message) -> bool:
        """Whether a home may serve a fetch now: a master is never older
        than the version a notice names (the fence saw to that)."""
        return True

    def _stale(self, key: Any, unit: Any, notice: Notice) -> bool:
        """Whether a notice makes a valid replica stale."""
        return unit[1].version < notice.version

    # ==================================================================
    # Lock choreography
    # ==================================================================
    def _lock_state(self, gid: int) -> NodeLockState:
        st = self.lock_states.get(gid)
        if st is None:
            st = NodeLockState(gid)
            self.lock_states[gid] = st
        return st

    def _on_lock_req(self, msg: Message) -> None:
        """Home role: route the request to the current owner (§3.2)."""
        p = msg.payload
        gid = p["gid"]
        if self.proxy is not None and self.home_node(gid) != self.node_id:
            self.proxy.forward(msg)  # re-routed to the current home
            return
        owner = self.lock_owner.get(gid)
        if owner is None:
            raise ProtocolError(
                f"lock request for unregistered gid {gid:#x}"
            )
        if owner == self.node_id:
            self._on_lock_fwd(msg)
        else:
            self.transport.send(owner, M_LOCK_FWD, dict(p))

    def _on_lock_fwd(self, msg: Message) -> None:
        p = msg.payload
        gid = p["gid"]
        st = self._lock_state(gid)
        if st.token is not None:
            st.token.enqueue(LockRequest(
                p["node"], p["tid"], p["priority"],
                restore_count=p.get("restore", 1),
                obs_span=p.get(OBS_SPAN_KEY),
            ))
            self._service_queue(st)
            return
        # Token has moved on: chase it.
        target = st.last_sent_to
        if target is None:
            home = self.home_node(gid)
            if self.node_id == home:
                target = self.lock_owner.get(gid)
            elif self.transport.dead_peers:
                # Routing hint wiped by failure recovery: fall back to
                # the (possibly adoptive) home, which re-routes via its
                # owner table.
                target = home
            if target is None or target == self.node_id:
                raise ProtocolError(
                    f"node {self.node_id} cannot route lock request "
                    f"for gid {gid:#x}"
                )
        self.transport.send(target, M_LOCK_FWD, dict(p))

    def _service_queue(self, st: NodeLockState) -> None:
        """Grant a free token to the next queued requester, if any."""
        if st.token is None or st.transit or st.holder_tid is not None:
            return
        while True:
            req = st.token.peek_next()
            if req is None:
                return
            if req.node == self.node_id:
                st.token.pop_next()
                if self._grant(st, req.thread_id):
                    return
                continue
            if self._ft_token_freeze:
                # Recovery is scanning for live tokens: hold the token
                # here; the orchestrator re-services every queue after.
                return
            st.token.pop_next()
            st.transit = True
            if self._when_fence_clear(lambda: self._send_token(st, req)):
                for fn in self.hooks.block:
                    fn(None, "fence", st.gid, None, req)
            return

    def _when_fence_clear(self, action: Callable[[], None]) -> bool:
        """Run ``action`` once all outstanding diffs are acked (§3.1's
        scalar-timestamp lock-transfer delay); true if it had to wait."""
        if self._outstanding_acks == 0:
            action()
            return False
        self.stats.fence_waits += 1
        self._fence_queue.append(action)
        return True

    def _grant(self, st: NodeLockState, tid: int) -> bool:
        """Hand the lock to a locally blocked thread.  False for a stale
        grant: a recovery re-issue can produce a second grant for a
        request that was already satisfied, and the thread is then no
        longer blocked on this lock."""
        entry = self._blocked_on.get(tid)
        if entry is None or entry[0] != st.gid:
            return False
        del self._blocked_on[tid]
        st.holder_tid = tid
        st.count = entry[1]
        for fn in self.hooks.lock_edge:
            fn(tid, st.gid, None, True)
        self._thread(tid).complete()
        return True

    def _send_token(self, st: NodeLockState, req: LockRequest) -> None:
        token = st.token
        assert token is not None
        if req.node in self.transport.dead_peers:
            # The grantee died while this transfer waited on the fence:
            # keep the token and serve the next live requester instead.
            st.transit = False
            self._service_queue(st)
            return
        if self._ft_token_freeze:
            # Recovery is counting live tokens; commit the send but hold
            # the frame until the freeze lifts.
            self._ft_frozen_sends.append(
                lambda: self._send_token(st, req))
            return
        # Per-receiver delta: what THIS node's table has that the token
        # has not yet delivered to req.node specifically.
        delta = self.notice_table.delta_since(
            token.seen_notices.setdefault(req.node, {}))
        payload = {
            "gid": token.gid,
            "grant": (req.node, req.thread_id, req.priority, req.restore_count),
            "queue": [r.wire() for r in token.queue],
            "waitq": [r.wire() for r in token.waitq],
            "seen": {n: dict(m) for n, m in token.seen_notices.items()},
            "delta": list(map(tuple, delta)),   # (gid, version, writer)
        }
        size = HEADER_BYTES + token.wire_size()
        for n in delta:     # ``n.wire_size()``, inline
            size += NOTICE_BYTES if n.writer < 0 else NOTICE_BYTES + WRITER_BYTES
        for fn in self.hooks.token_send:
            size += fn(token.gid, req, payload)
        st.token = None
        st.transit = False
        st.last_sent_to = req.node
        self.stats.token_transfers += 1
        self.transport.send(req.node, M_TOKEN, payload, size_bytes=size)

    def _on_token(self, msg: Message) -> None:
        p = msg.payload
        gid = p["gid"]
        st = self._lock_state(gid)
        token = LockToken(gid)
        token.queue = [LockRequest(*e) for e in p["queue"]]
        token.waitq = [LockRequest(*e) for e in p["waitq"]]
        token.seen_notices = {n: dict(m) for n, m in p["seen"].items()}
        st.token = token
        st.last_sent_to = None
        for fn in self.hooks.sync_scope:
            fn(True)
        # Acquire-side of the sync point: invalidate per the notice delta.
        notices = [Notice(g, v, w) for g, v, w in p["delta"]]
        self._apply_notices(notices)
        for fn in self.hooks.token_notices:
            fn(notices)
        # Tell the home who owns the lock now.
        home = self.home_node(gid)
        if home != self.node_id:
            self.transport.send(home, M_OWNER_UPDATE, {
                "gid": gid, "owner": self.node_id,
            })
        else:
            self.lock_owner[gid] = self.node_id
        node, tid, _prio, _restore = p["grant"]
        if node != self.node_id:  # pragma: no cover - defensive
            raise ProtocolError("token granted to the wrong node")
        if not self._grant(st, tid):
            # Stale grant: keep the token and serve whoever is waiting.
            self._service_queue(st)
        for fn in self.hooks.sync_scope:
            fn(False)

    def _on_owner_update(self, msg: Message) -> None:
        gid = msg.payload["gid"]
        if self.proxy is not None and self.home_node(gid) != self.node_id:
            self.proxy.forward(msg)  # re-routed to the current home
            return
        self.lock_owner[gid] = msg.payload["owner"]

    # ==================================================================
    # Fault-tolerance recovery primitives (driven by repro.ft.recovery)
    # ==================================================================
    def ft_serialize_unit(self, key: Any) -> Optional[Dict[str, Any]]:
        """Serialize one coherency unit in fetch-reply format (what
        ``ship_unit`` ships and buddy replication mirrors)."""
        unit = self.unit(key)
        if unit is None:
            return None
        obj, rec, lo, hi = unit
        gid, region = split_key(key)
        out: Dict[str, Any] = {
            "gid": gid,
            "region": region,
            "class_name": obj.class_name,
            "data": serialize_any(
                obj, self.specs.get(obj.class_name), self, lo, hi),
            "version": rec.version,
        }
        if region is not None:
            out["total_len"] = len(obj.data)
            out["region_elems"] = self._regions[gid].elems
        return out

    def ft_home_keys(self) -> List[Any]:
        """Keys of every coherency unit this node is (origin) home of."""
        keys: List[Any] = []
        for gid, obj in self.cache.items():
            hdr = obj.header
            if hdr is None or home_of(gid) != self.node_id:
                continue
            if gid in self._regions or hdr.state == ObjState.HOME:
                keys.extend(self.unit_keys(gid))
        return keys

    def ft_set_token_freeze(self, frozen: bool) -> None:
        """Freeze/unfreeze outbound token transfers.  Unfreezing flushes
        transfers the fence released during the freeze and re-services
        every lock queue."""
        self._ft_token_freeze = frozen
        if frozen:
            return
        sends, self._ft_frozen_sends = self._ft_frozen_sends, []
        for action in sends:
            action()
        for gid in sorted(self.lock_states):
            self._service_queue(self.lock_states[gid])

    def ft_purge_dead(self, dead: int) -> None:
        """Drop every trace of a dead node from local lock state: its
        queued requests and parked waiters can never be granted, and
        routing hints pointing at it would black-hole lock requests."""
        for gid in sorted(self.lock_states):
            st = self.lock_states[gid]
            if st.last_sent_to == dead:
                st.last_sent_to = None
            token = st.token
            if token is None:
                continue
            token.queue = [r for r in token.queue if r.node != dead]
            token.waitq = [r for r in token.waitq if r.node != dead]
            token.seen_notices.pop(dead, None)

    def ft_reissue_fetches(self, dead: int) -> int:
        """Re-send fetch requests that were in flight to a dead home;
        the adoptive home answers them from the replica store."""
        reissued = 0
        for (gid, region), waiters in list(self._fetch_waiters.items()):
            # A migrated unit's fetch may have targeted a node other
            # than home_of(gid): _fetch_targets knows where it went.
            if waiters and self._fetch_targets.get(
                    (gid, region), home_of(gid)) == dead:
                self._send_fetch(gid, region)
                reissued += 1
        return reissued

    def ft_reissue_blocked(self) -> int:
        """Re-issue lock requests for locally blocked threads whose
        request (or parked-waiter record) may have died with the failed
        node.  Duplicates are suppressed by the token queues' per-thread
        dedup; a re-grant of an already-granted request is skipped by
        the stale-grant check.  A waiter parked on a lost token wakes
        spuriously — legal, Java wait loops re-check their condition."""
        reissued = 0
        for tid in sorted(self._blocked_on):
            gid, restore = self._blocked_on[tid]
            thread = self._threads.get(tid)
            if thread is None:
                continue
            req = LockRequest(self.node_id, tid, thread.priority,
                              restore_count=restore)
            st = self.lock_states.get(gid)
            if st is not None and st.token is not None:
                if st.token.holds_request(self.node_id, tid):
                    continue  # original record survived with the token
                # Token is local (possibly freshly re-issued) but the
                # request record died with the old holder: requeue here.
                st.token.enqueue(req)
            else:
                self._send_lock_req(gid, req)
            reissued += 1
        return reissued
