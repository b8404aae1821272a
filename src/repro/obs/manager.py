"""ObsManager: wires the telemetry subsystem into a runtime.

One manager per :class:`~repro.runtime.javasplit.JavaSplitRuntime`
(when any ``obs_*`` knob is on).  It owns the shared collectors —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.spans.SpanRecorder`,
:class:`~repro.obs.profiler.StallProfiler` — and attaches one
:class:`ObsAgent` per worker, which subscribes to the DSM engine's and
the transport's hook points at every transaction boundary.

Passivity contract: with only ``obs_metrics``/``obs_profile`` on,
nothing here touches a message payload, adds a byte, or schedules an
event, so traffic and simulated time are identical to a bare run.
``obs_spans`` is the one knob with wire presence: it piggybacks span
ids on protocol payloads (:data:`~repro.net.message.OBS_SPAN_KEY`) so
causal trees survive forwarding across nodes, and bills those bytes
explicitly (see :data:`SPAN_KEY_BYTES`) — that cost is what
EXPERIMENTS.md measures.
"""

from __future__ import annotations

import tempfile
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..dsm.directory import MASTER_NODE
from ..net.message import (M_DIFF, M_DIFF_ACK, M_FETCH_REPLY, M_FT_REDIFF_ACK,
                           M_LOCK_FWD, M_LOCK_REQ, M_TOKEN, OBS_SPAN_KEY,
                           Message, estimate_size)
from .flight import FlightRecorder, build_dump, write_dump
from .metrics import MetricsRegistry
from .profiler import StallProfiler, site_label
from .spans import SpanRecorder
from .wallclock import WallClockStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode

# Wire cost of one piggybacked span id: key tag + 64-bit id.  Billed on
# every stamped payload whose message size is computed explicitly (the
# auto-estimated payloads pick the key up through estimate_size).
SPAN_KEY_BYTES = 12
# What estimate_size bills an auto-sized frame for the same key.
AUTO_SPAN_KEY_BYTES = estimate_size(OBS_SPAN_KEY) + 8
# Extra wire bytes per queue/waitq entry shipped inside a lock token
# (the 6th, obs_span tuple element).
TOKEN_ENTRY_BYTES = 8
# Ring capacity (events per node) of the flight recorder.
FLIGHT_EVENTS = 256


def current_site(thread: Any) -> Optional[Tuple[str, str, int, int]]:
    """(class, method, pc, line) of the instruction the thread is
    blocked on — same idiom the race detector uses for access sites."""
    frames = getattr(thread, "frames", None)
    if not frames:
        return None
    frame = frames[-1]
    method = frame.method
    if not (0 <= frame.pc < len(method.code)):
        return None
    instr = method.code[frame.pc]
    return (method.klass, method.name, frame.pc, instr.line)


class ObsManager:
    """Telemetry subsystem root, attached to one runtime."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        cfg = runtime.config
        now = lambda: runtime.engine.now  # noqa: E731 - tiny closure
        self.metrics: Optional[MetricsRegistry] = None
        if cfg.obs_metrics:
            self.metrics = MetricsRegistry(now)
        self.spans: Optional[SpanRecorder] = None
        if cfg.obs_spans:
            self.spans = SpanRecorder(now)
        self.profiler: Optional[StallProfiler] = None
        if cfg.obs_profile:
            self.profiler = StallProfiler(now)
        self.agents: Dict[int, ObsAgent] = {}
        # -- wall-clock plane ------------------------------------------
        self.wallclock: Optional[WallClockStats] = None
        if cfg.obs_wallclock:
            self.wallclock = WallClockStats()
        self._flight_enabled = cfg.obs_flight_recorder
        # node -> master-side flight ring (protocol/jit/serve events).
        self.flight: Dict[int, FlightRecorder] = {}
        # Paths of postmortems written during this run.
        self.flight_dumps: List[str] = []
        self._flight_dir: Optional[str] = cfg.obs_flight_dir
        self._violation_dumped = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        for worker in self.runtime.workers:
            self._attach_worker(worker)
        hooks = self.runtime.hooks
        hooks.worker_added.append(self._attach_worker)
        hooks.recovered.append(self._on_ft_recovered)
        hooks.violation.append(self.dump_violation)
        hooks.finished.append(self.finalize)
        # The proc backend times RTT and codec into the wall-clock
        # registry and dumps on a worker's death (plain SimNetwork has
        # no ``on_flight_dump``).
        net = self.runtime.network
        if hasattr(net, "on_flight_dump"):
            net.wallclock = self.wallclock
            net.on_flight_dump = self.dump_flight

    def _attach_worker(self, worker: "WorkerNode") -> None:
        agent = ObsAgent(self, worker)
        if self._flight_enabled:
            recorder = FlightRecorder(worker.node_id, FLIGHT_EVENTS)
            self.flight[worker.node_id] = recorder
            agent.flight = recorder
        self.agents[worker.node_id] = agent
        agent.attach()

    # ------------------------------------------------------------------
    # FT recovery: the orchestrator runs phases 2-7 synchronously at
    # one simulated instant, so the record's timestamps bound the whole
    # transaction: detection -> drain -> repair.
    # ------------------------------------------------------------------
    def _on_ft_recovered(self, _dead: int, record: Dict[str, Any]) -> None:
        master = MASTER_NODE
        if self.metrics is not None:
            self.metrics.inc("ft.recoveries", master)
        if self.spans is None:
            return
        start = record.get("detected_ns", 0)
        end = record.get("recovered_ns", start)
        root = self.spans.complete(
            "ft.recovery", master, start, end,
            dead=record.get("dead"), buddy=record.get("buddy"))
        for phase in ("units_adopted", "tokens_reissued",
                      "diffs_redirected", "fetches_reissued",
                      "lock_requests_reissued", "threads_respawned"):
            self.spans.complete(f"ft.{phase}", master, end, end, parent=root,
                                count=record.get(phase, 0))

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def flight_record(self, node: int, kind: str, **detail: Any) -> None:
        """Append one event to a node's master-side flight ring (no-op
        when the recorder is off or the node is unknown)."""
        recorder = self.flight.get(node)
        if recorder is not None:
            recorder.record(kind, self.runtime.engine.now, **detail)

    def dump_flight(self, reason: str,
                    detail: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Write a postmortem merging every node's ring; returns the path
        (None when the recorder is off)."""
        if not self._flight_enabled:
            return None
        nodes = {node: {"events": recorder.snapshot()}
                 for node, recorder in self.flight.items()}
        doc = build_dump(reason, detail, nodes, self.runtime.engine.now,
                         self.runtime.config.transport_backend)
        if self._flight_dir is None:
            self._flight_dir = tempfile.mkdtemp(prefix="repro-flight-")
        path = write_dump(doc, self._flight_dir)
        self.flight_dumps.append(path)
        return path

    def dump_violation(self, node: int, kind: str, detail: Any) -> None:
        """A checker's violation: one postmortem per run, on the first
        one (later ones would dump near-identical rings)."""
        if self._violation_dumped:
            return
        self._violation_dumped = True
        self.dump_flight("violation",
                         {"node": node, "kind": kind, "detail": str(detail)})

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """End of run: charge stalls still open (threads parked at
        exit) so the report accounts for every blocked nanosecond."""
        if self.profiler is not None:
            self.profiler.close_all()

    def report(self) -> Dict[str, Any]:
        """Telemetry summary for RunReport (JSON-serializable)."""
        out: Dict[str, Any] = {}
        if self.metrics is not None:
            out["metrics"] = self.metrics.as_dict()
        if self.spans is not None:
            out["spans"] = {"count": len(self.spans),
                            "dropped": self.spans.dropped}
        if self.profiler is not None:
            out["profile"] = self.profiler.report()
        if self.wallclock is not None:
            out["wallclock"] = self.wallclock.as_dict()
        if self.flight_dumps:
            out["flight_dumps"] = list(self.flight_dumps)
        return out


class ObsAgent:
    """Per-node telemetry subscriber.  Every method is a no-op for
    whichever collectors are off."""

    def __init__(self, manager: ObsManager, worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.node_id = worker.node_id
        self.dsm = worker.dsm
        self.transport = worker.transport
        self.metrics = manager.metrics
        self.spans = manager.spans
        self.profiler = manager.profiler
        self.wall = manager.wallclock
        self.flight = None  # set by _attach_worker when the knob is on
        self._now = lambda: worker.dsm.engine.now
        # Open transaction spans keyed by what closes them.
        self._fetch_spans: Dict[Tuple[int, Optional[int]], int] = {}
        self._serve_spans: Dict[Tuple[int, int, Optional[int]], int] = {}
        self._flush_spans: Dict[int, int] = {}
        self._fence_spans: Dict[int, int] = {}
        self._lock_spans: Dict[int, int] = {}  # tid -> acquire/wait span
        # Transaction start times for the latency histograms, kept
        # independently of spans so a metrics-only run still gets
        # fetch/flush/lock latency distributions.
        self._fetch_t0: Dict[Tuple[int, Optional[int]], int] = {}
        self._flush_t0: Dict[int, int] = {}
        self._lock_t0: Dict[int, int] = {}  # tid -> block time

    def attach(self) -> None:
        hooks = self.dsm.hooks
        hooks.block.append(self.on_block)
        hooks.lock_edge.append(self.on_lock_edge)
        hooks.fetch_serve.append(self.on_fetch_serve)
        hooks.fetch_done.append(self.on_fetch_done)
        hooks.diff_applied.append(self.on_diff_apply)
        hooks.token_send.append(self.on_token_send)
        self.transport.hooks.outbound.append(self.on_outbound)
        self.transport.hooks.deliver.append(self.on_deliver)

    # ------------------------------------------------------------------
    # Transport taps: stamp span ids on what leaves, consume them on
    # what arrives
    # ------------------------------------------------------------------
    def on_outbound(self, msg: Message) -> bool:
        mtype = msg.msg_type
        if mtype == M_DIFF:
            self._on_flush(msg)
        elif mtype == M_LOCK_FWD:
            self._on_lock_route(msg)
        elif mtype == M_FETCH_REPLY and self.spans is not None:
            p = msg.payload
            sid = self._serve_spans.pop(
                (msg.dst, p["gid"], p.get("region")), None)
            if sid is not None:
                self.spans.close(sid, bytes=msg.size_bytes)
        return False

    def on_deliver(self, msg: Message) -> None:
        mtype = msg.msg_type
        if mtype == M_TOKEN:
            self._on_token_arrive(msg.payload)
        elif mtype == M_DIFF_ACK or mtype == M_FT_REDIFF_ACK:
            self._on_diff_ack(msg.payload["ack_id"])
        elif ((mtype == M_LOCK_REQ or mtype == M_LOCK_FWD)
              and self.spans is not None):
            # The request reached its next hop (router or token holder).
            self._close_hop(msg.payload.get(OBS_SPAN_KEY))

    def _parent(self) -> Optional[int]:
        """Span id carried by the message being dispatched."""
        msg = self.transport.delivering
        return None if msg is None else msg.payload.get(OBS_SPAN_KEY)

    def _unit(self, gid: int) -> str:
        obj = self.dsm.cache.get(gid)
        name = getattr(obj, "class_name", None) or "?"
        return f"{name}@{gid:#x}"

    def _stall(self, thread: Any, kind: str, gid: int) -> None:
        if self.profiler is not None:
            self.profiler.open_stall(thread.tid, kind,
                                     current_site(thread), self._unit(gid))

    def _unstall(self, tid: int) -> None:
        if self.profiler is not None:
            self.profiler.close_stall(tid)

    def _stamp(self, msg: Message, sid: int, nbytes: int) -> None:
        """Put a span id on an outgoing frame, billing a new key."""
        if OBS_SPAN_KEY not in msg.payload:
            msg.size_bytes += nbytes
        msg.payload[OBS_SPAN_KEY] = sid

    # ------------------------------------------------------------------
    # Blocking: remote fetch round-trip, lock acquire / wait, fence
    # ------------------------------------------------------------------
    def on_block(self, thread: Any, kind: str, gid: int,
                 region: Optional[int], carrier: Any) -> None:
        if kind == "fence":
            self._on_fence_enter(gid, carrier)
        elif kind == "fetch":
            self._stall(thread, "fetch", gid)
            if len(self.dsm._fetch_waiters[(gid, region)]) == 1:
                self._on_fetch_start(gid, region, carrier)
        else:
            carrier.obs_span = self._on_lock_block(thread, gid, kind)

    def _on_fetch_start(self, gid: int, region: Optional[int],
                        payload: Optional[Dict[str, Any]]) -> None:
        """First waiter: the fetch request actually goes out (payload
        is None when a locality prefetch already covers it)."""
        if self.metrics is not None:
            self.metrics.inc("dsm.fetch.req", self.node_id)
            self._fetch_t0[(gid, region)] = self._now()
        if self.flight is not None:
            self.flight.record("dsm.fetch", self._now(), gid=gid)
        if self.wall is not None:
            self.wall.sample(self._now())
        if self.spans is None:
            return
        sid = self.spans.open("dsm.fetch", self.node_id,
                              gid=gid, region=region, unit=self._unit(gid))
        self._fetch_spans[(gid, region)] = sid
        if payload is not None and sid:
            payload[OBS_SPAN_KEY] = sid

    def on_fetch_serve(self, requester: int, obj: Any,
                       region: Optional[int], bulk: bool) -> None:
        """Home side: serialization + reply send; the span closes when
        the reply leaves (``on_outbound``)."""
        if bulk:
            return
        if self.metrics is not None:
            self.metrics.inc("dsm.fetch.served", self.node_id)
        if self.spans is not None:
            sid = self.spans.open("dsm.fetch.serve", self.node_id,
                                  parent=self._parent(), to=requester)
            if sid:
                self._serve_spans[(requester, obj.header.gid, region)] = sid

    def on_fetch_done(self, gid: int, region: Optional[int],
                      waiters: List[Any], nbytes: int) -> None:
        """Requester side: unit installed, waiters about to wake."""
        if self.spans is not None:
            sid = self._fetch_spans.pop((gid, region), None)
            if sid is not None:
                self.spans.close(sid, bytes=nbytes)
        if self.metrics is not None:
            t0 = self._fetch_t0.pop((gid, region), None)
            if t0 is not None:
                self.metrics.observe("dsm.fetch.latency_ns",
                                     self.node_id, self._now() - t0)
            self.metrics.observe("dsm.fetch.bytes", self.node_id, nbytes)
        for thread in waiters:
            self._unstall(thread.tid)

    # ------------------------------------------------------------------
    # Diff flush -> fenced ack
    # ------------------------------------------------------------------
    def _on_flush(self, msg: Message) -> None:
        """A diff message is about to go out: stamp its flush span."""
        home, p = msg.dst, msg.payload
        ack_id = p["ack_id"]
        if self.metrics is not None:
            self.metrics.inc("dsm.diff.sent", self.node_id)
            self.metrics.observe(
                "dsm.diff.bytes", self.node_id,
                sum(14 + len(d) for _g, d, _r in p["entries"]))
            self._flush_t0[ack_id] = self._now()
        if self.flight is not None:
            self.flight.record("dsm.flush", self._now(),
                               home=home, ack_id=ack_id)
        if self.wall is not None:
            self.wall.sample(self._now())
        if self.spans is None:
            return
        sid = self.spans.open("dsm.flush", self.node_id, home=home,
                              ack_id=ack_id, entries=len(p["entries"]))
        if sid:
            self._flush_spans[ack_id] = sid
            self._stamp(msg, sid, SPAN_KEY_BYTES)

    def on_diff_apply(self, msg: Message, ack_payload: Dict[str, Any],
                      delay_ns: int) -> None:
        """Home side: entries applied, ack scheduled delay_ns ahead."""
        if self.metrics is not None:
            self.metrics.inc("dsm.diff.applied", self.node_id)
        if self.spans is not None:
            now = self._now()
            self.spans.complete("dsm.diff.apply", self.node_id,
                                now, now + delay_ns, parent=self._parent(),
                                src=msg.src,
                                entries=len(msg.payload["entries"]))

    def _on_diff_ack(self, ack_id: int) -> None:
        """Writer side: the fenced ack came back."""
        if self.metrics is not None:
            t0 = self._flush_t0.pop(ack_id, None)
            if t0 is not None:
                self.metrics.observe("dsm.flush.rtt_ns", self.node_id,
                                     self._now() - t0)
        if self.spans is not None:
            sid = self._flush_spans.pop(ack_id, None)
            if sid is not None:
                self.spans.close(sid)

    # ------------------------------------------------------------------
    # Lock acquire end-to-end (manager forwarding, token transit)
    # ------------------------------------------------------------------
    def _on_lock_block(self, thread: Any, gid: int,
                       kind: str) -> Optional[int]:
        """A thread blocks for a lock token (or parks in dsm_wait).
        Returns the root span id the request carries from here on."""
        self._stall(thread, kind, gid)
        if self.metrics is not None:
            self.metrics.inc(f"dsm.{kind}.block", self.node_id)
            self._lock_t0[thread.tid] = self._now()
        if self.spans is None:
            return None
        name = "dsm.lock.acquire" if kind == "lock" else "dsm.lock.wait"
        sid = self.spans.open(name, self.node_id, gid=gid,
                              tid=thread.tid, unit=self._unit(gid))
        if sid:
            self._lock_spans[thread.tid] = sid
        return sid or None

    def _on_lock_route(self, msg: Message) -> None:
        """Manager/chase node forwards a lock request one more hop."""
        if self.metrics is not None:
            self.metrics.inc("dsm.lock.fwd", self.node_id)
        if self.spans is None:
            return
        hop = self.spans.open("dsm.lock.hop", self.node_id,
                              parent=msg.payload.get(OBS_SPAN_KEY),
                              to=msg.dst)
        if hop:
            self._stamp(msg, hop, AUTO_SPAN_KEY_BYTES)

    def _close_hop(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        span = self.spans.spans.get(span_id)
        if span is not None and span.name == "dsm.lock.hop":
            self.spans.close(span_id)

    def _on_fence_enter(self, gid: int, req: Any) -> None:
        """Token grant is gated on the release fence (§3.1): open a
        fence span so the wait shows up in the acquire tree."""
        if self.spans is None:
            return
        sid = self.spans.open("dsm.fence", self.node_id, gid=gid,
                              parent=req.obs_span)
        if sid:
            self._fence_spans[gid] = sid

    def on_token_send(self, gid: int, req: Any,
                      payload: Dict[str, Any]) -> int:
        """Token is leaving for the grantee.  Returns extra wire bytes
        (span key + per-entry obs_span slots), 0 when spans are off."""
        if self.metrics is not None:
            self.metrics.inc("dsm.token.sent", self.node_id)
        if self.flight is not None:
            self.flight.record("dsm.token", self._now(),
                               gid=gid, to=req.node)
        if self.spans is None:
            return 0
        fence = self._fence_spans.pop(gid, None)
        if fence is not None:
            self.spans.close(fence)
        sid = self.spans.open("dsm.token", self.node_id, gid=gid,
                              parent=req.obs_span, to=req.node)
        if not sid:
            return 0
        payload[OBS_SPAN_KEY] = sid
        return SPAN_KEY_BYTES + TOKEN_ENTRY_BYTES * (
            len(payload["queue"]) + len(payload["waitq"]))

    def _on_token_arrive(self, payload: Dict[str, Any]) -> None:
        if self.metrics is not None:
            self.metrics.inc("dsm.token.recv", self.node_id)
        if self.spans is None:
            return
        sid = payload.get(OBS_SPAN_KEY)
        if sid is None:
            return
        self.spans.close(sid)
        if self.metrics is not None:
            hops = sum(1 for name in self.spans.ancestry(sid)
                       if name == "dsm.lock.hop")
            self.metrics.observe("dsm.lock.hops", self.node_id, hops)

    def on_lock_edge(self, tid: int, gid: int, hdr: Any,
                     acquired: bool) -> None:
        """A thread owns a shared lock (always runs on its own node,
        whether the grant was local or arrived by token); a no-op for
        one that never blocked."""
        if not (gid and acquired):
            return
        self._unstall(tid)
        if self.metrics is not None:
            t0 = self._lock_t0.pop(tid, None)
            if t0 is not None:
                self.metrics.observe("dsm.lock.wait_ns", self.node_id,
                                     self._now() - t0)
        if self.spans is not None:
            sid = self._lock_spans.pop(tid, None)
            if sid is not None:
                self.spans.close(sid)


__all__ = ["ObsManager", "ObsAgent", "current_site", "site_label",
           "SPAN_KEY_BYTES", "TOKEN_ENTRY_BYTES"]
