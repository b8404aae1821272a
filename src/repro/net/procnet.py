"""Real-parallel multiprocess transport plane.

The ``proc`` backend runs one OS process per simulated node and pushes
every protocol frame through real sockets (Unix-domain by default, TCP
optional); the event schedule, the JVM interpreters and the DSM protocol
stay in the master process exactly as the ``sim`` backend runs them.

- **Master** (this process): owns the :class:`~repro.sim.engine.SimEngine`
  and all protocol logic.  It encodes each frame once with the wire codec
  (``repro.net.wire``) and writes those bytes to the *source* node's worker.
- **Worker** (one per node, :func:`worker_main`): a selector loop that
  owns that node's listening socket.  It routes a data frame on its
  header (``peek_route``) without decoding it: the same bytes go to the
  destination node's worker over a peer-to-peer socket, and that worker
  hands them back to the master over its control lane.
- At delivery the master waits for the physical copy, checks that it is
  byte-identical to what was sent, and dispatches the *decoded* message.

What one frame costs: one encode and one decode, both in the master;
three socket hops (master -> source worker -> destination worker ->
master), each one ``send`` by its writer; one wake-up of each worker,
which writes the frame on before it selects again (write interest is
taken only for bytes a socket refused); and one ``recv`` by the master
off the ``poll`` set of its control lanes, which it drains on every
send and blocks on only while a delivery waits for its copy.

Delivery *decisions* (ordering, latency, drops on detach) come from
simulator state alone, so with identical configs ``sim`` and ``proc``
give identical schedules, per-type message counts and final heaps.
``proc`` adds real process death: ``detach`` SIGKILLs the worker (the
fault injector's ``--kill NODE@TIME``), and an externally killed worker
is detected (control-lane EOF / waitpid) and surfaced to the runtime via
``on_proc_death``.  If a relay is impossible because an endpoint's
process is dead, the master decodes its own copy instead (counted as
``wire_fallback``), so delivery never diverges from ``sim``.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import selectors
import shutil
import signal
import socket
import tempfile
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..obs.metrics import Histogram
from ..sim.engine import SimEngine
from .message import Message
from .simnet import SimNetwork
from .wire import (FrameDecoder, WireError, decode_frame, encode_frame,
                   frame_with_prefix, peek_msg_id, peek_route, set_wire_timer)

# Control-plane frame types (master <-> worker only; never simulated):
# dst == MASTER_ID.  Any other frame on a control lane is data in transit.
CTRL_HELLO = "proc.hello"
CTRL_PEERS = "proc.peers"
CTRL_SHUTDOWN = "proc.shutdown"
CTRL_STATS = "proc.stats"
# Telemetry-plane frames (only when obs knobs are on; msg_id 0 like all
# ctrl traffic, so they never perturb the sim schedule).
CTRL_SIM = "proc.sim"
CTRL_FLIGHT = "proc.flight"
CTRL_DELTA = "proc.delta"

#: Master's node id on the control plane (never a simulated node).
MASTER_ID = -1

_RECV_CHUNK = 1 << 16


def _ctrl_msg(msg_type: str, src: int, payload: Dict[str, Any]) -> Message:
    """A control-plane frame.  ``msg_id=0`` is passed explicitly so the
    master's construction of control frames never advances the global
    message counter — keeping its evolution identical to the sim backend.
    """
    return Message(msg_type, src, MASTER_ID, payload, size_bytes=1, msg_id=0)


def _listen_socket(kind: str, path: Optional[str]) -> socket.socket:
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
    sock.listen(64)
    return sock


def _dial(kind: str, addr: Any, timeout_s: float = 10.0) -> socket.socket:
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target: Any = addr
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target = (addr[0], int(addr[1]))
    sock.settimeout(timeout_s)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    sock.settimeout(None)
    return sock


def _flush(sock: socket.socket, buf: bytearray) -> bool:
    """Write as much of ``buf`` as the socket accepts.  Returns False if
    the connection is gone (buffer is discarded)."""
    while buf:
        try:
            with memoryview(buf) as view:
                sent = sock.send(view[:262144])
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            buf.clear()
            return False
        del buf[:sent]
    return True


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

class _Peer:
    """One connection inside a worker: the control lane to the master,
    or a data-plane connection to another worker (accepted or dialed)."""

    __slots__ = ("sock", "outbuf", "decoder")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.outbuf = bytearray()
        self.decoder = FrameDecoder()


def worker_main(node_id: int, kind: str, ctrl_addr: Any,
                data_addr: Optional[str],
                obs: Optional[Dict[str, Any]] = None) -> None:
    """Entry point of one node's worker process.

    Connects back to the master's control listener, binds this node's
    data listener, then loops: data frames from the master go out to
    peer sockets, frames arriving from peers go back to the master, as
    they came.  Runs until a ``proc.shutdown`` frame or control-socket EOF.

    ``obs`` (from the master's ``obs_plane``) switches on the wall-clock
    telemetry the worker collects locally: a flight-recorder ring
    (``flight``), event-loop lag + codec histograms (``wallclock``), and
    periodic ``CTRL_DELTA`` shipments (``live`` every ``period_s``).
    With ``obs=None`` the loop is byte-identical to the plain backend.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        ctrl = _dial(kind, ctrl_addr)
    except OSError:
        return
    listener = _listen_socket(kind, data_addr)
    my_addr: Any = data_addr if kind == "unix" else listener.getsockname()

    sel = selectors.DefaultSelector()
    ctrl.setblocking(False)
    listener.setblocking(False)
    lane = _Peer(ctrl)
    peers_addr: Dict[int, Any] = {}
    conns: Dict[socket.socket, _Peer] = {}
    dialed: Dict[int, socket.socket] = {}
    stats = {"node": node_id, "frames_relayed": 0, "frames_received": 0,
             "bytes_out": 0, "bytes_in": 0, "relay_failures": 0,
             "wakeups": 0}
    running = True

    # -- wall-clock telemetry (all off when obs is None) ----------------
    obs = obs or {}
    wallclock = bool(obs.get("wallclock"))
    flight_on = bool(obs.get("flight"))
    live_on = bool(obs.get("live"))
    obs_on = wallclock or flight_on or live_on
    flight_cap = int(obs.get("flight_events", 256))
    period_s = float(obs.get("period_s", 0.25))
    flight: Deque[Dict[str, Any]] = deque(maxlen=flight_cap)
    flight_pending: Deque[Dict[str, Any]] = deque(maxlen=4 * flight_cap)
    # Latest sim timestamp seen from the master (a CTRL_SIM before each
    # data frame, flight knob on) — pairs every event with both clocks.
    last_sim = [0]
    hists: Dict[str, Histogram] = {}
    if wallclock:
        hists = {name: Histogram() for name in (
            "loop_lag_ns", "wire_encode_ns", "wire_decode_ns")}
        set_wire_timer(lambda op, ns: hists[f"wire_{op}_ns"].observe(ns))

    def flight_note(event_kind: str, **detail: Any) -> None:
        event = {"kind": event_kind, "wall_ns": time.monotonic_ns(),
                 "sim_ns": last_sim[0], **detail}
        flight.append(event)
        flight_pending.append(event)

    def flush_obs() -> None:
        """Ship flight events and (when live) a cumulative stats delta."""
        if flight_on and flight_pending:
            ctrl_send(CTRL_FLIGHT, {"events": list(flight_pending)})
            flight_pending.clear()
        if live_on:
            ctrl_send(CTRL_DELTA, {
                "stats": dict(stats),
                "hists": {name: h.as_dict() for name, h in hists.items()
                          if h.count},
            })

    def write(peer: _Peer, data: bytes) -> bool:
        """Send ``data`` behind what ``peer`` has queued: at once when
        nothing is, watching for writability only for what the socket
        did not take.  False if the connection is gone."""
        if peer.outbuf:
            peer.outbuf.extend(data)    # write interest is already on
            return True
        try:
            sent = peer.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            return False
        if sent < len(data):
            peer.outbuf.extend(memoryview(data)[sent:])
            sel.modify(peer.sock,
                       selectors.EVENT_READ | selectors.EVENT_WRITE)
        return True

    def drain(peer: _Peer) -> bool:
        """Writable: send what is queued; read-only interest once empty."""
        if not _flush(peer.sock, peer.outbuf):
            return False
        if not peer.outbuf:
            sel.modify(peer.sock, selectors.EVENT_READ)
        return True

    def ctrl_write(frame: bytes) -> None:
        nonlocal running
        if not write(lane, frame_with_prefix(frame)):
            running = False     # master is gone

    def ctrl_send(msg_type: str, payload: Dict[str, Any]) -> None:
        ctrl_write(encode_frame(_ctrl_msg(msg_type, node_id, payload)))

    def drop_peer(sock: socket.socket) -> None:
        conns.pop(sock, None)
        for nid, s in list(dialed.items()):
            if s is sock:
                del dialed[nid]
        try:
            sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        sock.close()

    def relay_failed(dst: int, why: str) -> None:
        stats["relay_failures"] += 1
        if flight_on:
            flight_note("relay.fail", dst=dst, why=why)

    def relay(dst: int, frame: bytes) -> None:
        sock = dialed.get(dst)
        if sock is None:
            addr = peers_addr.get(dst)
            if addr is None:
                return relay_failed(dst, "no-addr")
            try:
                sock = _dial(kind, addr)
            except OSError:
                return relay_failed(dst, "dial")
            sock.setblocking(False)
            dialed[dst] = sock
            conns[sock] = _Peer(sock)
            sel.register(sock, selectors.EVENT_READ)
        stats["frames_relayed"] += 1
        stats["bytes_out"] += len(frame) + 4
        if flight_on:
            flight_note("relay", dst=dst, bytes=len(frame) + 4)
        if not write(conns[sock], frame_with_prefix(frame)):
            relay_failed(dst, "send")
            drop_peer(sock)

    def on_ctrl_frame(raw: bytes) -> None:
        nonlocal running
        dst = peek_route(raw)[1]
        if dst != MASTER_ID:
            return relay(dst, raw)  # a data frame: routed, never decoded
        msg = decode_frame(raw)
        if msg.msg_type == CTRL_SIM:
            last_sim[0] = msg.payload["sim"]
        elif msg.msg_type == CTRL_PEERS:
            peers_addr.update(msg.payload["peers"])
        elif msg.msg_type == CTRL_SHUTDOWN:
            if flight_on:
                flight_note("shutdown")
            running = False

    def on_peer_frame(raw: bytes) -> None:
        stats["frames_received"] += 1
        stats["bytes_in"] += len(raw) + 4
        if flight_on:
            flight_note("recv", bytes=len(raw) + 4)
        ctrl_write(raw)

    sel.register(ctrl, selectors.EVENT_READ)
    sel.register(listener, selectors.EVENT_READ)
    ctrl_send(CTRL_HELLO,
              {"node": node_id, "addr": my_addr, "pid": os.getpid()})

    next_flush = time.monotonic() + period_s
    try:
        while running:
            timeout = 1.0
            if obs_on:
                now = time.monotonic()
                if now >= next_flush:
                    flush_obs()
                    next_flush = now + period_s
                timeout = min(1.0, max(0.001, next_flush - now))
            ready = sel.select(timeout=timeout)
            if ready:
                stats["wakeups"] += 1
            t_iter = time.monotonic_ns() if (wallclock and ready) else 0
            for key, events in ready:
                sock = key.fileobj
                if sock is listener:
                    try:
                        accepted, _ = listener.accept()
                    except OSError:
                        continue
                    accepted.setblocking(False)
                    conns[accepted] = _Peer(accepted)
                    sel.register(accepted, selectors.EVENT_READ)
                    continue
                peer = lane if sock is ctrl else conns.get(sock)
                if peer is None:
                    continue
                ok = not events & selectors.EVENT_WRITE or drain(peer)
                if ok and events & selectors.EVENT_READ:
                    try:
                        data = sock.recv(_RECV_CHUNK)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError:
                        data = b""
                    ok = bool(data)
                    on_frame = on_ctrl_frame if peer is lane else on_peer_frame
                    for raw in peer.decoder.feed(data):
                        on_frame(raw)
                if not ok:
                    if peer is lane:
                        running = False  # master is gone
                        break
                    drop_peer(sock)
            if t_iter:
                hists["loop_lag_ns"].observe(time.monotonic_ns() - t_iter)
    except Exception:  # pragma: no cover - master detects death via EOF
        running = False

    # Graceful drain: push pending peer frames and the stats reply out
    # before exiting, bounded so a wedged peer cannot hang shutdown.
    if obs_on:
        flush_obs()
    stats_payload: Dict[str, Any] = dict(stats)
    if wallclock:
        stats_payload["hists"] = {name: h.as_dict()
                                  for name, h in hists.items() if h.count}
    ctrl_send(CTRL_STATS, stats_payload)
    deadline = time.monotonic() + 5.0
    pending = [lane] + list(conns.values())
    while time.monotonic() < deadline and any(p.outbuf for p in pending):
        for peer in pending:
            if peer.outbuf:
                _flush(peer.sock, peer.outbuf)
        if any(p.outbuf for p in pending):
            time.sleep(0.005)
    for sock in list(conns):
        sock.close()
    listener.close()
    ctrl.close()
    sel.close()
    if kind == "unix" and data_addr:
        try:
            os.unlink(data_addr)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Master side
# ---------------------------------------------------------------------------

class ProcNetwork(SimNetwork):
    """The simulated network with a real multiprocess wire plane.

    Subclasses :class:`SimNetwork` and wraps only its ``send`` (the
    frame goes onto the sockets once the simulated network accepted it)
    and its ``_deliver`` (the wire-decoded copy is what gets delivered),
    so timing, ordering, accounting, and the jitter RNG stream are
    untouched — a run on this backend follows the exact event schedule
    of the sim backend while every frame crosses a real socket between
    worker processes.
    """

    def __init__(
        self,
        engine: SimEngine,
        jitter_ns: int = 0,
        seed: int = 0,
        socket_kind: str = "unix",
        wait_timeout_s: float = 30.0,
    ) -> None:
        super().__init__(engine, jitter_ns=jitter_ns, seed=seed)
        if socket_kind not in ("unix", "tcp"):
            raise ValueError(f"unknown socket kind {socket_kind!r}")
        self.socket_kind = socket_kind
        self.wait_timeout_s = wait_timeout_s
        # Runtime hook: called (from an engine event) when a worker
        # process is found dead without the simulator having detached it
        # — i.e. genuine external process death (SIGKILL from outside).
        self.on_proc_death: Optional[Callable[[int], None]] = None
        # -- telemetry plane (armed by ObsManager.attach) --------------
        # Knob dict forked into every worker ({"wallclock", "flight",
        # "flight_events", "live", "period_s"}); None = all off.
        self.obs_plane: Optional[Dict[str, Any]] = None
        # Master-side wall-clock registry (obs.wallclock.WallClockStats).
        self.wallclock: Optional[Any] = None
        # Called synchronously with (reason, detail) on external worker
        # death or wire corruption/timeouts to write a flight postmortem.
        self.on_flight_dump: Optional[
            Callable[[str, Dict[str, Any]], None]] = None
        # node -> ring of flight events shipped up from its worker.
        self._flight_mirror: Dict[int, Deque[Dict[str, Any]]] = {}
        # msg_id -> FIFO of relay-send timestamps (RTT measurement).
        self._relay_t0: Dict[int, Deque[int]] = {}
        self._stopping = False
        self._started = False
        self._stopped = False
        self._tmpdir: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        self._ctrl_addr: Any = None
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._addrs: Dict[int, Any] = {}
        # Open control lanes, both ways round (`_handshake` adds, only
        # `_close_ctrl` removes): node -> socket, and fd -> (socket, node,
        # decoder) for the fds `_poll` watches.
        self._ctrl: Dict[int, socket.socket] = {}
        self._lanes: Dict[int, Tuple[socket.socket, int, FrameDecoder]] = {}
        self._poll = select.poll()
        self._dead_procs: set = set()
        self._worker_stats: Dict[int, Dict[str, Any]] = {}
        # msg_id -> [encoded frame, outstanding deliveries, relays afloat]
        self._sent: Dict[int, List[Any]] = {}
        # msg_id -> FIFO of physically arrived copies (bytes)
        self._arrived: Dict[int, Deque[bytes]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork one worker per attached node and complete the handshake.

        Idempotent; called lazily on the first outbound frame if the
        runtime has not called it explicitly.  All workers are forked
        *before* any control connection is accepted, so no worker
        inherits another's accepted-connection descriptor (which would
        defeat EOF-based death detection).
        """
        if self._started:
            return
        if self._stopped:
            raise RuntimeError("ProcNetwork already stopped")
        self._started = True
        nodes = self.node_ids
        self._tmpdir = tempfile.mkdtemp(prefix="repro-proc-")
        if self.socket_kind == "unix":
            ctrl_addr: Any = os.path.join(self._tmpdir, "ctrl.sock")
        else:
            ctrl_addr = None
        self._listener = _listen_socket(self.socket_kind, ctrl_addr)
        if self.socket_kind == "tcp":
            ctrl_addr = self._listener.getsockname()
        self._ctrl_addr = ctrl_addr
        for node in nodes:
            self._fork_worker(node)
        self._handshake(nodes)

    def _fork_worker(self, node: int) -> None:
        data_addr = (os.path.join(self._tmpdir, f"n{node}.sock")
                     if self.socket_kind == "unix" else None)
        proc = self._mp_context().Process(
            target=worker_main,
            args=(node, self.socket_kind, self._ctrl_addr, data_addr,
                  self.obs_plane),
            daemon=True,
            name=f"repro-node-{node}",
        )
        proc.start()
        self._procs[node] = proc

    # ------------------------------------------------------------------
    # Dynamic join: a node attached after start() gets a late-forked
    # worker process, handshaken on the still-open control listener and
    # announced to the existing workers via an incremental CTRL_PEERS
    # update (they dial new peers lazily).  With the "fork" start method
    # the late worker inherits the master's already-accepted control
    # descriptors, which can delay EOF-based death detection of *other*
    # workers — but `_pump` also polls waitpid whenever a blocking wait
    # times out, and simulator-driven kills go through `detach`
    # (explicit `_dead_procs` entry), so failure detection is unaffected.
    # ------------------------------------------------------------------
    def attach(self, node_id: int, cost_model, handler) -> None:
        super().attach(node_id, cost_model, handler)
        if self._started and not self._stopped and node_id not in self._procs:
            self._fork_worker(node_id)
            self._handshake([node_id])

    def _mp_context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def _handshake(self, nodes: List[int]) -> None:
        addrs: Dict[int, Any] = {}
        self._listener.settimeout(self.wait_timeout_s)
        for _ in nodes:
            try:
                conn, _ = self._listener.accept()
            except (socket.timeout, OSError) as exc:
                raise WireError("worker handshake timed out") from exc
            conn.settimeout(self.wait_timeout_s)
            decoder = FrameDecoder()
            hello: Optional[Message] = None
            while hello is None:
                data = conn.recv(_RECV_CHUNK)
                if not data:
                    raise WireError("worker died during handshake")
                for raw in decoder.feed(data):
                    msg = decode_frame(raw)
                    if msg.msg_type == CTRL_HELLO:
                        hello = msg
                        break
            node = hello.payload["node"]
            self._ctrl[node] = conn
            self._lanes[conn.fileno()] = (conn, node, decoder)
            self._poll.register(conn, select.POLLIN)
            addrs[node] = hello.payload["addr"]
        if set(addrs) != set(nodes):
            raise WireError(f"handshake mismatch: got {sorted(addrs)}, "
                            f"expected {nodes}")
        self._addrs.update(addrs)
        # Fresh nodes learn the full peer map; everyone already running
        # learns just the newcomers (workers merge incrementally).
        for node in nodes:
            self._ctrl_send(node, CTRL_PEERS, {"peers": dict(self._addrs)})
        for other in list(self._ctrl):
            if other not in addrs:
                self._ctrl_send(other, CTRL_PEERS, {"peers": addrs})

    def stop(self) -> Dict[str, Any]:
        """Gracefully shut down all workers and collect their counters.

        Live workers get a ``proc.shutdown`` frame and a bounded window
        to drain and reply with their stats; stragglers are killed.
        Returns the wire-plane summary for the run report.  Idempotent.
        """
        self._stopping = True  # EOFs from here on are orderly, not deaths
        if self._started and not self._stopped:
            for node in list(self._ctrl):
                self._ctrl_send(node, CTRL_SHUTDOWN, {})
            deadline = time.monotonic() + min(10.0, self.wait_timeout_s)
            want = list(self._ctrl)
            while (time.monotonic() < deadline
                   and any(n not in self._worker_stats for n in want)):
                self._pump(0.05)
                want = [n for n in want if n in self._ctrl]
            for node, proc in self._procs.items():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except OSError:
                        pass
                    proc.join(timeout=2.0)
            for node in list(self._ctrl):
                self._close_ctrl(node)
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)
                self._tmpdir = None
        self._stopped = True
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """Wire-plane summary: master counters plus per-worker stats."""
        return {
            "backend": "proc",
            "socket_kind": self.socket_kind,
            "wire_frames": self.stats.wire_frames,
            "wire_bytes": self.stats.wire_bytes,
            "wire_delivered": self.stats.wire_delivered,
            "wire_fallback": self.stats.wire_fallback,
            "workers": {n: self._worker_stats.get(n)
                        for n in sorted(self._procs)},
        }

    @property
    def proc_pids(self) -> Dict[int, int]:
        """Worker process ids by node (for tests and diagnostics)."""
        return {n: p.pid for n, p in self._procs.items()}

    def proc_alive(self, node_id: int) -> bool:
        """True while the node's worker process is running."""
        proc = self._procs.get(node_id)
        return proc is not None and proc.is_alive()

    # ------------------------------------------------------------------
    # Detach = genuine process death
    # ------------------------------------------------------------------
    def detach(self, node_id: int) -> None:
        """Detach the endpoint *and* SIGKILL its worker process, so the
        fault injector's ``detach:NODE@TIME`` (the ``--kill`` flag) maps
        to real process death on this backend."""
        self._dead_procs.add(node_id)  # before close: no death callback
        proc = self._procs.get(node_id)
        if proc is not None and proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.join(timeout=5.0)
        super().detach(node_id)
        self._close_ctrl(node_id)

    # ------------------------------------------------------------------
    # The physical plane, around SimNetwork.send / _deliver
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        super().send(msg)       # a detached endpoint raises here
        self._outbound(msg)

    def _deliver(self, msg: Message) -> None:
        if msg.dst in self._handlers:
            super()._deliver(self._resolve(msg))
        else:
            self._discard(msg)
            super()._deliver(msg)   # counted as dropped

    def _outbound(self, msg: Message) -> None:
        """Put an accepted frame on the source node's control lane."""
        if not self._started:
            self.start()
        self._pump(0)
        entry = self._sent.get(msg.msg_id)
        if entry is None:
            # Encode once per msg_id: retransmissions of the same frame
            # (ARQ, injected duplicates) relay the original bytes.
            entry = self._sent[msg.msg_id] = [encode_frame(msg), 0, 0]
        entry[1] += 1
        frame = entry[0]
        self.stats.wire_frames += 1
        self.stats.wire_bytes += len(frame) + 4
        if self.wallclock is not None:
            self.wallclock.sample(self.engine.now)
        if msg.src == msg.dst:
            return  # loopback: no physical hop, decode-proved at delivery
        if self._proc_ok(msg.src) and self._proc_ok(msg.dst):
            if self.obs_plane is not None and self.obs_plane.get("flight"):
                # Both clocks on worker flight events; data frames untouched.
                self._ctrl_send(msg.src, CTRL_SIM, {"sim": self.engine.now})
            if self._write(msg.src, frame):
                entry[2] += 1
                if self.wallclock is not None:
                    self._relay_t0.setdefault(
                        msg.msg_id, deque()).append(time.monotonic_ns())
        # A dead endpoint means no relay: delivery falls back to the
        # master's copy so the schedule never diverges from sim.

    def _resolve(self, msg: Message) -> Message:
        """The wire-decoded copy of an in-flight frame, to deliver."""
        entry = self._sent.get(msg.msg_id)
        if entry is None:  # not ours (never outbound); deliver as-is
            return msg
        frame = entry[0]
        data: Optional[bytes] = None
        queue = self._arrived.get(msg.msg_id)
        if queue:
            data = queue.popleft()
        elif entry[2] > 0:
            data = self._await_frame(msg)
        if data is None:
            if msg.src != msg.dst:
                self.stats.wire_fallback += 1
            data = frame
        else:
            entry[2] -= 1
            self.stats.wire_delivered += 1
            if data != frame:
                raise self._wire_error(
                    f"wire corruption: frame {msg.msg_id} arrived "
                    f"{len(data)}B, sent {len(frame)}B")
        decoded = decode_frame(data)
        self._consume(msg.msg_id, entry)
        return decoded

    def _discard(self, msg: Message) -> None:
        """Retire a frame dropped in flight (its endpoint detached)."""
        entry = self._sent.get(msg.msg_id)
        if entry is None:
            return
        queue = self._arrived.get(msg.msg_id)
        if queue:
            queue.popleft()
            entry[2] -= 1
        self._consume(msg.msg_id, entry)

    def _consume(self, msg_id: int, entry: List[Any]) -> None:
        entry[1] -= 1
        if entry[1] <= 0:
            del self._sent[msg_id]
            self._arrived.pop(msg_id, None)
            self._relay_t0.pop(msg_id, None)

    def _wire_error(self, detail: str) -> WireError:
        """Build a WireError, dumping the flight rings first (the error
        is about to unwind the run — this is the last coherent look)."""
        if self.on_flight_dump is not None:
            try:
                self.on_flight_dump("wire-error", {"detail": detail})
            except Exception:  # pragma: no cover - dump must not mask
                pass
        return WireError(detail)

    def _await_frame(self, msg: Message) -> Optional[bytes]:
        """Block until the physical copy of ``msg`` lands, an endpoint
        process dies (→ fallback), or the wait deadline expires."""
        deadline = time.monotonic() + self.wait_timeout_s
        queue = self._arrived.setdefault(msg.msg_id, deque())
        while True:
            if queue:
                return queue.popleft()
            if not (self._proc_ok(msg.src) and self._proc_ok(msg.dst)):
                self._pump(0)  # drain anything racing the death notice
                return queue.popleft() if queue else None
            if time.monotonic() > deadline:
                raise self._wire_error(
                    f"timed out after {self.wait_timeout_s}s waiting for "
                    f"physical copy of {msg}")
            self._pump(0.05)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _proc_ok(self, node_id: int) -> bool:
        return node_id not in self._dead_procs and node_id in self._ctrl

    def _ctrl_send(self, node_id: int, msg_type: str,
                   payload: Dict[str, Any]) -> bool:
        return self._write(
            node_id, encode_frame(_ctrl_msg(msg_type, MASTER_ID, payload)))

    def _write(self, node_id: int, frame: bytes) -> bool:
        """Put one frame (ctrl or data) on a worker's control lane."""
        conn = self._ctrl.get(node_id)
        if conn is None:
            return False
        try:
            conn.sendall(frame_with_prefix(frame))
            return True
        except OSError:
            self._note_dead(node_id)
            return False

    def _pump(self, timeout: float) -> None:
        """Drain worker control sockets; poll process liveness (a waitpid
        each) only after an EOF or a *blocking* wait that timed out."""
        reap = False
        while self._lanes:
            try:
                readable = self._poll.poll(timeout * 1000)
            except OSError:
                break
            for fd, _ in readable:
                lane = self._lanes.get(fd)
                if lane is None:
                    continue    # closed by an earlier frame of this batch
                conn, node, decoder = lane
                try:
                    data = conn.recv(_RECV_CHUNK)
                except OSError:
                    data = b""
                if data:
                    for raw in decoder.feed(data):
                        self._on_frame(node, raw)
                else:
                    reap = True
                    self._note_dead(node)
            if not readable:
                reap = reap or timeout > 0
                break
            timeout = 0  # keep draining what is already queued
        if reap:
            for node, proc in self._procs.items():
                if node not in self._dead_procs and not proc.is_alive():
                    self._note_dead(node)

    def _on_frame(self, node: int, raw: bytes) -> None:
        """A frame off a lane: data that worker hands back, or ctrl."""
        if peek_route(raw)[1] != MASTER_ID:
            msg_id = peek_msg_id(raw)
            queue = self.wallclock is not None and self._relay_t0.get(msg_id)
            if queue:
                self.wallclock.observe(
                    "net.rtt_ns", node, time.monotonic_ns() - queue.popleft())
            if msg_id in self._sent:
                self._arrived.setdefault(msg_id, deque()).append(raw)
            # else: a copy whose deliveries were all discarded — expired.
            return
        msg = decode_frame(raw)
        if msg.msg_type == CTRL_STATS:
            self._worker_stats[node] = dict(msg.payload)
            self._ingest_hists(node, msg.payload.get("hists"))
        elif msg.msg_type == CTRL_DELTA:
            if self.wallclock is not None:
                for name, value in msg.payload.get("stats", {}).items():
                    if name != "node" and isinstance(value, int):
                        self.wallclock.set_counter(
                            f"worker.{name}", node, value)
            self._ingest_hists(node, msg.payload.get("hists"))
        elif msg.msg_type == CTRL_FLIGHT:
            cap = (self.obs_plane or {}).get("flight_events", 256)
            ring = self._flight_mirror.get(node)
            if ring is None:
                ring = self._flight_mirror[node] = deque(maxlen=cap)
            ring.extend(msg.payload.get("events", ()))

    def _ingest_hists(self, node: int, hists: Optional[Dict[str, Any]]
                      ) -> None:
        """Merge worker-shipped cumulative histograms (replace per node)."""
        if self.wallclock is None or not hists:
            return
        for name, doc in hists.items():
            self.wallclock.set_hist(f"worker.{name}", node, doc)

    def flight_worker_events(self, node: int) -> List[Dict[str, Any]]:
        """The flight events last shipped up from one node's worker."""
        return list(self._flight_mirror.get(node, ()))

    def _close_ctrl(self, node_id: int) -> None:
        conn = self._ctrl.pop(node_id, None)
        if conn is not None:
            del self._lanes[conn.fileno()]
            self._poll.unregister(conn)
            conn.close()

    def _note_dead(self, node_id: int) -> None:
        """A worker process died under us (EOF / waitpid): close its
        control lane and, if the simulator still considers the node
        alive, surface genuine external death to the runtime."""
        if node_id in self._dead_procs:
            return
        self._dead_procs.add(node_id)
        self._close_ctrl(node_id)
        if (self.on_flight_dump is not None and not self._stopping
                and self.is_attached(node_id)):
            try:
                self.on_flight_dump("sigkill", {"node": node_id})
            except Exception:  # pragma: no cover - dump must not mask
                pass
        if self.on_proc_death is not None and self.is_attached(node_id):
            self.engine.schedule(
                0, lambda: self._fire_death(node_id))

    def _fire_death(self, node_id: int) -> None:
        if self.on_proc_death is not None and self.is_attached(node_id):
            self.on_proc_death(node_id)
