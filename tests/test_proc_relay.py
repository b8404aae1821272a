"""The proc backend's verbatim relay, on the frames it was built for.

A data frame is encoded once by the master and travels master → source
worker → destination worker → master as the same bytes; workers route on
the frame header (``peek_route``) and never decode it.  These tests put
large array payloads — the shape of ``benchmarks/e2e/programs/bulk.mj``
— through that path and hold it to the sim backend byte for byte, then
check what the relay must still do: reject a corrupted copy (whether
it arrived before the delivery or after the master decoded ahead), decode
each delivery once, keep retransmitted and duplicated copies of one
``msg_id`` in FIFO order, stamp worker flight events with simulated time,
pass each frame on in the worker wake-up that brought it, fail a run
whose worker raised, and give up on a copy that never comes.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib
import signal
import time

import pytest

from repro.check import FaultInjector, FaultPlan
from repro.lang import compile_source
from repro.net import Transport, procnet
from repro.net.message import Message
from repro.net.procnet import CTRL_PEERS, MASTER_ID, ProcNetwork
from repro.net.wire import WireError
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime
from repro.sim import SUN, SimEngine

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
LOCKS = ROOT / "benchmarks" / "e2e" / "programs" / "locks.mj"

CELLS = 4096
ROUNDS = 5
THREADS = 3

#: One writer bumps 8 slots of a 4096-int board per round under a lock,
#: the others read 8: every hand-over refetches a 32 KiB array.
BULK_SRC = """
class Board {
    int[] cells;
    int round;
    Board(int n) { cells = new int[n]; round = 0; }
}
class BulkWorker extends Thread {
    Board b; int id; int rounds; int sum;
    BulkWorker(Board b, int id, int rounds) {
        this.b = b; this.id = id; this.rounds = rounds;
    }
    void run() {
        int n = %(cells)d;
        int stride = n / 8;
        for (int r = 0; r < rounds; r++) {
            synchronized (b) {
                if (id == 0) {
                    for (int k = 0; k < 8; k++) {
                        int i = (k * stride + r) %% n;
                        b.cells[i] = b.cells[i] + 1;
                    }
                    b.round = b.round + 1;
                } else {
                    for (int k = 0; k < 8; k++) {
                        sum += b.cells[(k * stride + r) %% n];
                    }
                }
            }
        }
    }
}
class Bulk {
    static int main() {
        Board b = new Board(%(cells)d);
        BulkWorker[] ts = new BulkWorker[%(threads)d];
        for (int t = 0; t < %(threads)d; t++) {
            ts[t] = new BulkWorker(b, t, %(rounds)d);
            ts[t].start();
        }
        for (int t = 0; t < %(threads)d; t++) { ts[t].join(); }
        return b.round;
    }
}
""" % {"cells": CELLS, "rounds": ROUNDS, "threads": THREADS}


def _byte_strings(value):
    """Every ``bytes`` in a payload, depth first: the serialized units
    and diffs.  (Thread and message ids count up process-wide, so the
    plain fields of two runs in one test process differ by an offset.)"""
    if isinstance(value, bytes):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _byte_strings(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _byte_strings(item)


def run_bulk(backend: str, **overrides):
    """Run the board program on 3 nodes; returns (runtime, report, SHA-256
    over every frame delivered to a handler — route, type, billed size
    and serialized bodies, in delivery order — and the largest body)."""
    config = RuntimeConfig(num_nodes=3, seed=0, transport_backend=backend,
                           **overrides)
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(BULK_SRC)), config)
    digest = hashlib.sha256()
    largest = [0]

    def delivered(msg: Message) -> None:
        digest.update(f"{msg.msg_type} {msg.src}>{msg.dst} "
                      f"{msg.size_bytes}\n".encode())
        for body in _byte_strings(msg.payload):
            digest.update(len(body).to_bytes(4, "big") + body)
            largest[0] = max(largest[0], len(body))

    for worker in rt.workers:
        worker.transport.hooks.deliver.append(delivered)
    report = rt.run()
    return rt, report, digest.hexdigest(), largest[0]


def test_large_array_frames_identical_on_sim_and_proc(proc_guard):
    _, sim, sim_sha, sim_largest = run_bulk("sim")
    _, proc, proc_sha, proc_largest = run_bulk("proc")

    assert sim.result == proc.result == ROUNDS
    assert proc.simulated_ns == sim.simulated_ns
    assert proc.net.messages == sim.net.messages
    assert proc.net.bytes == sim.net.bytes
    assert proc.net.by_type == sim.net.by_type      # counts and bytes
    assert proc_sha == sim_sha
    # The whole board crossed as one body, many times over.
    assert proc_largest == sim_largest == 4 + 8 * CELLS
    wire = proc.proc
    assert wire["wire_fallback"] == 0
    assert wire["wire_frames"] == proc.net.messages
    assert wire["wire_bytes"] > 8 * CELLS * ROUNDS
    relayed = sum(w["frames_relayed"] for w in wire["workers"].values())
    received = sum(w["frames_received"] for w in wire["workers"].values())
    assert relayed == received == wire["wire_delivered"] > 0
    assert sum(w["bytes_out"] for w in wire["workers"].values()) \
        == sum(w["bytes_in"] for w in wire["workers"].values())


def run_locks_proc():
    """``locks.mj`` with 4 threads x 25 hand-overs on 3 proc nodes."""
    source = LOCKS.read_text().replace("@THREADS@", "4") \
        .replace("@ITERS@", "25")
    config = RuntimeConfig(num_nodes=3, seed=0, transport_backend="proc")
    report = JavaSplitRuntime(
        rewrite_application(compile_source(source)), config).run()
    assert report.result == 100
    return report


def test_a_frame_costs_one_worker_wakeup_per_hop(proc_guard):
    """The source worker writes a frame to the peer, and the destination
    worker to the master, in the wake-up that read it: write interest is
    only taken for bytes a socket refused.  So small frames cost two
    worker wake-ups (``poll`` calls that returned ready fds) in all,
    plus a few per worker for the peer map, accepts and shutdown."""
    report = run_locks_proc()
    workers = report.proc["workers"].values()
    relayed = sum(w["frames_relayed"] for w in workers)
    wakeups = sum(w["wakeups"] for w in workers)
    assert relayed > 300
    assert 0 < wakeups <= 2 * relayed + 4 * len(workers), \
        (wakeups, relayed)


def _count_data_decodes(monkeypatch):
    """Count the master's decodes of data frames (not ctrl frames)."""
    count = [0]
    decode = procnet.decode_frame

    def counting(frame):
        msg = decode(frame)
        if msg.dst != MASTER_ID:
            count[0] += 1
        return msg

    monkeypatch.setattr(procnet, "decode_frame", counting)
    return count


def test_each_delivery_decodes_once(proc_guard, monkeypatch):
    """Decoding ahead replaces the decode of the arrived copy, it does
    not add one: whether the copy came first, came after or never came
    (fallback), a delivery costs the master one decode."""
    decodes = _count_data_decodes(monkeypatch)
    wire = run_locks_proc().proc
    assert wire["wire_delivered"] > 300
    assert decodes[0] == wire["wire_delivered"] + wire["wire_fallback"]


def _proc_pair(wait_timeout_s: float = 20.0):
    eng = SimEngine()
    net = ProcNetwork(eng, wait_timeout_s=wait_timeout_s)
    return (eng, net, Transport(net, 0, SUN, reliable=True),
            Transport(net, 1, SUN, reliable=True))


def test_flipped_byte_in_arrived_frame_is_wire_corruption(proc_guard):
    """The master still compares the copy that came back with the bytes
    it sent, whole frame, before decoding it."""
    eng, net, ta, tb = _proc_pair()
    got = []
    tb.on("blob", got.append)
    try:
        ta.send(1, "blob", {"data": bytes(range(256)) * 64})
        (msg_id,) = net._sent
        deadline = time.monotonic() + 20.0
        while not net._arrived.get(msg_id):
            assert time.monotonic() < deadline, "frame never came back"
            net._pump(0.05)
        copies = net._arrived[msg_id]
        assert copies[0] == net._sent[msg_id][0]
        flipped = bytearray(copies[0])
        flipped[len(flipped) // 2] ^= 0x01      # inside the bytes payload
        copies[0] = bytes(flipped)
        with pytest.raises(WireError, match="wire corruption"):
            eng.run_until_idle()
        assert got == []
    finally:
        net.stop()


def test_flipped_byte_after_decode_ahead_is_wire_corruption(proc_guard,
                                                           monkeypatch):
    """A copy that lands only after the master decoded its own bytes
    ahead is still compared with them before that decode is delivered."""
    decodes = _count_data_decodes(monkeypatch)
    eng, net, ta, tb = _proc_pair()
    got = []
    tb.on("blob", got.append)
    waits = []
    await_frame = net._await_frame

    def flipped_copy(msg):
        # (copy already there?, data decodes so far) as the wait begins
        waits.append((bool(net._arrived.get(msg.msg_id)), decodes[0]))
        copy = bytearray(await_frame(msg))
        copy[len(copy) // 2] ^= 0x01        # inside the bytes payload
        return bytes(copy)

    net._await_frame = flipped_copy
    try:
        ta.send(1, "blob", {"data": bytes(range(256)) * 64})
        with pytest.raises(WireError, match="wire corruption"):
            eng.run_until_idle()
        assert waits == [(False, 1)]     # not there yet, decoded ahead
        assert got == []
    finally:
        net.stop()


def test_a_worker_exception_is_a_wire_error_not_a_kill(proc_guard):
    """A worker that raises ships its traceback in its last stats frame;
    the master fails the run naming it, instead of taking the worker for
    killed and delivering from its own copy."""
    eng, net, ta, tb = _proc_pair()
    dumps = []
    net.on_flight_dump = lambda reason, detail: dumps.append(reason)
    tb.on("blob", lambda msg: None)
    try:
        net.start()
        net._ctrl_send(1, CTRL_PEERS, {"peers": 5})    # not a dict
        t0 = time.monotonic()
        ta.send(1, "blob", {"data": b"x" * 64})
        with pytest.raises(WireError, match="worker 1 failed: TypeError"):
            eng.run_until_idle()
        assert time.monotonic() - t0 < 5.0
        assert dumps == ["wire-error"]
    finally:
        net.stop()


def test_a_copy_that_never_comes_times_out(proc_guard):
    """A destination worker that is alive but not forwarding (stopped)
    makes the delivery wait out ``wait_timeout_s`` and raise, once."""
    eng, net, ta, tb = _proc_pair(wait_timeout_s=1.0)
    dumps = []
    net.on_flight_dump = lambda reason, detail: dumps.append(reason)
    tb.on("blob", lambda msg: None)
    net.start()
    stopped = net.proc_pids[1]
    os.kill(stopped, signal.SIGSTOP)
    try:
        t0 = time.monotonic()
        ta.send(1, "blob", {"data": b"x" * 64})
        with pytest.raises(WireError, match="timed out"):
            eng.run_until_idle()
        assert time.monotonic() - t0 < 2.5
        assert dumps == ["wire-error"]
    finally:
        os.kill(stopped, signal.SIGCONT)
        net.stop()


def test_duplicate_and_retransmitted_copies_resolve_fifo(proc_guard):
    """ARQ retransmissions and injected duplicates re-send one msg_id:
    the relay carries the original bytes again and each delivery takes
    the next arrived copy, so the stream is what sim would deliver."""
    eng, net, ta, tb = _proc_pair()
    inj = FaultInjector(net, FaultPlan(seed=5, drop_rate=0.2, dup_rate=0.3))
    got = []
    tb.on("seq", lambda m: got.append((m.payload["i"], m.payload["pad"])))
    try:
        for i in range(60):
            ta.send(1, "seq", {"i": i, "pad": bytes([i]) * (i * 40)})
        eng.run_until_idle()
        summary = net.stop()
    finally:
        net.stop()
    assert got == [(i, bytes([i]) * (i * 40)) for i in range(60)]
    assert inj.stats.duplicated > 0 and inj.stats.dropped > 0
    assert ta.stats.retransmissions > 0 and tb.stats.dup_dropped > 0
    assert summary["wire_fallback"] == 0
    # Every copy that entered the network crossed the sockets and was
    # consumed: nothing left afloat, nothing delivered from the master's
    # own copy.
    assert summary["wire_delivered"] == summary["wire_frames"] > 60
    assert net._sent == {} and net._arrived == {}


def test_workers_route_on_peek_route_and_the_wrapper_is_gone():
    """``peek_route`` has a caller under ``src/`` (worker and master
    both route on it); the frame-in-a-frame relay types do not exist."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for gone in ("CTRL_RELAY", "CTRL_ARRIVED", "proc.relay",
                     "proc.arrived"):
            assert gone not in text, f"{gone} in {path.relative_to(SRC)}"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", "")) \
                    == "peek_route":
                callers.append(path.relative_to(SRC).as_posix())
    assert callers.count("net/procnet.py") >= 2, callers
    assert MASTER_ID < 0    # no simulated node id can look like ctrl
