"""Unit tests for the simulated network and transport layers."""

import os
import subprocess
import sys

import pytest

from repro.net import HEADER_BYTES, Message, NetStats, SimNetwork, Transport, estimate_size
from repro.net.message import estimate_size as est
from repro.net.transport import _ACK_BYTES
from repro.sim import IBM, SUN, NS_PER_MS, SimEngine
from repro.sim.cost_model import COMM_FIXED_NS, COMM_PER_BYTE_NS


# ---------------------------------------------------------------------------
# Message / size estimation
# ---------------------------------------------------------------------------
def test_estimate_size_scalars():
    assert est(None) == 1
    assert est(True) == 1
    assert est(7) == 8
    assert est(3.14) == 8
    assert est(b"abcd") == 8
    assert est("hi") == 6


def test_estimate_size_containers():
    assert est([1, 2]) == 4 + 16
    assert est({"a": 1}) == 4 + est("a") + 8


def test_estimate_size_rejects_unknown():
    class Foo:
        pass

    with pytest.raises(TypeError):
        est(Foo())


def test_message_size_includes_header():
    m = Message("ping", 0, 1, {"x": 1})
    assert m.size_bytes == HEADER_BYTES + est({"x": 1})


def test_message_explicit_size_wins():
    m = Message("ping", 0, 1, {"x": 1}, size_bytes=1234)
    assert m.size_bytes == 1234


def test_message_ids_unique():
    a = Message("t", 0, 1)
    b = Message("t", 0, 1)
    assert a.msg_id != b.msg_id


# ---------------------------------------------------------------------------
# SimNetwork latency model
# ---------------------------------------------------------------------------
def _net_pair(brand_a=SUN, brand_b=SUN, **kw):
    eng = SimEngine()
    net = SimNetwork(eng, **kw)
    inbox_a, inbox_b = [], []
    net.attach(0, brand_a, inbox_a.append)
    net.attach(1, brand_b, inbox_b.append)
    return eng, net, inbox_a, inbox_b


def test_latency_model_formula():
    eng, net, _, _ = _net_pair()
    size = 1000
    expected = SUN[COMM_FIXED_NS] + size * SUN[COMM_PER_BYTE_NS]
    assert net.latency_ns(0, 1, size) == expected


def test_latency_mixed_brands_uses_mean_fixed_and_max_per_byte():
    eng, net, _, _ = _net_pair(SUN, IBM)
    size = 100
    fixed = (SUN[COMM_FIXED_NS] + IBM[COMM_FIXED_NS]) // 2
    pb = max(SUN[COMM_PER_BYTE_NS], IBM[COMM_PER_BYTE_NS])
    assert net.latency_ns(0, 1, size) == fixed + size * pb


def test_delivery_happens_after_latency():
    eng, net, _, inbox_b = _net_pair()
    m = Message("ping", 0, 1, {}, size_bytes=100)
    net.send(m)
    assert inbox_b == []
    eng.run_until_idle()
    assert inbox_b == [m]
    assert eng.now == net.latency_ns(0, 1, 100)


def test_table3_shape_65000_bytes_about_6ms():
    """Paper Table 3: ~6 ms one-way at 65000 B on 100 Mbit."""
    eng, net, _, _ = _net_pair()
    lat = net.latency_ns(0, 1, 65_000)
    assert 5 * NS_PER_MS < lat < 8 * NS_PER_MS


def test_send_to_unattached_raises():
    eng = SimEngine()
    net = SimNetwork(eng)
    net.attach(0, SUN, lambda m: None)
    with pytest.raises(KeyError):
        net.send(Message("x", 0, 99))
    with pytest.raises(KeyError):
        net.send(Message("x", 99, 0))


def test_double_attach_rejected():
    eng = SimEngine()
    net = SimNetwork(eng)
    net.attach(0, SUN, lambda m: None)
    with pytest.raises(ValueError):
        net.attach(0, SUN, lambda m: None)


def test_detach_drops_in_flight():
    eng, net, _, inbox_b = _net_pair()
    net.send(Message("ping", 0, 1, {}))
    net.detach(1)
    eng.run_until_idle()
    assert inbox_b == []


def test_stats_accounting():
    eng, net, _, _ = _net_pair()
    net.send(Message("a", 0, 1, {}, size_bytes=100))
    net.send(Message("a", 0, 1, {}, size_bytes=50))
    net.send(Message("b", 1, 0, {}, size_bytes=10))
    assert net.stats.messages == 3
    assert net.stats.bytes == 160
    assert net.stats.by_type["a"] == (2, 150)
    assert net.stats.by_link[(0, 1)] == (2, 150)
    net.stats.reset()
    assert net.stats.messages == 0


def test_stats_reset_clears_breakdowns_and_dropped():
    eng, net, _, _ = _net_pair()
    net.send(Message("a", 0, 1, {}, size_bytes=100))
    net.detach(1)
    eng.run_until_idle()
    assert net.stats.dropped == 1
    net.stats.reset()
    assert net.stats.messages == 0
    assert net.stats.bytes == 0
    assert net.stats.dropped == 0
    assert net.stats.by_type == {}
    assert net.stats.by_link == {}


def test_stats_merge_accumulates():
    a = NetStats()
    b = NetStats()
    a.record(Message("x", 0, 1, {}, size_bytes=10))
    b.record(Message("x", 0, 1, {}, size_bytes=5))
    b.record(Message("y", 1, 0, {}, size_bytes=7))
    b.dropped = 2
    out = a.merge(b)
    assert out is a  # chains
    assert a.messages == 3
    assert a.bytes == 22
    assert a.dropped == 2
    assert a.by_type["x"] == (2, 15)
    assert a.by_type["y"] == (1, 7)
    assert a.by_link[(0, 1)] == (2, 15)
    assert a.by_link[(1, 0)] == (1, 7)
    # merge does not mutate its argument
    assert b.messages == 2 and b.by_type["x"] == (1, 5)


def test_stats_merge_many_equals_single_run():
    parts = [NetStats() for _ in range(3)]
    whole = NetStats()
    msgs = [Message("t", i % 2, 1 - i % 2, {}, size_bytes=i) for i in range(9)]
    for i, m in enumerate(msgs):
        parts[i % 3].record(m)
        whole.record(m)
    agg = NetStats()
    for p in parts:
        agg.merge(p)
    assert agg == whole


def test_detach_in_flight_drop_keeps_stats_coherent():
    """An in-flight drop bumps ``dropped`` but never corrupts the send
    accounting (the wire carried the frame)."""
    eng, net, _, inbox_b = _net_pair()
    for i in range(5):
        net.send(Message("a", 0, 1, {}, size_bytes=10))
    net.detach(1)
    eng.run_until_idle()
    assert inbox_b == []
    assert net.stats.messages == 5
    assert net.stats.bytes == 50
    assert net.stats.dropped == 5
    assert net.stats.by_type["a"] == (5, 50)
    assert "dropped in flight" in net.stats.summary()


def test_loopback_send_is_fast_and_async():
    eng, net, inbox_a, _ = _net_pair()
    net.send(Message("self", 0, 0, {}))
    assert inbox_a == []
    eng.run_until_idle()
    assert len(inbox_a) == 1
    assert eng.now < 10_000


# ---------------------------------------------------------------------------
# Transport: typed dispatch + FIFO reassembly
# ---------------------------------------------------------------------------
def _transport_pair(jitter_ns=0, seed=0):
    eng = SimEngine()
    net = SimNetwork(eng, jitter_ns=jitter_ns, seed=seed)
    ta = Transport(net, 0, SUN)
    tb = Transport(net, 1, SUN)
    return eng, net, ta, tb


def test_transport_typed_dispatch():
    eng, net, ta, tb = _transport_pair()
    got = []
    tb.on("hello", lambda m: got.append(m.payload["n"]))
    ta.send(1, "hello", {"n": 42})
    eng.run_until_idle()
    assert got == [42]


def test_transport_unknown_type_raises():
    eng, net, ta, tb = _transport_pair()
    ta.send(1, "mystery", {})
    with pytest.raises(RuntimeError, match="no handler"):
        eng.run_until_idle()


def test_transport_duplicate_handler_rejected():
    eng, net, ta, tb = _transport_pair()
    tb.on("x", lambda m: None)
    with pytest.raises(ValueError):
        tb.on("x", lambda m: None)


def test_transport_fifo_without_jitter():
    eng, net, ta, tb = _transport_pair()
    got = []
    tb.on("seq", lambda m: got.append(m.payload["i"]))
    for i in range(20):
        ta.send(1, "seq", {"i": i})
    eng.run_until_idle()
    assert got == list(range(20))


def test_transport_fifo_under_jitter():
    """Sequence numbers restore FIFO even when the raw net reorders."""
    eng, net, ta, tb = _transport_pair(jitter_ns=5 * NS_PER_MS, seed=7)
    got = []
    tb.on("seq", lambda m: got.append(m.payload["i"]))
    for i in range(50):
        ta.send(1, "seq", {"i": i})
    eng.run_until_idle()
    assert got == list(range(50))


def test_transport_fifo_independent_per_source():
    eng = SimEngine()
    net = SimNetwork(eng, jitter_ns=2 * NS_PER_MS, seed=3)
    t0 = Transport(net, 0, SUN)
    t1 = Transport(net, 1, SUN)
    t2 = Transport(net, 2, IBM)
    got = []
    t0.on("m", lambda m: got.append((m.src, m.payload["i"])))
    for i in range(10):
        t1.send(0, "m", {"i": i})
        t2.send(0, "m", {"i": i})
    eng.run_until_idle()
    assert [i for s, i in got if s == 1] == list(range(10))
    assert [i for s, i in got if s == 2] == list(range(10))


@pytest.mark.parametrize("n", [0, 1, 2**40])
def test_an_ack_bills_what_its_payload_estimates(n):
    assert _ACK_BYTES == HEADER_BYTES + estimate_size({"next": n})


def test_numpy_is_never_imported():
    """The runtime needs no numpy: every generator it builds — a
    jittered network, ``--scheduler random``, a fault plan — is the
    pure-Python :class:`~repro.sim.rng.PCG64`, so a checked run under
    jitter and faults works with numpy made unimportable (its draws are
    numpy's, ``tests/test_rng.py``).  The proc plane (``multiprocessing``,
    ``tempfile``, ``selectors``) is loaded by the first proc run, not by
    a sim one."""
    code = """
import sys
sys.modules["numpy"] = None          # any `import numpy` now raises
import repro, repro.check, repro.serve.scenario
from repro.check import FaultInjector, FaultPlan, run_check
from repro.net import SimNetwork
from repro.runtime.scheduler import make_scheduler
from repro.sim import SimEngine
import repro.runtime
for proc_only in ("repro.net.procnet", "multiprocessing"):
    assert proc_only not in sys.modules, "eager import of " + proc_only
SimNetwork(SimEngine(), jitter_ns=1000, seed=7)
make_scheduler("random", seed=5)
FaultInjector(SimNetwork(SimEngine()), FaultPlan(seed=3))
report = run_check(app="series", seeds=1, faults="drop,reorder,dup")
assert report.ok, report
from repro.lang import compile_source
from repro.rewriter import rewrite_application
proc = repro.runtime.JavaSplitRuntime(
    rewrite_application(compile_source(
        "class Main { static int main() { return 7; } }")),
    repro.runtime.RuntimeConfig(num_nodes=2, transport_backend="proc"))
assert proc.run().result == 7
assert "repro.net.procnet" in sys.modules and "multiprocessing" in sys.modules
assert repro.net.ProcNetwork is type(proc.network)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------------
# Reliable (ARQ) mode
# ---------------------------------------------------------------------------
def _reliable_pair(jitter_ns=0, seed=0):
    eng = SimEngine()
    net = SimNetwork(eng, jitter_ns=jitter_ns, seed=seed)
    ta = Transport(net, 0, SUN, reliable=True)
    tb = Transport(net, 1, SUN, reliable=True)
    return eng, net, ta, tb


def test_reliable_clean_net_adds_only_acks():
    eng, net, ta, tb = _reliable_pair()
    got = []
    tb.on("m", lambda m: got.append(m.payload["i"]))
    for i in range(10):
        ta.send(1, "m", {"i": i})
    eng.run_until_idle()
    assert got == list(range(10))
    assert tb.stats.acks_sent == 10
    assert ta.stats.retransmissions == 0
    assert ta.stats.gave_up == 0
    assert ta.quiesced()


def test_reliable_fifo_under_jitter():
    eng, net, ta, tb = _reliable_pair(jitter_ns=5 * NS_PER_MS, seed=9)
    got = []
    tb.on("m", lambda m: got.append(m.payload["i"]))
    for i in range(40):
        ta.send(1, "m", {"i": i})
    eng.run_until_idle()
    assert got == list(range(40))
    assert ta.quiesced() and tb.quiesced()


def test_reliable_send_to_detached_peer_does_not_raise():
    eng, net, ta, tb = _reliable_pair()
    net.detach(1)
    ta.send(1, "m", {"i": 0})  # unreliable mode would raise KeyError
    eng.run_until_idle()       # bounded retries: terminates
    assert ta.stats.to_dead_dropped > 0 or ta.stats.gave_up > 0


def test_unreliable_send_to_detached_peer_raises():
    eng = SimEngine()
    net = SimNetwork(eng)
    ta = Transport(net, 0, SUN)
    with pytest.raises(KeyError):
        ta.send(1, "m", {})


def test_reliable_close_cancels_timers():
    eng, net, ta, tb = _reliable_pair()
    net.detach(1)
    ta.send(1, "m", {"i": 0})
    ta.close()
    eng.run_until_idle()  # no timer storm after close
    assert not net.is_attached(0)
