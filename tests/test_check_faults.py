"""Fault injector + reliable transport: seeded faults are deterministic
and fully masked by the ARQ layer."""

from types import SimpleNamespace

import pytest

from repro.check import FaultInjector, FaultPlan
from repro.net import SimNetwork, Transport
from repro.sim import NS_PER_MS, SUN, SimEngine


def _pair(reliable=True, jitter_ns=0, seed=0):
    eng = SimEngine()
    net = SimNetwork(eng, jitter_ns=jitter_ns, seed=seed)
    ta = Transport(net, 0, SUN, reliable=reliable)
    tb = Transport(net, 1, SUN, reliable=reliable)
    return eng, net, ta, tb


def _stream(ta, tb, eng, n=60):
    got = []
    tb.on("seq", lambda m: got.append(m.payload["i"]))
    for i in range(n):
        ta.send(1, "seq", {"i": i})
    eng.run_until_idle()
    return got


# ---------------------------------------------------------------------------
# FaultPlan parsing
# ---------------------------------------------------------------------------
def test_fault_plan_from_spec():
    plan = FaultPlan.from_spec("drop,dup,delay,reorder", seed=7, rate=0.1)
    assert plan.seed == 7
    assert plan.drop_rate == plan.dup_rate == plan.delay_rate == 0.1
    assert plan.reorder_rate >= 0.1
    assert plan.lossy and plan.per_frame
    for kind in ("drop", "dup", "delay", "reorder"):
        assert FaultPlan.from_spec(kind).per_frame
    assert not FaultPlan.from_spec("detach:2@5ms").per_frame


def test_fault_plan_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_spec("drop,frobnicate")


def test_fault_plan_detach_needs_explicit_fields():
    with pytest.raises(ValueError, match="detach"):
        FaultPlan.from_spec("detach")
    plan = FaultPlan(detach_node=1, detach_at_ns=5 * NS_PER_MS)
    assert plan.lossy


def test_lossy_plan_requires_reliable_transport():
    runtime = SimpleNamespace(
        config=SimpleNamespace(reliable_transport=False),
        network=None,
    )
    with pytest.raises(ValueError, match="reliable_transport"):
        FaultInjector.attach(runtime, FaultPlan(drop_rate=0.1))


# ---------------------------------------------------------------------------
# Masking: every fault kind, stream delivered intact and in order
# ---------------------------------------------------------------------------
def test_drops_masked_by_retransmission():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=3, drop_rate=0.2))
    got = _stream(ta, tb, eng)
    assert got == list(range(60))
    assert inj.stats.dropped > 0
    assert ta.stats.retransmissions > 0
    assert ta.quiesced() and tb.quiesced()


def test_duplicates_masked_by_seq_numbers():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=5, dup_rate=0.3))
    got = _stream(ta, tb, eng)
    assert got == list(range(60))
    assert inj.stats.duplicated > 0
    assert tb.stats.dup_dropped > 0


def test_delay_and_reorder_masked_by_reassembly():
    # Pure delay/reorder is loss-free, so even the unreliable transport's
    # sequence numbers restore FIFO.
    eng, net, ta, tb = _pair(reliable=False)
    inj = FaultInjector(net, FaultPlan(
        seed=11, delay_rate=0.3, reorder_rate=0.5,
        delay_ns=6 * NS_PER_MS))
    got = _stream(ta, tb, eng)
    assert got == list(range(60))
    assert inj.stats.delayed > 0 and inj.stats.reordered > 0


def test_all_faults_together_reliable():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(
        seed=1, drop_rate=0.1, dup_rate=0.1,
        delay_rate=0.2, reorder_rate=0.3))
    got = _stream(ta, tb, eng)
    assert got == list(range(60))
    assert inj.stats.seen > 60  # acks + retransmissions pass through too


def test_loopback_never_faulted():
    eng, net, ta, _tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=0, drop_rate=1.0))
    got = []
    ta.on("self", lambda m: got.append(m.payload["i"]))
    for i in range(5):
        ta.send(0, "self", {"i": i})
    eng.run_until_idle()
    assert got == list(range(5))
    assert inj.stats.seen == 0


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_same_seed_same_faults():
    outcomes = []
    for _ in range(2):
        eng, net, ta, tb = _pair()
        inj = FaultInjector(net, FaultPlan(
            seed=42, drop_rate=0.15, dup_rate=0.15, reorder_rate=0.3))
        _stream(ta, tb, eng)
        outcomes.append((inj.stats.dropped, inj.stats.duplicated,
                         inj.stats.reordered, eng.now))
    assert outcomes[0] == outcomes[1]


def test_different_seed_different_schedule():
    ends = set()
    for seed in range(4):
        eng, net, ta, tb = _pair()
        FaultInjector(net, FaultPlan(
            seed=seed, drop_rate=0.15, reorder_rate=0.3))
        _stream(ta, tb, eng)
        ends.add(eng.now)
    assert len(ends) > 1


# ---------------------------------------------------------------------------
# Detach: the event loop never wedges, accounting stays consistent
# ---------------------------------------------------------------------------
def test_detach_mid_stream_gives_up_cleanly():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=2))
    got = []
    tb.on("seq", lambda m: got.append(m.payload["i"]))
    for i in range(20):
        ta.send(1, "seq", {"i": i})
    eng.run_until_idle()
    assert got == list(range(20))
    # Unplug the receiver with the second batch still in flight.
    for i in range(20, 40):
        ta.send(1, "seq", {"i": i})
    inj.detach_now(1)
    eng.run_until_idle()  # terminates: retries are bounded
    assert inj.stats.detached == [1]
    assert got == list(range(20))
    # Sender either dropped at send time (peer gone) or abandoned after
    # max retries; nothing is silently lost from the accounting.
    assert ta.stats.gave_up > 0 or ta.stats.to_dead_dropped > 0
    # NetStats stays coherent: the in-flight frames to the dead node
    # were recorded as dropped, not silently vanished.
    assert net.stats.dropped >= 20
    assert net.stats.messages >= 40


def test_held_back_frames_lost_to_a_detach_are_no_network_drops():
    # Every frame is held back, then its destination dies: the network
    # never carried one, so it drops none; the injector counts them.
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=3, delay_rate=1.0))
    for i in range(10):
        ta.send(1, "seq", {"i": i})
    inj.detach_now(1)
    eng.run_until_idle()
    assert net.stats.dropped <= net.stats.messages
    assert (net.stats.messages, net.stats.dropped) == (0, 0)
    # Ten frames, each sent once and retransmitted max_retries times.
    assert inj.stats.held_lost == 10 * (1 + ta.max_retries)


def test_a_detach_only_plan_leaves_the_send_path_alone():
    eng, net, ta, tb = _pair()
    plan = FaultPlan(seed=0, detach_node=1, detach_at_ns=NS_PER_MS)
    assert plan.lossy and not plan.per_frame
    inj = FaultInjector(net, plan)
    assert "send" not in vars(net)
    inj.detach_injector()              # nothing of its own to restore
    assert "send" not in vars(net)
    got = _stream(ta, tb, eng, n=5)
    assert got == list(range(5)) and inj.stats.seen == 0
    assert inj.stats.detached == [1]


def test_detach_now_is_idempotent():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=0))
    inj.detach_now(1)
    inj.detach_now(1)
    assert inj.stats.detached == [1]
    assert not net.is_attached(1)


def test_injector_detach_restores_send_path():
    eng, net, ta, tb = _pair()
    inj = FaultInjector(net, FaultPlan(seed=0, drop_rate=1.0))
    inj.detach_injector()
    got = _stream(ta, tb, eng, n=5)
    assert got == list(range(5))  # no drops once restored
    assert inj.stats.dropped == 0
