"""Adaptive coherence policies: classifier patterns, per-policy
end-to-end runs under the oracle + monitor, token-borne migratory
grants, push/broadcast install guards, tracer event kinds, and the
profiler edge cases around window eviction."""

import pytest

from repro.check import InvariantMonitor, SingleCopyOracle, run_check
from repro.check.runner import app_source
from repro.runtime.config import parse_policy
from repro.dsm.objectstate import ObjState
from repro.lang import compile_source
from repro.locality import AccessProfiler
from repro.locality.profiler import (MIGRATORY, MULTI_WRITER,
                                     PRODUCER_CONSUMER, READ_MOSTLY)
from repro.net.message import M_POL_PUSH, Message
from repro.policy import POLICY_MIGRATORY, POLICY_UPDATE
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer

# Producer on one node, consumer on another, home on a third: the home
# sees single-writer diffs interleaved with re-fetches from a distinct
# reader — the write-update pattern.  Compute pacing keeps the lock
# ping-ponging instead of one thread draining its loop in one hold.
# Every source starts with a Pad thread: round-robin places the first
# spawned thread on node 0 (the home of everything Main allocates), so
# the pad soaks up that slot and the real workers land remote.
PRODUCER_CONSUMER_SRC = """
class Box { int v; }
class Pad extends Thread {
    void run() {}
}
class Producer extends Thread {
    Box b;
    Producer(Box b) { this.b = b; }
    void run() {
        for (int i = 0; i < 10; i++) {
            synchronized (b) { b.v = b.v + 1; }
            int t = 0;
            for (int j = 0; j < 400; j++) t = t + j;
        }
    }
}
class Consumer extends Thread {
    Box b;
    int sum;
    Consumer(Box b) { this.b = b; }
    void run() {
        for (int i = 0; i < 10; i++) {
            synchronized (b) { sum = sum + b.v; }
            int t = 0;
            for (int j = 0; j < 400; j++) t = t + j;
        }
    }
}
class Main {
    static int main() {
        Box b = new Box();
        Pad d = new Pad();
        d.start(); d.join();
        Producer p = new Producer(b);
        Consumer c = new Consumer(b);
        p.start(); c.start();
        p.join(); c.join();
        return b.v;
    }
}
"""

# Two writers on distinct nodes taking turns on one lock-protected
# counter: ownership wants to travel with the token.
PING_PONG_SRC = """
class Counter { int v; }
class Pad extends Thread {
    void run() {}
}
class W extends Thread {
    Counter c;
    W(Counter c) { this.c = c; }
    void run() {
        for (int i = 0; i < 8; i++) {
            synchronized (c) { c.v = c.v + 1; }
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        Pad d = new Pad();
        d.start(); d.join();
        W a = new W(c);
        W b = new W(c);
        a.start(); b.start();
        a.join(); b.join();
        return c.v;
    }
}
"""

# A table read by every worker on every iteration and written twice by
# the master mid-run: the read-mostly broadcast pattern.  The paced
# readers re-fetch after each invalidation, which is exactly the fetch
# traffic a version-stamped broadcast short-circuits.
READ_MOSTLY_SRC = """
class Table { int a; int b; }
class Pad extends Thread {
    void run() {}
}
class Reader extends Thread {
    Table t;
    int sum;
    Reader(Table t) { this.t = t; }
    void run() {
        for (int i = 0; i < 24; i++) {
            synchronized (t) { sum = sum + t.a + t.b; }
            int k = 0;
            for (int j = 0; j < 600; j++) k = k + j;
        }
    }
}
class Main {
    static int main() {
        Table t = new Table();
        t.a = 1;
        t.b = 2;
        Pad d = new Pad();
        d.start(); d.join();
        Reader r1 = new Reader(t);
        Reader r2 = new Reader(t);
        r1.start(); r2.start();
        int k = 0;
        for (int j = 0; j < 10000; j++) k = k + j;
        synchronized (t) { t.a = 5; }
        for (int j = 0; j < 10000; j++) k = k + j;
        synchronized (t) { t.b = 7; }
        r1.join(); r2.join();
        return t.a + t.b;
    }
}
"""


# The pacing loops of these sources are written at 1/20 of the intended
# compute and run under ``time_dilation=20`` (each simulated instruction
# stands for 20): the same simulated schedule for a twentieth of the
# interpreted bytecodes.
PACED_DILATION = {PRODUCER_CONSUMER_SRC: 20, READ_MOSTLY_SRC: 20}


def _runtime(src, nodes=3, **cfg):
    classfiles = compile_source(src)
    rewritten = rewrite_application(classfiles)
    cfg.setdefault("scheduler", "round-robin")  # spread threads over nodes
    cfg.setdefault("time_dilation", PACED_DILATION.get(src, 1))
    return JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=nodes, **cfg))


def _checked_run(rt):
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    report = rt.run()
    monitor.finalize()
    oracle.finalize()
    assert monitor.ok, monitor.summary()
    assert oracle.ok, oracle.summary()
    return report


# ---------------------------------------------------------------------------
# Knobs and plumbing
# ---------------------------------------------------------------------------
def test_knobs_off_attaches_nothing():
    rt = _runtime(PING_PONG_SRC)
    assert rt.policy is None
    assert all(not getattr(w.dsm.hooks, name)
               for w in rt.workers for name in w.dsm.hooks.names())
    report = rt.run()
    assert report.result == 16
    assert report.policy is None
    # No policy traffic exists without the subsystem — by construction.
    assert not any(t.startswith("pol.") for t in report.net.by_type)


def test_parse_policy_specs():
    assert parse_policy("") == {
        "policy_update": False,
        "policy_migratory": False,
        "policy_broadcast": False,
    }
    assert all(parse_policy("all").values())
    spec = parse_policy("update, broadcast")
    assert spec["policy_update"] and spec["policy_broadcast"]
    assert not spec["policy_migratory"]
    with pytest.raises(ValueError):
        parse_policy("update,eager")


def test_policy_off_matches_baseline_traffic():
    # All policy_* knobs off: no agent is attached, so the traffic is
    # identical to a config that never mentions the subsystem.
    base = _runtime(PRODUCER_CONSUMER_SRC).run()
    off = _runtime(PRODUCER_CONSUMER_SRC, policy_update=False,
                   policy_migratory=False, policy_broadcast=False).run()
    assert off.result == base.result
    assert off.net.messages == base.net.messages
    assert off.net.bytes == base.net.bytes
    assert off.net.by_type == base.net.by_type


def test_policy_off_matches_baseline_traffic_proc(proc_guard):
    # Same passivity proof on the multiprocess backend: knobs-off runs
    # are byte-identical whether or not the config mentions policy_*.
    base = _runtime(PRODUCER_CONSUMER_SRC, transport_backend="proc").run()
    off = _runtime(PRODUCER_CONSUMER_SRC, transport_backend="proc",
                   policy_update=False, policy_migratory=False,
                   policy_broadcast=False).run()
    assert off.result == base.result
    assert off.net.messages == base.net.messages
    assert off.net.bytes == base.net.bytes
    assert off.net.by_type == base.net.by_type


# ---------------------------------------------------------------------------
# Classifier: the four textbook patterns
# ---------------------------------------------------------------------------
def test_classify_read_mostly():
    prof = AccessProfiler(window=8)
    prof.note_fetch(5, node=1)
    prof.note_fetch(5, node=2)
    prof.note_fetch(5, node=1)
    assert prof.classify(5, threshold=3) == READ_MOSTLY
    # A single write does not break the pattern; a second one does.
    prof.note_diff(5, node=1)
    assert prof.classify(5, threshold=3) == READ_MOSTLY
    prof.note_diff(5, node=2)
    assert prof.classify(5, threshold=3) != READ_MOSTLY


def test_classify_producer_consumer():
    prof = AccessProfiler(window=8)
    prof.note_diff(7, node=1)
    prof.note_fetch(7, node=2)
    prof.note_diff(7, node=1)
    assert prof.classify(7, threshold=3) is None  # below threshold
    prof.note_diff(7, node=1)
    assert prof.classify(7, threshold=3) == PRODUCER_CONSUMER
    # The "consumer" being the writer itself is not producer-consumer.
    prof2 = AccessProfiler(window=8)
    for _ in range(3):
        prof2.note_diff(9, node=1)
        prof2.note_fetch(9, node=1)
    assert prof2.classify(9, threshold=3) is None


def test_classify_migratory_vs_multi_writer():
    prof = AccessProfiler(window=8)
    for node in (1, 2, 1, 2):
        prof.note_diff(3, node=node)
    assert prof.classify(3, threshold=3) == MIGRATORY
    # Readers inside the writer set keep it migratory...
    prof.note_fetch(3, node=1)
    assert prof.classify(3, threshold=3) == MIGRATORY
    # ...an outside reader does not.
    prof.note_fetch(3, node=4)
    assert prof.classify(3, threshold=3) == MULTI_WRITER
    # Back-to-back diffs from one writer break the alternation.
    prof2 = AccessProfiler(window=8)
    for node in (1, 1, 2, 2):
        prof2.note_diff(3, node=node)
    assert prof2.classify(3, threshold=3) == MULTI_WRITER


def test_classify_empty_window():
    prof = AccessProfiler(window=4)
    assert prof.classify(1, threshold=1) is None


# ---------------------------------------------------------------------------
# Profiler edge cases: eviction, reset, interleaved windows
# ---------------------------------------------------------------------------
def test_window_eviction_flips_should_migrate():
    prof = AccessProfiler(window=4)
    for _ in range(3):
        prof.note_diff(7, node=1)
    assert prof.should_migrate(7, writer=1, threshold=3)
    # A second writer pins the unit...
    prof.note_diff(7, node=2)
    assert not prof.should_migrate(7, writer=1, threshold=3)
    assert not prof.should_migrate(7, writer=2, threshold=3)
    # ...until node 1's diffs roll out of the window and node 2 becomes
    # the sole recent writer.
    for _ in range(3):
        prof.note_diff(7, node=2)
    assert prof.should_migrate(7, writer=2, threshold=3)
    assert not prof.should_migrate(7, writer=1, threshold=3)


def test_reset_clears_classification():
    prof = AccessProfiler(window=8)
    for node in (1, 2, 1, 2):
        prof.note_diff(3, node=node)
    assert prof.classify(3, threshold=3) == MIGRATORY
    prof.reset(3)
    assert prof.classify(3, threshold=3) is None
    assert not prof.should_migrate(3, writer=1, threshold=1)
    # History restarts cleanly after the reset.
    prof.note_diff(3, node=4)
    assert prof.should_migrate(3, writer=4, threshold=1)


def test_interleaved_fetch_diff_windows_evolve():
    # Fetches count against the same bounded window as diffs, so a
    # producer-consumer phase drifts into read-mostly as reads push the
    # old writes out.
    prof = AccessProfiler(window=6)
    for _ in range(3):
        prof.note_diff(11, node=1)
        prof.note_fetch(11, node=2)
    assert prof.classify(11, threshold=3) == PRODUCER_CONSUMER
    for node in (2, 3, 2, 3, 2):
        prof.note_fetch(11, node=node)
    assert prof.classify(11, threshold=3) == READ_MOSTLY
    # And fetch eviction works symmetrically: migration is unblocked
    # once interleaved fetches evict the foreign diff.
    prof2 = AccessProfiler(window=3)
    prof2.note_diff(5, node=2)
    prof2.note_diff(5, node=1)
    assert not prof2.should_migrate(5, writer=1, threshold=1)
    prof2.note_fetch(5, node=3)
    prof2.note_fetch(5, node=3)  # evicts node 2's diff
    assert prof2.should_migrate(5, writer=1, threshold=1)


# ---------------------------------------------------------------------------
# Write-update end-to-end, oracle-verified
# ---------------------------------------------------------------------------
def test_update_pushes_cut_fetches():
    base = _runtime(PRODUCER_CONSUMER_SRC).run()
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True)
    report = _checked_run(rt)
    assert report.result == base.result == 10
    pol = report.policy
    assert pol is not None
    assert pol["by_policy"]["update"] >= 1
    assert pol["pushes"] >= 1 and pol["push_installs"] >= 1
    # Every installed push is one saved demand fetch round-trip.
    assert report.total_dsm().fetches < base.total_dsm().fetches


def test_update_push_traffic_is_accounted():
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True)
    report = _checked_run(rt)
    pushes, push_bytes = \
        report.net.subsystem_overhead()["policy"]["push"]
    assert pushes == report.policy["pushes"] >= 1
    assert push_bytes > 0


# ---------------------------------------------------------------------------
# Migratory end-to-end: bootstrap grant + token-borne grants
# ---------------------------------------------------------------------------
def test_migratory_ownership_travels_with_token():
    base = _runtime(PING_PONG_SRC).run()
    rt = _runtime(PING_PONG_SRC, policy_migratory=True)
    report = _checked_run(rt)
    assert report.result == base.result == 16
    pol = report.policy
    assert pol["grants"] >= 2 and pol["grant_installs"] >= 1
    # Once ownership rides the token, the holder writes its own master:
    # the remote diff round-trips disappear.
    assert report.total_dsm().diffs_sent < base.total_dsm().diffs_sent
    assert report.net.messages < base.net.messages
    # The unit's master lives where the runtime's home directory says.
    gid, (home, _epoch) = next(iter(rt.homes.items()))
    obj = rt.workers[home].dsm.cache.get(gid)
    assert obj is not None and obj.header.state == ObjState.HOME


def test_migratory_token_grant_sizes_token_frame():
    rt = _runtime(PING_PONG_SRC, policy_migratory=True)
    tracer = DsmTracer.attach(rt)
    _checked_run(rt)
    # Token frames that carry a grant are strictly larger than the
    # grantless baseline token frame size.
    token_sizes = set()
    for ev in tracer.events_of_type("dsm.token"):
        token_sizes.add(int(ev.detail.rsplit("(", 1)[1].rstrip("B)")))
    assert len(token_sizes) >= 2, token_sizes


# ---------------------------------------------------------------------------
# Read-mostly broadcast end-to-end, oracle-verified
# ---------------------------------------------------------------------------
def test_broadcast_on_rare_write():
    base = _runtime(READ_MOSTLY_SRC).run()
    rt = _runtime(READ_MOSTLY_SRC, policy_broadcast=True)
    report = _checked_run(rt)
    assert report.result == base.result == 12
    pol = report.policy
    assert pol["promotions"] >= 1
    assert pol["broadcasts"] >= 1
    bcasts, bcast_bytes = \
        report.net.subsystem_overhead()["policy"]["broadcast"]
    assert bcasts == pol["broadcasts"]
    assert bcast_bytes > 0


# ---------------------------------------------------------------------------
# Demotion: the pattern breaks, the policy is dropped at once
# ---------------------------------------------------------------------------
def test_pattern_break_demotes_immediately():
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True,
                  policy_migratory=True)
    rt.run()
    agent = rt.policy.agents[0]
    gid = 0x7000
    # Single writer + distinct reader: promoted to write-update after
    # the hysteresis streak.
    for _ in range(3):
        agent._note_event(gid, "diff", 1)
        agent._note_event(gid, "fetch", 2)
    assert rt.policy.policy_of(gid) == POLICY_UPDATE
    promoted = agent.dsm.stats.pol_promotions
    # A second writer appears: multi-writer maps to no policy, and the
    # demotion is immediate (no hysteresis on the way down).
    agent._note_event(gid, "diff", 2)
    assert rt.policy.policy_of(gid) is None
    assert agent.dsm.stats.pol_demotions >= 1
    # Re-promotion still needs a fresh hysteresis streak.
    assert agent.dsm.stats.pol_promotions == promoted


def test_disabled_policy_is_never_promoted():
    # Update pattern with only the migratory knob on: classification
    # happens, promotion does not.
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_migratory=True)
    rt.run()
    agent = rt.policy.agents[0]
    gid = 0x7100
    for _ in range(4):
        agent._note_event(gid, "diff", 1)
        agent._note_event(gid, "fetch", 2)
    assert rt.policy.policy_of(gid) is None


# ---------------------------------------------------------------------------
# Oracle: pushed installs are actually cross-checked
# ---------------------------------------------------------------------------
def test_oracle_catches_corrupted_push():
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True)
    oracle = SingleCopyOracle.attach(rt)
    rt.run()
    assert oracle.ok
    # Forge a push whose version was never published by any home: the
    # receiving agent installs it (guards only check staleness), and
    # the oracle must flag the unknown version.
    d0, d1 = rt.workers[0].dsm, rt.workers[1].dsm
    gid = next(g for g, obj in sorted(d0.cache.items())
               if not d0.is_split(g) and obj.header is not None
               and obj.header.state == ObjState.HOME
               and d1.cache.get(g) is not None
               and d1.cache[g].header.state != ObjState.HOME)
    unit = d0.ft_serialize_unit(gid)
    forged = Message(M_POL_PUSH, src=0, dst=1, payload={
        "gid": gid, "class_name": unit["class_name"],
        "version": unit["version"] + 5, "data": unit["data"],
    })
    installs = d1.stats.pol_push_installs
    d1.transport._handlers[M_POL_PUSH](forged)
    assert d1.stats.pol_push_installs == installs + 1
    assert not oracle.ok
    assert any(v.kind == "oracle-version" and "push install" in v.detail
               for v in oracle.violations), oracle.summary()


def test_stale_push_is_skipped_by_install_guards():
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True)
    oracle = SingleCopyOracle.attach(rt)
    rt.run()
    d0, d1 = rt.workers[0].dsm, rt.workers[1].dsm
    gid = next(g for g, obj in sorted(d0.cache.items())
               if not d0.is_split(g) and obj.header is not None
               and obj.header.state == ObjState.HOME
               and d1.cache.get(g) is not None
               and d1.cache[g].header.state != ObjState.HOME)
    unit = d0.ft_serialize_unit(gid)
    stale = Message(M_POL_PUSH, src=0, dst=1, payload={
        "gid": gid, "class_name": unit["class_name"],
        "version": 0, "data": unit["data"],
    })
    installs = d1.stats.pol_push_installs
    d1.transport._handlers[M_POL_PUSH](stale)
    # Guarded skip: no install, and no oracle check was attempted.
    assert d1.stats.pol_push_installs == installs
    assert oracle.ok, oracle.summary()


# ---------------------------------------------------------------------------
# Tracer: policy event kinds + summary()
# ---------------------------------------------------------------------------
def test_tracer_summary_counts_policy_events():
    rt = _runtime(PING_PONG_SRC, policy_migratory=True)
    tracer = DsmTracer.attach(rt)
    rt.run()
    summary = tracer.summary()
    assert summary.get("policy.classify", 0) >= 1
    assert summary.get("policy.promote", 0) >= 1
    assert summary.get("policy.grant", 0) >= 1
    assert summary.get("policy.grant_install", 0) >= 1


def test_tracer_summary_counts_push_events():
    rt = _runtime(PRODUCER_CONSUMER_SRC, policy_update=True)
    tracer = DsmTracer.attach(rt)
    rt.run()
    assert tracer.summary().get("policy.push", 0) >= 1


def test_tracer_summary_without_policy():
    rt = _runtime(PING_PONG_SRC)
    tracer = DsmTracer.attach(rt)
    rt.run()
    assert not any(k.startswith("policy.")
                   for k in tracer.summary())


# ---------------------------------------------------------------------------
# Seeded sweeps: every policy under oracle + monitor, composed modes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["update", "migratory", "broadcast"])
def test_policy_sweep_on_tsp(policy):
    report = run_check(app="tsp", seeds=3, policy=policy)
    assert report.ok, report.summary()
    assert report.policy == policy


def test_all_policies_sweep_on_series():
    report = run_check(app="series", seeds=3, policy="all")
    assert report.ok, report.summary()


def test_policy_composes_with_kill():
    report = run_check(app="tsp", seeds=3, kill="random", policy="all")
    assert report.ok, report.summary()


def test_policy_composes_with_race_detector():
    report = run_check(app="series", seeds=2, policy="all", race=True)
    assert report.ok, report.summary()


def test_policy_composes_with_locality():
    report = run_check(app="tsp", seeds=2, policy="all", locality="all")
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Recovery: a kill wipes policy state back to plain invalidation
# ---------------------------------------------------------------------------
def test_recovery_wipes_policy_state():
    report = run_check(app="tsp", seeds=4, kill="random",
                       policy="migratory")
    assert report.ok, report.summary()


def test_on_recovery_clears_registry_and_agents():
    rt = _runtime(PING_PONG_SRC, policy_migratory=True)
    rt.run()
    # The run itself may end with the unit demoted (pattern breaks once
    # the workers drain), so seed the registry explicitly: recovery must
    # wipe whatever is promoted at the instant the kill lands.
    rt.policy.set_policy(0x4000, "migratory")
    rt.policy.set_policy(0x4001, "update")
    assert rt.policy.units, "expected promoted units"
    wiped = len(rt.policy.units)
    rt.policy.on_recovery(dead=1)
    assert rt.policy.units == {}
    assert rt.policy.recovery_wipes == 1
    assert rt.policy.units_wiped == wiped
    for agent in rt.policy.agents.values():
        assert len(agent.profiler) == 0
        assert not agent._readers and not agent._streak
