"""Fault-tolerance subsystem tests: buddy replication, heartbeat
failure detection, epoch fencing, and oracle-verified kill/recover
sweeps over the benchmark apps."""

import pytest

from repro.check.faults import FaultInjector, FaultPlan, parse_time_ns
from repro.check.monitor import InvariantMonitor
from repro.check.oracle import SingleCopyOracle
from repro.check.runner import (DEFAULT_JITTER_NS, app_source, parse_kill,
                                run_check)
from repro.dsm.directory import HomeDirectory, home_of
from repro.ft import MasterFailedError, ReplicaStore, buddy_of
from repro.lang import compile_source
from repro.net import NetStats, SimNetwork, Transport
from repro.net.message import Message
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig, run_distributed
from repro.runtime.config import config_from
from repro.runtime.javasplit import build_runtime, run_original
from repro.sim import SUN, NS_PER_MS, SimEngine


# ---------------------------------------------------------------------------
# Buddy assignment
# ---------------------------------------------------------------------------
def test_buddy_is_next_in_ring():
    assert buddy_of(0, 4) == 1
    assert buddy_of(3, 4) == 0


def test_buddy_skips_dead_nodes():
    assert buddy_of(0, 4, dead=(1,)) == 2
    assert buddy_of(3, 4, dead=(0, 1)) == 2


def test_buddy_requires_a_live_peer():
    with pytest.raises(ValueError):
        buddy_of(0, 1)
    with pytest.raises(ValueError):
        buddy_of(0, 3, dead=(1, 2))


# ---------------------------------------------------------------------------
# Replica store
# ---------------------------------------------------------------------------
def _unit(gid, version, region=None, data=b"x"):
    return {"gid": gid, "region": region, "version": version, "data": data}


def test_replica_store_keeps_newest_version():
    store = ReplicaStore()
    store.put(1, _unit(7, 1, data=b"old"))
    store.put(1, _unit(7, 3, data=b"new"))
    store.put(1, _unit(7, 2, data=b"stale"))  # reordered straggler
    assert store.version_of(1, 7) == 3
    assert store.units_of(1)[0]["data"] == b"new"


def test_replica_store_same_version_overwrites():
    # The dirty-master-serve case: fresher bytes, version not yet bumped.
    store = ReplicaStore()
    store.put(1, _unit(7, 2, data=b"clean"))
    store.put(1, _unit(7, 2, data=b"dirty"))
    assert store.units_of(1)[0]["data"] == b"dirty"


def test_replica_store_orders_units_deterministically():
    store = ReplicaStore()
    store.put(2, _unit(9, 1, region=1))
    store.put(2, _unit(9, 1, region=0))
    store.put(2, _unit(8, 1))
    keys = [(u["gid"], u["region"]) for u in store.units_of(2)]
    assert keys == [(8, None), (9, 0), (9, 1)]
    assert len(store) == 3


# ---------------------------------------------------------------------------
# Transport: unreachable reports + failure epochs
# ---------------------------------------------------------------------------
def _reliable_pair():
    eng = SimEngine()
    net = SimNetwork(eng)
    ta = Transport(net, 0, SUN, reliable=True)
    tb = Transport(net, 1, SUN, reliable=True)
    return eng, net, ta, tb


def test_peer_unreachable_fires_once_per_peer():
    eng, net, ta, tb = _reliable_pair()
    reported = []
    ta.on_peer_unreachable = reported.append
    net.detach(1)
    ta.send(1, "m", {"i": 0})
    ta.send(1, "m", {"i": 1})
    eng.run_until_idle()
    assert reported == [1]
    assert ta.stats.unreachable_events >= 1


def test_mark_dead_drops_sends_and_frames():
    eng, net, ta, tb = _reliable_pair()
    got = []
    tb.on("m", lambda m: got.append(m.payload["i"]))
    ta.on("m", lambda m: None)
    tb.mark_dead(0)              # b declares a dead
    ta.send(1, "m", {"i": 0})    # frame from the "dead" peer: discarded
    tb.send(0, "m", {"i": 1})    # send to a dead peer: dropped at source
    eng.run_until_idle()
    assert got == []
    assert tb.stats.stale_dropped >= 1
    assert tb.stats.to_dead_dropped >= 1


def test_epoch_quarantine_discards_old_epoch_frames():
    """Dead-epoch stragglers are filtered; current-epoch frames pass."""
    eng, net, ta, tb = _reliable_pair()
    tb.quarantine_epoch(0, min_epoch=1)
    assert tb._stale(Message("m", 0, 1, {"__epoch__": 0}))
    assert not tb._stale(Message("m", 0, 1, {"__epoch__": 1}))
    # End-to-end: a sender already in the new epoch gets through.
    ta.stamp_epoch = True
    ta.epoch = 1
    got = []
    tb.on("m", lambda m: got.append(m.payload["i"]))
    ta.send(1, "m", {"i": 1})
    eng.run_until_idle()
    assert got == [1]
    assert tb.stats.stale_dropped == 0


def test_stamped_stale_frame_is_counted():
    eng, net, ta, tb = _reliable_pair()
    ta.stamp_epoch = True               # stamps epoch 0
    tb.quarantine_epoch(0, min_epoch=1)
    got = []
    tb.on("m", lambda m: got.append(m.payload["i"]))
    ta.send(1, "m", {"i": 0})
    eng.run_until_idle()                # ARQ gives up: every copy stale
    assert got == []
    assert tb.stats.stale_dropped >= 1
    assert ta.stats.gave_up >= 1


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------
def test_parse_time_ns_suffixes():
    assert parse_time_ns("5ms") == 5 * NS_PER_MS
    assert parse_time_ns("250us") == 250_000
    assert parse_time_ns("1.5s") == 1_500_000_000
    assert parse_time_ns("42ns") == 42
    assert parse_time_ns("1000") == 1000


def test_fault_spec_detach_with_node_and_time():
    plan = FaultPlan.from_spec("drop,detach:2@5ms", seed=3)
    assert plan.drop_rate > 0
    assert plan.detach_node == 2
    assert plan.detach_at_ns == 5 * NS_PER_MS
    assert plan.lossy


def test_fault_spec_bare_detach_still_rejected():
    with pytest.raises(ValueError, match="detach"):
        FaultPlan.from_spec("detach")
    with pytest.raises(ValueError, match="detach"):
        FaultPlan.from_spec("detach:2")      # no time
    with pytest.raises(ValueError):
        FaultPlan.from_spec("drop:0.5")      # stray argument


def test_parse_kill_fixed_and_random():
    assert parse_kill("2@5ms", seed=0, nodes=3) == (2, 5 * NS_PER_MS)
    node0, at0 = parse_kill("random", seed=0, nodes=3)
    node1, at1 = parse_kill("random", seed=1, nodes=3)
    assert node0 != 0 and node1 != 0           # never the master
    assert (node0, at0) == parse_kill("random", seed=0, nodes=3)
    assert (node0, at0) != (node1, at1)        # seeds explore the space
    with pytest.raises(ValueError, match="master"):
        parse_kill("0@5ms", seed=0, nodes=3)
    with pytest.raises(ValueError, match="range"):
        parse_kill("9@5ms", seed=0, nodes=3)
    with pytest.raises(ValueError, match="kill spec"):
        parse_kill("5ms", seed=0, nodes=3)


@pytest.mark.parametrize("node, message", [
    (9, "kill node 9 out of range for 3 nodes"),
    (0, "kill node 0 is the master; that is not survivable"),
], ids=["out-of-range", "master"])
def test_a_detach_fault_is_checked_like_a_kill(node, message):
    """``--faults detach:NODE@TIME`` goes through ``--kill``'s parser:
    a node that does not exist, or the master, is refused before any
    run, with the message ``--kill`` gives."""
    spec = f"{node}@5ms"
    with pytest.raises(ValueError) as kill:
        parse_kill(spec, seed=0, nodes=3)
    assert str(kill.value) == message
    with pytest.raises(ValueError) as detach:
        run_check(app="series", seeds=1, faults="detach:" + spec)
    assert str(detach.value) == message
    # Without a node count only the spelling is checked.
    assert FaultPlan.from_spec("detach:" + spec).detach_node == node


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
def test_ft_config_requires_buddy_and_arq():
    with pytest.raises(ValueError, match="num_nodes"):
        RuntimeConfig(num_nodes=1, ft_enabled=True,
                      reliable_transport=True).validate()
    with pytest.raises(ValueError, match="reliable_transport"):
        RuntimeConfig(num_nodes=3, ft_enabled=True).validate()
    cfg = RuntimeConfig(num_nodes=3, ft_enabled=True,
                        reliable_transport=True)
    cfg.dsm.timestamp_mode = "vector"
    with pytest.raises(ValueError, match="scalar"):
        cfg.validate()


# ---------------------------------------------------------------------------
# NetStats fault-tolerance breakdown
# ---------------------------------------------------------------------------
def test_netstats_ft_overhead_groups():
    stats = NetStats()
    stats.record(Message("ft.ping", 1, 0, {}, size_bytes=40))
    stats.record(Message("ft.ping", 2, 0, {}, size_bytes=40))
    stats.record(Message("ft.suspect", 1, 0, {}, size_bytes=40))
    stats.record(Message("ft.repl", 0, 1, {}, size_bytes=100))
    stats.record(Message("ft.rediff", 1, 2, {}, size_bytes=60))
    stats.record(Message("ft.notices", 2, 1, {}, size_bytes=50))
    stats.record(Message("dsm.diff", 1, 0, {}, size_bytes=80))
    groups = stats.subsystem_overhead()["ft"]
    assert groups["heartbeat"] == (3, 120)
    assert groups["replication"] == (1, 100)
    assert groups["recovery"][0] == 2
    assert "ft overhead" in stats.summary()


# ---------------------------------------------------------------------------
# Kill/recover integration (oracle + monitor verified via run_check)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app,kill", [
    ("series", "1@5ms"),
    ("series", "2@18ms"),
    ("tsp", "2@8ms"),
    ("tsp", "1@35ms"),
    ("raytracer", "1@5ms"),
    ("raytracer", "2@18ms"),
])
def test_kill_and_recover_is_oracle_clean(app, kill):
    report = run_check(app=app, seeds=1, kill=kill)
    assert report.ok, report.summary()
    sr = report.results[0]
    assert sr.error is None            # in particular: no DeadlockError
    assert sr.ft is not None
    for rec in sr.ft["recoveries"]:
        # Recovery itself is bounded: the repair runs at the detection
        # instant apart from a short in-flight token drain.
        assert rec["recovered_ns"] - rec["detected_ns"] <= 10 * NS_PER_MS


def test_kill_exercises_adoption_and_lock_repair():
    """At 35 ms into tsp, worker 1 is home to escaped shared objects and
    lock traffic is in flight: recovery must adopt units at the buddy
    and repair the token space (deterministic seeded schedule)."""
    report = run_check(app="tsp", seeds=1, kill="1@35ms")
    assert report.ok, report.summary()
    recs = report.results[0].ft["recoveries"]
    assert len(recs) == 1
    assert recs[0]["units_adopted"] >= 1


def test_kill_token_reissue_series():
    report = run_check(app="series", seeds=1, kill="2@18ms")
    assert report.ok, report.summary()
    recs = report.results[0].ft["recoveries"]
    if recs:  # kill landed while the app was still running
        rec = recs[0]
        assert (rec["tokens_reissued"] + rec["lock_requests_reissued"]
                + rec["threads_respawned"]) >= 1


def test_kill_sweep_reports_recoveries():
    report = run_check(app="series", seeds=3, kill="random")
    assert report.ok, report.summary()
    assert "nodes killed" in report.summary()


def test_master_kill_is_not_survivable():
    source = compile_source(app_source("series"))
    rewritten = rewrite_application(list(source))
    config = RuntimeConfig(num_nodes=3, reliable_transport=True,
                           ft_enabled=True)
    rt = JavaSplitRuntime(rewritten, config)
    with pytest.raises(MasterFailedError):
        rt.ft.on_failure(0)


def test_kill_rejects_master_and_vector_mode():
    with pytest.raises(ValueError, match="master"):
        run_check(app="series", seeds=1, kill="0@5ms")
    with pytest.raises(ValueError, match="scalar"):
        run_check(app="series", seeds=1, kill="1@5ms",
                  vector_timestamps=True)


# ---------------------------------------------------------------------------
# ft_enabled=False stays inert
# ---------------------------------------------------------------------------
def test_ft_disabled_runs_clean_with_no_ft_traffic():
    report = run_distributed(source=app_source("series"), num_nodes=3)
    assert report.ft is None
    ft_msgs, ft_bytes = report.net.prefix_totals("ft.")
    assert (ft_msgs, ft_bytes) == (0, 0)


def test_detach_without_runtime_does_not_halt_anything():
    """A bare-network injector (no runtime attached) still only unplugs
    the endpoint — the fail-stop halt needs runtime context."""
    eng = SimEngine()
    net = SimNetwork(eng)
    net.attach(1, SUN, lambda m: None)
    inj = FaultInjector(net, FaultPlan(seed=0))
    inj.detach_now(1)
    assert inj.stats.detached == [1]
    assert not net.is_attached(1)


# ---------------------------------------------------------------------------
# One home directory: re-homing across failures, joins and lost grants
# ---------------------------------------------------------------------------
def _checked_ft_runtime(program, seed, **options):
    """A cluster with ft (and ARQ) on, under a fault injector with no
    scheduled faults, the invariant monitor and the single-copy oracle."""
    config = config_from(options, seed=seed, net_jitter_ns=DEFAULT_JITTER_NS,
                         reliable_transport=True, ft_enabled=True)
    rt = build_runtime(program, config)
    injector = FaultInjector.attach(rt, FaultPlan(seed=seed))
    return rt, injector, InvariantMonitor.attach(rt), SingleCopyOracle.attach(rt)


def test_chained_failure_rehomes_the_adopted_units_again():
    """Node 2 dies; its buddy 3 adopts its units; then 3 dies too: the
    units 3 adopted move on to 3's buddy, 4, and nothing points at a dead
    node.  (Node 2 owns units by 20 ms on seeds 0 and 3; at 5 ms it owns
    none and the chain would go unexercised.)"""
    program = compile_source(app_source("tsp"))
    reference = run_original(classfiles=program)
    chained = 0
    for seed in range(4):
        rt, injector, monitor, oracle = _checked_ft_runtime(
            program, seed, nodes=5, locality="all")
        program = rt.rewritten  # rewrite once, reuse for every seed
        rt.engine.schedule_at(20 * NS_PER_MS, lambda: injector.detach_now(2))
        rt.engine.schedule_at(70 * NS_PER_MS, lambda: injector.detach_now(3))
        report = rt.run()
        first, second = report.ft["recoveries"]
        assert (first["dead"], second["dead"], second["buddy"]) == (2, 3, 4)
        assert report.result == reference.result
        assert monitor.finalize() == [] and oracle.finalize() == []
        homes = {gid: home for gid, (home, _e) in rt.homes.items()}
        assert not set(homes.values()) & {2, 3}
        from_2 = [home for gid, home in homes.items() if home_of(gid) == 2]
        assert len(from_2) == first["units_adopted"]
        chained += len(from_2)
    assert chained > 0


def test_a_joiner_sees_every_home_recovery_moved():
    """A worker joining after a recovery starts from the runtime's home
    directory: it routes every re-homed unit where the survivors do."""
    rt, injector, monitor, oracle = _checked_ft_runtime(
        app_source("tsp"), 0, nodes=3)
    rt.engine.schedule_at(35 * NS_PER_MS, lambda: injector.detach_now(1))
    rt.hooks.recovered.append(
        lambda _dead, _rec: rt.schedule_join(rt.engine.now + NS_PER_MS))
    rt.run()
    newcomer = rt.workers[3]
    assert len(rt.homes) >= 1
    for gid, (home, _epoch) in rt.homes.items():
        assert home == 2
        for w in (rt.workers[0], rt.workers[2]):
            assert newcomer.dsm.home_node(gid) == w.dsm.home_node(gid)
    assert monitor.finalize() == [] and oracle.finalize() == []


def test_a_grant_lost_with_its_grantee_goes_back_to_its_granter():
    """tsp, 4 nodes, seed 4: node 0 grants gid 0x6 to node 2 after node
    2 was killed, and the grant dies on the wire.  Recovery re-installs
    the master at its granter from the kept grant."""
    report = run_check(app="tsp", locality="all", kill="random", nodes=4,
                       seed=4, seeds=1)
    assert report.ok, report.summary()


def test_a_lost_grant_not_given_back_is_flagged(monkeypatch):
    """Mutant: the directory forgets each grant once it is sent, so
    recovery has nothing to give back.  The unit is left with no master
    at all: the next fetch of it fails loudly, and the monitor sees the
    unit with no live master."""
    monkeypatch.setattr(
        HomeDirectory, "granted",
        lambda self, grant, granter, grantee: self.set(
            grant["gid"], grantee, grant["epoch"]))
    report = run_check(app="tsp", locality="all", kill="random", nodes=4,
                       seed=4, seeds=1)
    sr = report.results[0]
    assert "from dead node" in (sr.error or ""), report.summary()
    assert [v.kind for v in sr.violations] == ["single-home"]
    assert "no live master" in sr.violations[0].detail
