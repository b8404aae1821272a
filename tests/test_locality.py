"""Adaptive-locality subsystem: migration handoff, prefetch,
aggregation, serialization round-trips for migrated units, tracer
event kinds, and the per-instant single-home monitor check."""

import pytest

from repro.check import InvariantMonitor, SingleCopyOracle, run_check
from repro.check.oracle import normalize_slots
from repro.check.runner import app_source
from repro.runtime.config import parse_locality
from repro.dsm.objectstate import ObjState
from repro.dsm.transitions import ACK_GRANT, FETCH_REPLY, GRANT_OUT
from repro.lang import compile_source
from repro.locality import AccessProfiler
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer

# One remote thread hammers a master homed on node 0: the sole-writer
# migration pattern.  A second, later writer then hits the stale
# directory and exercises the old home's forwarding path.
SOLE_WRITER_SRC = """
class Counter { int v; }
class W extends Thread {
    Counter c;
    int reps;
    W(Counter c, int reps) { this.c = c; this.reps = reps; }
    void run() {
        for (int i = 0; i < reps; i++) {
            synchronized (c) { c.v += 1; }
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        W a = new W(c, 6);
        a.start(); a.join();
        W b = new W(c, 6);
        b.start(); b.join();
        return c.v;
    }
}
"""

# Same pattern over an array-wrapper unit (element writes under a lock
# object, so the array itself is the migrating coherency unit).  Two
# sequential writer threads: round-robin puts the first on the home
# node and the second remote, so the second is the sole remote writer.
ARRAY_WRITER_SRC = """
class Lock { int pad; }
class W extends Thread {
    int[] a;
    Lock l;
    int mul;
    W(int[] a, Lock l, int mul) { this.a = a; this.l = l; this.mul = mul; }
    void run() {
        for (int i = 0; i < 6; i++) {
            synchronized (l) { a[i] = i * mul; }
        }
    }
}
class Main {
    static int main() {
        int[] a = new int[6];
        Lock l = new Lock();
        W u = new W(a, l, 3);
        u.start(); u.join();
        W w = new W(a, l, 7);
        w.start(); w.join();
        int s = 0;
        for (int i = 0; i < 6; i++) s += a[i];
        return s;
    }
}
"""

# Writer that paces its releases with local compute, so the migration
# grant lands mid-run and the remaining releases apply locally.
# The pacing loop is 1/20 of the intended compute and runs under
# ``time_dilation=20``: the same simulated schedule for a twentieth of
# the interpreted bytecodes.
PACED_WRITER_DILATION = 20
PACED_WRITER_SRC = """
class Counter { int v; }
class W extends Thread {
    Counter c;
    W(Counter c) { this.c = c; }
    void run() {
        for (int i = 0; i < 12; i++) {
            synchronized (c) { c.v += 1; }
            int t = 0;
            for (int j = 0; j < 1000; j++) t = t + j;
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        W a = new W(c);
        a.start(); a.join();
        W b = new W(c);
        b.start(); b.join();
        return c.v;
    }
}
"""


def _runtime(src, nodes=2, **cfg):
    classfiles = compile_source(src)
    rewritten = rewrite_application(classfiles)
    cfg.setdefault("scheduler", "round-robin")  # spread threads over nodes
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
# Knobs and policy plumbing
# ---------------------------------------------------------------------------
def test_knobs_off_attaches_nothing():
    rt = _runtime(SOLE_WRITER_SRC)
    assert rt.locality is None
    report = rt.run()
    assert report.result == 12
    assert report.locality is None


def test_parse_locality_specs():
    assert parse_locality("") == {
        "locality_migration": False,
        "locality_prefetch": False,
        "locality_aggregation": False,
    }
    assert parse_locality("all")["locality_migration"] is True
    assert parse_locality("all")["locality_aggregation"] is True
    spec = parse_locality("migration, prefetch")
    assert spec["locality_migration"] and spec["locality_prefetch"]
    assert not spec["locality_aggregation"]
    with pytest.raises(ValueError):
        parse_locality("migration,warp")


def test_profiler_requires_sole_writer_over_threshold():
    prof = AccessProfiler(window=4)
    prof.note_diff(7, node=1)
    prof.note_diff(7, node=1)
    assert not prof.should_migrate(7, writer=1, threshold=3)
    prof.note_diff(7, node=1)
    assert prof.should_migrate(7, writer=1, threshold=3)
    # Any second writer in the window pins the unit.
    prof.note_diff(7, node=2)
    assert not prof.should_migrate(7, writer=1, threshold=3)
    # Fetches are not writes and never block migration.
    prof2 = AccessProfiler(window=8)
    for _ in range(3):
        prof2.note_diff(9, node=1)
    prof2.note_fetch(9, node=2)
    assert prof2.should_migrate(9, writer=1, threshold=3)
    prof2.reset(9)
    assert not prof2.should_migrate(9, writer=1, threshold=3)


# ---------------------------------------------------------------------------
# Migration end-to-end (object + array units), oracle-verified
# ---------------------------------------------------------------------------
def test_object_unit_migrates_to_sole_writer():
    rt = _runtime(SOLE_WRITER_SRC, locality_migration=True)
    report = _checked_run(rt)
    assert report.result == 12
    loc = report.locality
    assert loc is not None and loc["migrations_out"] >= 1
    # The second writer's first diff hit the stale directory and was
    # forwarded by the old home (then redirect gossip corrected it).
    assert loc["fwd_diffs"] >= 1
    # The migrated master lives where the directory says it lives.
    gid, (home, _epoch) = next(iter(rt.homes.items()))
    obj = rt.workers[home].dsm.cache.get(gid)
    assert obj is not None and obj.header.state == ObjState.HOME


def test_array_unit_migrates_and_round_trips(monkeypatch):
    monkeypatch.setattr("repro.locality.manager.MIGRATION_THRESHOLD", 2)
    rt = _runtime(ARRAY_WRITER_SRC, locality_migration=True)
    report = _checked_run(rt)
    assert report.result == sum(i * 7 for i in range(6))
    loc = report.locality
    assert loc is not None and loc["migrations_out"] >= 1


def test_migration_beats_baseline_on_messages():
    base = _runtime(PACED_WRITER_SRC,
                    time_dilation=PACED_WRITER_DILATION).run()
    rt = _runtime(PACED_WRITER_SRC, locality_migration=True,
                  time_dilation=PACED_WRITER_DILATION)
    report = rt.run()
    assert report.result == base.result == 24
    # With paced releases the grant lands mid-run, the writer's later
    # releases apply locally, and total traffic drops below baseline.
    assert report.locality["migrations_out"] >= 1
    assert report.net.messages < base.net.messages


# ---------------------------------------------------------------------------
# Serialization round-trips for migrating units
# ---------------------------------------------------------------------------
def _grant_round_trip(src, pick):
    """Run an app, then migrate one finished master between two live
    engines through the real grant serialize/install path and compare
    the unit slot-for-slot."""
    rt = _runtime(src)
    rt.run()
    d0, d1 = rt.workers[0].dsm, rt.workers[1].dsm
    gid, obj = pick(d0)
    before = normalize_slots(
        obj.data if hasattr(obj, "data") else obj.fields)
    version = obj.header.version
    unit = d0.arrive(GRANT_OUT, gid, None)
    assert unit["version"] == version
    # The old home demoted itself as part of serializing the grant.
    assert obj.header.state == ObjState.INVALID
    d1.arrive(ACK_GRANT, gid, unit)
    installed = d1.cache.get(gid)
    assert installed.header.state == ObjState.HOME
    assert installed.header.version == version
    after = normalize_slots(
        installed.data if hasattr(installed, "data") else installed.fields)
    assert after == before


def _pick_home(dsm, want_array):
    for gid, obj in sorted(dsm.cache.items()):
        if dsm.is_split(gid) or obj.header is None:
            continue
        if obj.header.state != ObjState.HOME:
            continue
        if hasattr(obj, "data") == want_array:
            return gid, obj
    raise AssertionError("no suitable master found")


def test_grant_serialization_round_trip_object():
    _grant_round_trip(SOLE_WRITER_SRC,
                      lambda dsm: _pick_home(dsm, want_array=False))


def test_grant_serialization_round_trip_array():
    _grant_round_trip(ARRAY_WRITER_SRC,
                      lambda dsm: _pick_home(dsm, want_array=True))


def test_migration_with_in_flight_diff_to_old_home():
    """A diff addressed to the old home after the unit migrated is
    forwarded, applied at the new home, and acked exactly once — the
    writer's fence must fully drain."""
    rt = _runtime(SOLE_WRITER_SRC, nodes=3, locality_migration=True,
                  net_jitter_ns=2_000_000, seed=3)
    report = _checked_run(rt)  # monitor checks _outstanding_acks == 0
    assert report.result == 12
    loc = report.locality
    assert loc["migrations_out"] >= 1 and loc["fwd_diffs"] >= 1


# ---------------------------------------------------------------------------
# Prefetch + aggregation pay off on tsp at checking scale
# ---------------------------------------------------------------------------
def test_prefetch_cuts_fetches_on_tsp():
    src = app_source("tsp")
    base = _runtime(src, nodes=3).run()
    rt = _runtime(src, nodes=3, locality_prefetch=True)
    report = _checked_run(rt)
    assert report.result == base.result
    loc = report.locality
    assert loc["prefetch_hits"] >= 1
    assert report.total_dsm().fetches < base.total_dsm().fetches


def test_aggregation_coalesces_frames_on_tsp():
    src = app_source("tsp")
    base = _runtime(src, nodes=3).run()
    rt = _runtime(src, nodes=3, locality_aggregation=True)
    report = _checked_run(rt)
    assert report.result == base.result
    loc = report.locality
    assert loc["agg_frames"] >= 1
    assert loc["agg_subframes"] >= 2 * loc["agg_frames"]
    assert report.net.messages <= base.net.messages
    assert report.net.bytes <= base.net.bytes


# ---------------------------------------------------------------------------
# Tracer: locality event kinds + summary()
# ---------------------------------------------------------------------------
def test_tracer_summary_counts_locality_events():
    src = app_source("tsp")
    rt = _runtime(src, nodes=3, locality_migration=True,
                  locality_prefetch=True, locality_aggregation=True)
    tracer = DsmTracer.attach(rt)
    rt.run()
    summary = tracer.summary()
    assert summary == dict(sorted(tracer.counts().items()))
    assert summary.get("locality.migrate", 0) >= 1
    assert summary.get("locality.prefetch", 0) >= 1
    assert summary.get("locality.aggregate", 0) >= 1


def test_tracer_summary_without_locality():
    rt = _runtime(SOLE_WRITER_SRC)
    tracer = DsmTracer.attach(rt)
    rt.run()
    summary = tracer.summary()
    assert summary and all(isinstance(v, int) for v in summary.values())
    assert not any(k.startswith("locality.") for k in summary)


# ---------------------------------------------------------------------------
# Monitor: per-instant single-home across migrations
# ---------------------------------------------------------------------------
def test_monitor_catches_double_master_at_install():
    rt = _runtime(SOLE_WRITER_SRC)
    monitor = InvariantMonitor.attach(rt)
    rt.run()
    d0, d1 = rt.workers[0].dsm, rt.workers[1].dsm
    gid, _obj = _pick_home(d0, want_array=False)
    unit = d0.ft_serialize_unit(gid)
    # BUG under test: install a second master without demoting the
    # first (a grant handoff that skipped the demote).
    d1.arrive(ACK_GRANT, gid, unit)
    assert any(v.kind == "single-home" for v in monitor.violations), \
        monitor.summary()


@pytest.mark.parametrize("corrupt", ["no-master", "wrong-directory"])
def test_monitor_sees_a_unit_with_no_master_or_misplaced(corrupt):
    """End-of-run single-home: every cached unit has exactly one live
    master, on the node the runtime's home directory names."""
    rt = _runtime(SOLE_WRITER_SRC, locality_migration=True)
    monitor = InvariantMonitor.attach(rt)
    rt.run()
    assert monitor.finalize() == []
    gid, (home, epoch) = next(iter(rt.homes.items()))
    if corrupt == "no-master":
        # BUG under test: a master lost with no one to take it over.
        rt.workers[home].dsm.cache[gid].header.state = ObjState.INVALID
        expected = "no live master"
    else:
        # BUG under test: the move was recorded to the wrong node.
        rt.homes.set(gid, 1 - home, epoch + 1)
        expected = f"the home directory names {1 - home}"
    assert [v.kind for v in monitor.finalize()] == ["single-home"]
    assert expected in monitor.violations[0].detail


def test_monitor_accepts_clean_migration_sweep():
    report = run_check(app="tsp", seeds=3, locality="all")
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Recovery: kill a node after units migrated onto / away from it
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", ["tsp", "series"])
def test_kill_random_with_locality(app):
    report = run_check(app=app, seeds=4, kill="random", locality="all")
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# A grant that lands on a node with requests of its own outstanding
# ---------------------------------------------------------------------------
class _Parked:
    """Stands in for a thread parked on a fetch."""

    woke = False

    def wake(self):
        self.woke = True


def _idle_cluster():
    """A finished 3-node run with the whole locality stack attached:
    live engines to drive by hand, with one object mastered on node 0."""
    rt = _runtime(SOLE_WRITER_SRC, nodes=3, locality_migration=True,
                  locality_prefetch=True, locality_aggregation=True)
    monitor = InvariantMonitor.attach(rt)
    rt.run()
    dsms = [w.dsm for w in rt.workers]
    for dsm in dsms:
        for gid, obj in sorted(dsm.cache.items()):
            if (obj.header is not None and not hasattr(obj, "data")
                    and obj.header.state == ObjState.HOME
                    and obj.class_name.endswith("Counter")):
                return rt, monitor, dsm.node_id, gid
    raise AssertionError("no Counter master")


def test_grant_overtaking_a_prefetch_keeps_the_master():
    """Seeds 2 and 7 of the hotset preset: the home grants a unit to a
    node that has just bulk-prefetched it and parked a reader on it.
    The grant lands first; the unit is present, so the reader runs and
    the request is retired — the unserved echo of the prefetch must not
    send the node fetching from itself, and a reply that does arrive
    late must not install a replica over the master."""
    from repro.dsm.protocol import ProtocolError
    from repro.net.message import M_LOC_BULK_FETCH

    rt, monitor, home, gid = _idle_cluster()
    agents = rt.locality.agents
    grantee = (home + 1) % 3
    old, new = rt.workers[home].dsm, rt.workers[grantee].dsm
    # The grantee holds an invalidated replica it read before.
    stale_reply = old.ship_unit(gid)
    new.arrive(FETCH_REPLY, gid, dict(stale_reply))
    new.cache[gid].header.state = ObjState.INVALID
    # Prefetch in flight (on_token_notices), a reader parked on it...
    new._fetch_targets[(gid, None)] = home
    new.transport.send(home, M_LOC_BULK_FETCH, {"gids": [gid]})
    reader = _Parked()
    new._fetch_waiters[(gid, None)] = [reader]
    # ...and the grant, cut before the prefetch arrives, lands first.
    grant = agents[home].grant_out(gid, grantee)
    assert agents[grantee].install_grant(grant)
    assert reader.woke
    assert (gid, None) not in new._fetch_targets
    assert (gid, None) not in new._fetch_waiters
    rt.engine.run_until_idle()  # the old home echoes the gid unserved
    hdr = new.cache[gid].header
    assert hdr.state == ObjState.HOME
    # The fetch reply the old home sent before it granted the unit away.
    new.arrive(FETCH_REPLY, gid, dict(stale_reply))
    assert hdr.state == ObjState.HOME
    assert new.stats.stale_installs == 1
    with pytest.raises(ProtocolError, match="from itself"):
        new._send_fetch(gid, None)
    assert monitor.ok, monitor.summary()


def test_corrupt_directory_fails_within_a_bounded_chain():
    """A directory entry that names a node holding no master sends a
    diff bouncing between that node and the origin home.  The chain is
    bounded: the run fails with the unit, the chain and every node's
    directory entry named, it does not spin."""
    from repro.dsm.protocol import M_DIFF, ProtocolError
    from repro.locality.manager import MAX_HOPS

    rt, _monitor, home, gid = _idle_cluster()
    liar = (home + 1) % 3
    writer = rt.workers[(home + 2) % 3].dsm
    # By hand: every node believes ``liar`` is the home; it is not.
    master = rt.workers[home].dsm.cache[gid].header
    master.state = ObjState.INVALID
    for w in rt.workers:
        w.dsm.homes._entries[gid] = (liar, 99)
    entry = (gid, b"\x00\x00\x00\x00", None)
    writer.transport.send(liar, M_DIFF, {
        "entries": [entry], "ack_id": 0, "writer": writer.node_id,
        "interval": 1})
    fired = rt.engine.events_fired
    with pytest.raises(ProtocolError) as err:
        rt.engine.run_until_idle()
    assert rt.engine.events_fired - fired <= 4 * MAX_HOPS
    text = str(err.value)
    assert f"gid {gid:#x}" in text and "chain [" in text
    assert f"{liar}: ({liar}, 99)" in text


def test_grant_install_folds_in_the_grantees_flushes_still_in_flight():
    """Seed 5 of the hotset preset (wrong result, no violation): the
    writer's replica was invalidated — by the notice of its own earlier
    write — while a later flush was still in flight to the old home, so
    the grant (cut before that flush arrived) was installed without it.
    A local read then missed the node's own write, and the flush, back
    around the old home, rolled back what had been written since."""
    rt, monitor, home, gid = _idle_cluster()
    agents = rt.locality.agents
    grantee = (home + 1) % 3
    old, new = rt.workers[home].dsm, rt.workers[grantee].dsm
    new.arrive(FETCH_REPLY, gid, old.ship_unit(gid))
    counter = new.cache[gid]
    base = counter.fields[0]
    # A release flushes a write; the ack is not back yet...
    new.write_check(None, counter, None)
    counter.fields[0] = base + 5
    new._flush([gid], flush_home=False)
    assert new._outstanding_acks == 1
    # ...when a token's notices invalidate the replica and the grant,
    # cut before the flush reaches the old home, arrives.
    counter.header.state = ObjState.INVALID
    counter.fields[0] = -1
    forwarded = old.stats.fwd_diffs
    grant = agents[home].grant_out(gid, grantee)
    assert agents[grantee].install_grant(grant)
    assert counter.header.state == ObjState.HOME
    assert counter.fields[0] == base + 5      # read-your-writes
    new.write_check(None, counter, None)
    counter.fields[0] = base + 6              # a newer home write
    rt.engine.run_until_idle()                # the flush comes back around
    assert counter.fields[0] == base + 6      # dropped, not re-applied
    assert new._outstanding_acks == 0         # and acked exactly once
    assert old.stats.fwd_diffs == forwarded + 1
    assert monitor.ok, monitor.summary()
    # The fold covers the flushes made up to the install, not the unit
    # for ever: should it leave and come back, later ones are new writes.
    fold = agents[grantee].folds_own_diff
    assert fold(gid, grantee, new._flush_seq - 1)
    assert not fold(gid, grantee, new._flush_seq + 1)


def test_monitor_reports_a_node_applying_its_own_flush_to_its_master():
    """The checkers' blind spot on that seed: a master that applies a
    diff its own node wrote was installed without it."""
    from repro.dsm.protocol import M_DIFF

    rt, monitor, home, gid = _idle_cluster()
    dsm = rt.workers[home].dsm
    version = dsm.cache[gid].header.version
    dsm.transport.send(home, M_DIFF, {
        "entries": [(gid, b"\x00\x00\x00\x00", None)], "ack_id": 10 ** 6,
        "writer": home, "interval": dsm._flush_seq + 1})
    rt.engine.run_until_idle()
    assert dsm.cache[gid].header.version == version + 1
    assert [v.kind for v in monitor.violations] == ["own-diff"]
