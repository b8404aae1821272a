"""Adaptive-locality subsystem: migration handoff, prefetch,
aggregation, serialization round-trips for migrated units, tracer
event kinds, and the per-instant single-home monitor check."""

import pytest

from repro.check import InvariantMonitor, SingleCopyOracle, run_check
from repro.check.oracle import normalize_slots
from repro.check.runner import app_source
from repro.runtime.config import parse_locality
from repro.dsm.objectstate import ObjState
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
    gid, (home, _epoch) = next(iter(rt.locality.migrations.items()))
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
    unit = d0._loc_grant_unit(gid)
    assert unit is not None and unit["version"] == version
    # The old home demoted itself as part of serializing the grant.
    assert obj.header.state == ObjState.INVALID
    d1.ft_install_master(unit)
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
    d1.ft_install_master(unit)
    assert any(v.kind == "single-home" for v in monitor.violations), \
        monitor.summary()


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
