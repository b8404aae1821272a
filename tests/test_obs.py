"""Telemetry subsystem: metrics registry / span recorder / stall
profiler units, Chrome trace-event export + validation, passivity
(knobs-off byte-identity and metrics/profile traffic-neutrality),
end-to-end causal lock-acquire trees on tsp, stall attribution
ranking, and composition with the consistency oracle."""

import json

import pytest

from repro.check import run_check
from repro.lang import compile_source
from repro.obs import (MetricsRegistry, ObsManager, SpanRecorder,
                       StallProfiler, current_site, site_label,
                       validate_chrome_trace)
from repro.obs.metrics import Histogram
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig

SYNC_COUNTER_SRC = """
class Counter { int v; }
class W extends Thread {
    Counter c;
    W(Counter c) { this.c = c; }
    void run() {
        for (int i = 0; i < 8; i++) {
            synchronized (c) { c.v += 1; }
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        W a = new W(c); W b = new W(c);
        a.start(); b.start(); a.join(); b.join();
        return c.v;
    }
}
"""


def _runtime(src, nodes=3, **cfg):
    classfiles = compile_source(src)
    rewritten = rewrite_application(classfiles)
    cfg.setdefault("scheduler", "round-robin")
    return JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=nodes, **cfg))


def _app_runtime(app, **cfg):
    from repro.check.runner import app_source

    return _runtime(app_source(app), **cfg)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------
def test_histogram_buckets_and_stats():
    h = Histogram()
    for v in (0, 1, 2, 3, 1000):
        h.observe(v)
    assert h.count == 5
    assert h.total == 1006
    assert (h.min, h.max) == (0, 1000)
    assert h.mean == pytest.approx(201.2)
    # 0 and 1 share bucket 0; 2 -> bucket 1; 3 -> bucket 2; 1000 -> 2^10.
    assert h.buckets == {0: 2, 1: 1, 2: 1, 10: 1}
    assert h.quantile(0.5) == 2          # 3rd of 5 samples sits in bucket 1
    # Interpolated to the top of bucket 10 (1024), clamped to max=1000.
    assert h.quantile(1.0) == 1000
    d = h.as_dict()
    assert d["count"] == 5 and d["buckets"]["1024"] == 1
    assert d["p999"] == 1000


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram()
    for _ in range(100):
        h.observe(10)                    # bucket 4: (8, 16]
    # Every rank lands in one bucket; interpolation then clamps to the
    # single observed value instead of the 16 upper bucket bound.
    assert h.quantile(0.5) == 10
    assert h.quantile(0.99) == 10
    assert h.quantile(0.999) == 10
    # Uniform fill of one bucket: rank r of n sits at lo + r/n * (hi-lo).
    h2 = Histogram()
    for v in (9, 10, 11, 12, 13, 14, 15, 16):
        h2.observe(v)                    # all 8 in bucket 4, lo=8 hi=16
    assert h2.quantile(0.5) == 12        # 8 + 4/8 * 8
    assert h2.quantile(1.0) == 16
    assert h2.quantile(0.125) == 9       # 8 + 1/8 * 8, also the min clamp


def test_histogram_quantile_p999_two_buckets():
    h = Histogram()
    for _ in range(999):
        h.observe(100)                   # bucket 7: (64, 128]
    h.observe(5000)                      # bucket 13: (4096, 8192]
    # Rank 500 interpolates to 96 inside (64, 128], clamps up to min=100.
    assert h.quantile(0.5) == 100
    # Ranks 990/999 sit near the top of the fast bucket: 64 + r/999 * 64.
    assert h.quantile(0.99) == 127
    assert h.quantile(0.999) == 128
    assert h.quantile(1.0) == 5000       # rank 1000 interpolates, clamps to max
    d = h.as_dict()
    assert d["p999"] == 128 and d["p99"] == 127


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    a.observe(4)
    b.observe(100)
    b.observe(2)
    a.merge(b)
    assert a.count == 3
    assert (a.min, a.max) == (2, 100)
    assert Histogram().merge(a).count == 3


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
def test_registry_counters_gauges_histograms():
    clock = [0]
    reg = MetricsRegistry(lambda: clock[0], bucket_ns=100)
    reg.inc("msgs", node=0)
    reg.inc("msgs", node=1, n=4)
    clock[0] = 250
    reg.inc("msgs", node=0)
    reg.set_gauge("depth", node=1, value=7)
    reg.observe("lat", node=0, value=16)
    assert reg.counter_total("msgs") == 6
    assert reg.histogram("lat").count == 1
    d = reg.as_dict()
    assert d["counters"]["msgs"]["total"] == 6
    assert d["counters"]["msgs"]["by_node"] == {"0": 2, "1": 4}
    assert d["gauges"]["depth"] == {"1": 7}
    # bucket 0 got the first 5 increments, bucket 200 the later one.
    assert d["series"]["msgs"] == {"0": 5, "200": 1}
    compact = reg.compact()
    assert compact["msgs"] == 6
    assert compact["lat"]["count"] == 1


def test_registry_rejects_bad_bucket():
    with pytest.raises(ValueError):
        MetricsRegistry(lambda: 0, bucket_ns=0)


# ---------------------------------------------------------------------------
# SpanRecorder
# ---------------------------------------------------------------------------
def test_spans_open_close_parenting():
    clock = [10]
    rec = SpanRecorder(lambda: clock[0])
    root = rec.open("acquire", node=0, gid=5)
    clock[0] = 20
    hop = rec.open("hop", node=1, parent=root)
    clock[0] = 35
    rec.close(hop)
    rec.close(root)
    assert rec.spans[root].duration_ns == 25
    assert rec.root_of(hop) == root
    assert rec.depth_of(hop) == 1
    assert rec.ancestry(hop) == ["acquire", "hop"]
    # Closing twice (or a nonexistent id) is a no-op.
    assert rec.close(hop) is None
    assert rec.close(999) is None
    dicts = rec.as_dicts()
    assert [d["name"] for d in dicts] == ["acquire", "hop"]
    assert dicts[0]["attrs"] == {"gid": 5}


def test_spans_cap_drops_and_sentinel_is_inert():
    rec = SpanRecorder(lambda: 0, max_spans=1)
    first = rec.open("a", node=0)
    assert first == 1
    assert rec.open("b", node=0) == 0
    assert rec.dropped == 1
    # The 0 sentinel never resolves to a span anywhere.
    assert rec.close(0) is None
    assert rec.root_of(0) == 0
    assert rec.ancestry(0) == []


def test_chrome_trace_export_and_validation():
    clock = [1000]
    rec = SpanRecorder(lambda: clock[0])
    root = rec.open("dsm.lock.acquire", node=0)
    clock[0] = 3000
    rec.instant("dsm.note", node=1, parent=root)
    clock[0] = 5000
    rec.close(root)
    doc = rec.to_chrome_trace()
    assert validate_chrome_trace(doc) == []
    phases = [e["ph"] for e in doc["traceEvents"]]
    assert phases == ["b", "e", "n"]
    b = doc["traceEvents"][0]
    assert b["ts"] == 1.0 and b["id"] == root and b["tid"] == 0
    # All events of the tree share the root id (Perfetto nesting key).
    assert {e["id"] for e in doc["traceEvents"]} == {root}


def test_trace_validation_catches_malformed_docs():
    assert validate_chrome_trace([]) == ["document is not a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]
    bad = {"traceEvents": [
        {"name": "x", "ph": "e", "ts": 1, "pid": 0, "tid": 0, "id": 7},
        {"name": "y", "ph": "b", "ts": 1, "pid": 0, "tid": 0, "id": 8},
        {"name": "z", "ph": "?", "ts": "NaN", "pid": 0},
    ]}
    errors = validate_chrome_trace(bad)
    assert any("no matching 'b'" in e for e in errors)
    assert any("unclosed async span" in e for e in errors)
    assert any("unknown phase" in e for e in errors)
    assert any("missing required key" in e for e in errors)
    assert any("ts is not a number" in e for e in errors)


def test_collapsed_stacks_use_self_time():
    clock = [0]
    rec = SpanRecorder(lambda: clock[0])
    root = rec.open("a", node=0)
    child = rec.open("b", node=1, parent=root)
    clock[0] = 30
    rec.close(child)
    clock[0] = 100
    rec.close(root)
    lines = dict(line.rsplit(" ", 1)
                 for line in rec.to_collapsed().splitlines())
    assert lines == {"a;b@n1": "30", "a@n0": "70"}


# ---------------------------------------------------------------------------
# StallProfiler
# ---------------------------------------------------------------------------
def test_profiler_first_blocker_wins_and_report():
    clock = [0]
    prof = StallProfiler(lambda: clock[0])
    site = ("W", "run", 9, 7)
    prof.open_stall(1, "lock", site, "Counter@0x3")
    # Re-executed access check: same tid blocks "again" — ignored.
    clock[0] = 50
    prof.open_stall(1, "fetch", None, "Other@0x4")
    clock[0] = 200
    assert prof.close_stall(1) == 200
    assert prof.close_stall(1) == 0      # already closed
    prof.open_stall(2, "fetch", None, "Other@0x4")
    clock[0] = 260
    prof.close_all()
    assert prof.total_stall_ns == 260
    assert prof.by_kind() == {
        "lock": {"stall_ns": 200, "stalls": 1},
        "fetch": {"stall_ns": 60, "stalls": 1},
    }
    rep = prof.report(top_n=5)
    assert rep["hot_units"][0]["unit"] == "Counter@0x3"
    assert rep["hot_sites"][0]["site"] == "W.run:7(pc=9)"
    assert rep["hot_sites"][1]["site"] == "<unknown>"
    assert "total stall time" in prof.format()


def test_site_label():
    assert site_label(None) == "<unknown>"
    assert site_label(("A", "m", 3, 12)) == "A.m:12(pc=3)"


# ---------------------------------------------------------------------------
# Config knobs + wiring
# ---------------------------------------------------------------------------
def test_obs_knobs_off_attaches_nothing():
    rt = _runtime(SYNC_COUNTER_SRC)
    assert rt.obs is None
    report = rt.run()
    assert report.result == 16
    assert report.obs is None


def test_obs_manager_attaches_per_worker_agents():
    rt = _runtime(SYNC_COUNTER_SRC, obs_metrics=True, obs_spans=True,
                  obs_profile=True)
    assert isinstance(rt.obs, ObsManager)
    assert set(rt.obs.agents) == {0, 1, 2}
    for w in rt.workers:
        agent = rt.obs.agents[w.node_id]
        assert agent.on_block in w.dsm.hooks.block
        assert agent.on_deliver in w.transport.hooks.deliver


# ---------------------------------------------------------------------------
# Passivity: knobs off = byte-identical; metrics/profile = traffic-neutral
# ---------------------------------------------------------------------------
def test_obs_knobs_off_is_byte_identical():
    base = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000).run()
    off = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000,
                   obs_metrics=False, obs_spans=False,
                   obs_profile=False).run()
    assert off.result == base.result
    assert off.net.messages == base.net.messages
    assert off.net.bytes == base.net.bytes
    assert off.simulated_ns == base.simulated_ns


def test_metrics_and_profile_are_traffic_neutral():
    base = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000).run()
    on = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000,
                  obs_metrics=True, obs_profile=True).run()
    assert on.result == base.result
    assert on.net.messages == base.net.messages
    assert on.net.bytes == base.net.bytes
    assert on.simulated_ns == base.simulated_ns
    assert on.obs is not None
    assert on.obs["metrics"]["counters"]["dsm.token.sent"]["total"] > 0
    assert on.obs["profile"]["total_stall_ns"] > 0


def test_spans_bill_their_piggyback_bytes():
    base = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000).run()
    on = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000,
                  obs_spans=True).run()
    assert on.result == base.result
    # Same protocol transitions, strictly more wire bytes (span ids).
    assert on.net.messages == base.net.messages
    assert on.net.bytes > base.net.bytes
    assert on.obs["spans"]["count"] > 0
    assert on.obs["spans"]["dropped"] == 0


# ---------------------------------------------------------------------------
# End-to-end telemetry on the benchmark apps
# ---------------------------------------------------------------------------
def test_tsp_hot_unit_ranking_and_causal_lock_trees():
    # Same configuration `repro profile tsp` runs with.
    rt = _app_runtime("tsp", scheduler="least-loaded", obs_metrics=True,
                      obs_spans=True, obs_profile=True)
    report = rt.run()
    obs = rt.obs
    # Stall attribution: the shared tour bound is among the hottest units.
    hot = [e["unit"] for e in obs.profiler.report(10)["hot_units"]]
    assert any(u.startswith("javasplit.MinTour@") for u in hot[:3]), hot
    sites = obs.profiler.report(10)["hot_sites"]
    assert sites and sites[0]["class"] is not None   # attribution resolved
    # Causal trees: every forwarding hop chains up to a lock root.
    rec = obs.spans
    hops = [s for s in rec.spans.values() if s.name == "dsm.lock.hop"]
    assert hops, "3-node tsp must forward some lock request"
    for hop in hops:
        root = rec.spans[rec.root_of(hop.span_id)]
        assert root.name in ("dsm.lock.acquire", "dsm.lock.wait")
    # Token grants parent back into the same trees.
    tokens = [s for s in rec.spans.values() if s.name == "dsm.token"]
    assert any(rec.depth_of(t.span_id) > 0 for t in tokens)
    # Exported trace is Perfetto-valid and hop counts reached metrics.
    assert validate_chrome_trace(rec.to_chrome_trace()) == []
    assert obs.metrics.histogram("dsm.lock.hops").count > 0
    assert report.obs["profile"]["hot_units"]


def test_fetch_latency_histogram_without_spans():
    rt = _app_runtime("series", obs_metrics=True)
    rt.run()
    hist = rt.obs.metrics.histogram("dsm.fetch.latency_ns")
    assert hist.count > 0
    assert hist.min > 0                 # a remote fetch is never free
    assert rt.obs.metrics.histogram("dsm.lock.wait_ns").count > 0


def test_speedscope_export_from_real_run():
    rt = _app_runtime("series", obs_spans=True)
    rt.run()
    collapsed = rt.obs.spans.to_collapsed()
    assert collapsed
    for line in collapsed.splitlines():
        stack, weight = line.rsplit(" ", 1)
        assert int(weight) > 0
        assert stack


def test_ft_recovery_becomes_span_tree():
    from repro.check.faults import FaultInjector, FaultPlan
    from repro.sim.engine import NS_PER_MS

    rt = _app_runtime("series", obs_metrics=True, obs_spans=True,
                      ft_enabled=True, reliable_transport=True)
    plan = FaultPlan(seed=0)
    plan.detach_node, plan.detach_at_ns = 2, 5 * NS_PER_MS
    FaultInjector.attach(rt, plan)
    rt.run()
    rec = rt.obs.spans
    roots = [s for s in rec.spans.values() if s.name == "ft.recovery"]
    assert len(roots) == 1
    root = roots[0]
    assert root.attrs["dead"] == 2
    # Zero when the token drain settles instantly; never negative.
    assert root.duration_ns >= 0
    phases = [s for s in rec.spans.values()
              if s.parent_id == root.span_id]
    assert {s.name for s in phases} >= {
        "ft.units_adopted", "ft.tokens_reissued", "ft.threads_respawned"}
    assert rt.obs.metrics.counter_total("ft.recoveries") == 1


def test_check_sweep_obs_under_kill():
    rep = run_check(app="series", seeds=1, kill="2@5ms", obs=True)
    assert rep.ok


# ---------------------------------------------------------------------------
# Composition: all telemetry on under the consistency oracle
# ---------------------------------------------------------------------------
def test_check_sweep_with_obs_on():
    rep = run_check(app="series", seeds=3, obs=True)
    assert rep.ok
    assert "obs=on" in rep.summary()


def test_check_sweep_obs_with_locality_and_race():
    rep = run_check(app="tsp", seeds=2, obs=True, locality="all", race=True)
    assert rep.ok
