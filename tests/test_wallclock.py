"""Wall-clock telemetry plane: histogram merging, the cluster-wide
WallClockStats store, the flight-recorder ring, and the invariant that
switching the wall-clock knobs on never moves a deterministic
observable (wall time is *observed*, never fed back into the sim)."""

from __future__ import annotations

import json

import pytest

from repro.check.runner import app_source
from repro.lang import compile_source
from repro.obs.flight import (FLIGHT_SCHEMA, FlightRecorder, build_dump,
                              validate_flight_dump, write_dump)
from repro.obs.metrics import Histogram
from repro.obs.wallclock import WallClockStats
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime


# ---------------------------------------------------------------------------
# Histogram.merge / from_dict — the cross-node aggregation primitives
# ---------------------------------------------------------------------------
def test_histogram_merge_aligns_buckets_and_sums_counts():
    a, b = Histogram(), Histogram()
    for v in (1, 3, 100, 5000):
        a.observe(v)
    for v in (2, 3, 700_000):
        b.observe(v)
    a.merge(b)
    assert a.count == 7
    assert a.total == 1 + 3 + 100 + 5000 + 2 + 3 + 700_000
    # Same-valued samples from both sides land in one shared bucket.
    k3 = (3 - 1).bit_length()
    assert a.buckets[k3] == 2
    assert sum(a.buckets.values()) == a.count


def test_histogram_merge_min_max_and_tail_quantiles():
    a, b = Histogram(), Histogram()
    for v in range(10, 20):
        a.observe(v)
    b.observe(2)
    b.observe(1_000_000)
    a.merge(b)
    assert a.min == 2
    assert a.max == 1_000_000
    # Tail quantiles stay clamped to the observed range after a merge.
    assert a.quantile(0.999) <= a.max
    assert a.quantile(0.5) >= a.min
    assert a.quantile(0.999) >= a.quantile(0.5)


def test_histogram_merge_into_empty_and_with_empty():
    a, b = Histogram(), Histogram()
    b.observe(42)
    a.merge(b)
    assert (a.count, a.min, a.max) == (1, 42, 42)
    a.merge(Histogram())  # merging an empty histogram is a no-op
    assert (a.count, a.min, a.max) == (1, 42, 42)


def test_histogram_from_dict_roundtrip():
    h = Histogram()
    for v in (0, 1, 2, 17, 300, 40_000, 7_000_000):
        h.observe(v)
    back = Histogram.from_dict(h.as_dict())
    assert back.as_dict() == h.as_dict()
    assert back.quantile(0.99) == h.quantile(0.99)


# ---------------------------------------------------------------------------
# WallClockStats — the master-side cluster store
# ---------------------------------------------------------------------------
def test_wallclock_counters_and_per_node_histograms():
    w = WallClockStats()
    w.observe("net.rtt_ns", 0, 1000)
    w.observe("net.rtt_ns", 1, 3000)
    merged = w.histogram("net.rtt_ns")
    assert merged.count == 2
    assert merged.min == 1000 and merged.max == 3000


def test_wallclock_set_hist_replaces_per_node_then_merges():
    w = WallClockStats()
    h1 = Histogram()
    h1.observe(5)
    w.set_hist("worker.lag_ns", 0, h1.as_dict())
    h2 = Histogram()
    h2.observe(5)
    h2.observe(9)
    w.set_hist("worker.lag_ns", 0, h2.as_dict())  # cumulative re-ship
    h3 = Histogram()
    h3.observe(100)
    w.set_hist("worker.lag_ns", 1, h3.as_dict())
    merged = w.histogram("worker.lag_ns")
    assert merged.count == 3  # node 0's replace took, node 1 added
    assert merged.max == 100


def test_wallclock_sample_dedups_sim_time_and_is_bounded():
    w = WallClockStats()
    w.sample(100)
    w.sample(100)  # duplicate sim instant: dropped
    w.sample(200)
    assert [s for s, _ in w.samples] == [100, 200]
    doc = w.as_dict()
    assert doc["samples"] == 2
    assert doc["wall_elapsed_ns"] >= 0


def test_wallclock_by_node_compact_view():
    w = WallClockStats()
    w.observe("net.rtt_ns", 2, 4096)
    view = w.by_node()
    assert view["2"]["net.rtt_ns"]["count"] == 1
    assert view["2"]["net.rtt_ns"]["max"] == 4096


# ---------------------------------------------------------------------------
# Flight recorder ring + dump format
# ---------------------------------------------------------------------------
def test_flight_ring_is_bounded_and_keeps_latest():
    fr = FlightRecorder(0, maxlen=4)
    for i in range(10):
        fr.record("evt", sim_ns=i)
    assert len(fr) == 4
    assert [e["sim_ns"] for e in fr.snapshot()] == [6, 7, 8, 9]
    assert all(e["kind"] == "evt" and e["wall_ns"] > 0
               for e in fr.snapshot())


def test_flight_dump_build_write_validate_roundtrip(tmp_path):
    fr = FlightRecorder(1, maxlen=8)
    fr.record("dsm.fetch", sim_ns=10, gid=7)
    doc = build_dump("test", {"why": "unit"},
                     {1: {"events": fr.snapshot()}},
                     sim_ns=123, backend="sim")
    assert doc["flight"] == FLIGHT_SCHEMA
    assert validate_flight_dump(doc) == []
    path = write_dump(doc, str(tmp_path))
    loaded = json.loads(open(path).read())
    assert loaded == doc
    assert validate_flight_dump(loaded) == []


@pytest.mark.parametrize("breakage", [
    lambda d: d.pop("reason"),
    lambda d: d.__setitem__("sim_ns", "not-an-int"),
    lambda d: d.__setitem__("nodes", []),
    lambda d: d["nodes"]["1"]["events"].append({"kind": "x"}),
])
def test_flight_validate_catches_malformed_documents(breakage):
    fr = FlightRecorder(1, maxlen=8)
    fr.record("evt", sim_ns=1)
    doc = build_dump("test", {}, {1: {"events": fr.snapshot()}},
                     sim_ns=0, backend="sim")
    breakage(doc)
    assert validate_flight_dump(doc) != []


# ---------------------------------------------------------------------------
# Passivity: the knobs observe wall time, they never move sim behavior
# ---------------------------------------------------------------------------
def _run(app="series", **overrides):
    config = RuntimeConfig(num_nodes=3, seed=0, **overrides)
    rewritten = rewrite_application(compile_source(app_source(app)))
    runtime = JavaSplitRuntime(rewritten, config)
    return runtime, runtime.run()


def test_wallclock_knob_does_not_move_deterministic_observables():
    _, plain = _run()
    runtime, observed = _run(obs_wallclock=True, obs_flight_recorder=True)
    assert observed.result == plain.result
    assert observed.simulated_ns == plain.simulated_ns
    assert observed.net.messages == plain.net.messages
    assert observed.net.bytes == plain.net.bytes
    assert observed.net.by_type == plain.net.by_type
    assert sorted(observed.console) == sorted(plain.console)
    # ...and the observation plane actually observed something.
    wall = runtime.obs.wallclock
    assert wall is not None
    assert wall.samples, "expected sim/wall correlation samples"
    assert any(len(fr) for fr in runtime.obs.flight.values())


def test_flight_dump_on_oracle_violation():
    from repro.check.oracle import SingleCopyOracle

    config = RuntimeConfig(num_nodes=3, seed=0, obs_flight_recorder=True)
    rewritten = rewrite_application(compile_source(app_source("series")))
    runtime = JavaSplitRuntime(rewritten, config)
    oracle = SingleCopyOracle.attach(runtime)
    report = runtime.run()
    assert report.flight_dumps == []  # clean run: no dump
    oracle.report(0, "synthetic", "gid 5 mismatch")  # forced violation
    assert len(runtime.obs.flight_dumps) == 1
    doc = json.loads(open(runtime.obs.flight_dumps[0]).read())
    assert validate_flight_dump(doc) == []
    assert doc["reason"] == "violation"
    assert doc["detail"]["kind"] == "synthetic"
    # Dumps are one-shot per run — a violation storm produces one file.
    oracle.report(1, "synthetic", "again")
    assert len(runtime.obs.flight_dumps) == 1


def test_live_stats_lines_render_without_a_network():
    from repro.cli import _live_stats_lines

    runtime, _ = _run(obs_wallclock=True)
    runtime.obs.wallclock.observe("net.rtt_ns", 1, 2048)
    lines = _live_stats_lines(runtime)
    assert any("net.rtt_ns" in ln for ln in lines)
    assert lines[0].startswith("-- live @ sim")


def test_wallclock_trace_lane_validates():
    from repro.obs.spans import validate_chrome_trace

    config = RuntimeConfig(num_nodes=3, seed=0, obs_spans=True,
                           obs_wallclock=True)
    rewritten = rewrite_application(compile_source(app_source("series")))
    runtime = JavaSplitRuntime(rewritten, config)
    runtime.run()
    obs = runtime.obs
    doc = obs.spans.to_chrome_trace(wall_samples=obs.wallclock.samples)
    assert validate_chrome_trace(doc) == []
    lanes = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert lanes and all(e["name"] == "wallclock_ms" for e in lanes)


def test_codec_timings_stay_with_their_runtime():
    """Each proc runtime times its own frames: two runtimes with
    ``obs_wallclock``, both built before either runs, each record as
    many ``wire.encode_ns`` / ``wire.decode_ns`` samples as a run of that
    runtime alone (31 / 31 for series on 3 nodes) — none lost to, or
    taken from, the other."""
    from repro.runtime import build_runtime, config_from

    def build():
        config = config_from({"nodes": 3, "backend": "proc",
                              "wallclock": True})
        return build_runtime(app_source("series"), config)

    def codec_counts(runtime):
        wall = runtime.obs.wallclock
        return (wall.histogram("wire.encode_ns").count,
                wall.histogram("wire.decode_ns").count)

    alone = build()
    alone.run()
    a, b = build(), build()
    a.run()
    b.run()
    assert codec_counts(alone) == (31, 31)
    assert codec_counts(a) == codec_counts(b) == codec_counts(alone)
