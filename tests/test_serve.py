"""Serving subsystem: load generation, the Serve feed, churn scenarios.

The expensive end-to-end scenario runs live here at small scale; the CI
serve-smoke job sweeps more seeds and the proc backend.
"""

import json

import pytest

from repro.lang import compile_source
from repro.serve import (PRESETS, LoadGenerator, PhaseSpec, run_scenario,
                         run_scenario_sweep, validate_serve_doc)
from repro.serve.app import make_source
from repro.serve.loadgen import KEY_SPACE
from repro.serve.manager import LoadFeed
from repro.serve.scenario import Scenario, run_serve_reference
from repro.sim import NS_PER_MS


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

def _gen(seed=0):
    return LoadGenerator(
        (PhaseSpec(duration_ms=2, rate_per_ms=5),
         PhaseSpec(duration_ms=2, rate_per_ms=10,
                   hot_lo=0, hot_hi=4, hot_frac=1.0)),
        sessions=16, seed=seed)


def test_loadgen_is_deterministic_per_seed_and_tenant():
    assert _gen(0).schedule(0) == _gen(0).schedule(0)
    assert _gen(0).schedule(0) != _gen(0).schedule(1)
    assert _gen(0).schedule(0) != _gen(1).schedule(0)


def test_loadgen_respects_phase_bounds_and_hot_set():
    gen = _gen()
    bounds = gen.phase_bounds()
    assert bounds == [(0, 2 * NS_PER_MS), (2 * NS_PER_MS, 4 * NS_PER_MS)]
    sched = gen.schedule(0)
    assert sched == sorted(sched)
    for t, key, phase in sched:
        lo, hi = bounds[phase]
        assert lo <= t < hi
        assert 0 <= key < 16
        if phase == 1:           # hot_frac=1.0: every key from the hot set
            assert key < 4


def test_loadgen_uniform_distribution_is_evenly_spaced():
    gen = LoadGenerator(
        (PhaseSpec(duration_ms=1, rate_per_ms=4, dist="uniform"),),
        sessions=8, seed=0)
    times = [t for t, _, _ in gen.schedule(0)]
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert len(gaps) == 1


def test_loadgen_rejects_bad_specs():
    with pytest.raises(ValueError):
        LoadGenerator((), sessions=8)
    with pytest.raises(ValueError):
        LoadGenerator((PhaseSpec(duration_ms=1, rate_per_ms=1),),
                      sessions=KEY_SPACE + 1)
    with pytest.raises(ValueError):
        LoadGenerator((PhaseSpec(duration_ms=1, rate_per_ms=1,
                                 hot_lo=4, hot_hi=2, hot_frac=0.5),),
                      sessions=8)


# ---------------------------------------------------------------------------
# LoadFeed (unit level, no cluster)
# ---------------------------------------------------------------------------

class _FakeEngine:
    def __init__(self):
        self.now = 0
        self.timers = []

    def schedule_at(self, at_ns, callback):
        self.timers.append((at_ns, callback))

    def fire_due(self, now):
        self.now = now
        due = [cb for t, cb in self.timers if t <= now]
        self.timers = [(t, cb) for t, cb in self.timers if t > now]
        for cb in due:
            cb()


class _FakeThread:
    def __init__(self):
        from repro.sim.node import StreamState
        self.state = StreamState.BLOCKED
        self.completions = []

    def complete(self, value):
        self.completions.append(value)


def test_feed_delivers_due_requests_and_encodes_seq_key():
    engine = _FakeEngine()
    feed = LoadFeed(engine, [[(100, 7, 0), (200, 3, 0)]])
    engine.now = 150
    value = feed.next(_FakeThread(), 0)
    assert value == 1 * KEY_SPACE + 7       # seq 0, key 7
    assert feed.delivered == 1


def test_feed_blocks_until_timer_then_completes_waiter():
    from repro.jvm.interpreter import BLOCK

    engine = _FakeEngine()
    feed = LoadFeed(engine, [[(100, 5, 0)]])
    waiter = _FakeThread()
    assert feed.next(waiter, 0) is BLOCK
    assert engine.timers and engine.timers[0][0] == 100
    engine.fire_due(100)
    assert waiter.completions == [1 * KEY_SPACE + 5]


def test_feed_returns_minus_one_when_exhausted():
    engine = _FakeEngine()
    feed = LoadFeed(engine, [[(100, 5, 0)]])
    engine.now = 100
    feed.next(_FakeThread(), 0)
    assert feed.next(_FakeThread(), 0) == -1


def test_feed_skips_dead_waiters_without_consuming_arrivals():
    engine = _FakeEngine()
    feed = LoadFeed(engine, [[(100, 5, 0)]],
                    thread_ok=lambda t: not getattr(t, "dead", False))
    dead, live = _FakeThread(), _FakeThread()
    dead.dead = True
    assert feed.next(dead, 0) is not None   # parks (returns BLOCK)
    engine.fire_due(100)
    assert dead.completions == []
    assert feed.delivered == 0              # arrival NOT consumed
    engine.now = 100
    assert feed.next(live, 0) == 1 * KEY_SPACE + 5


def test_feed_done_records_latency_once_per_seq():
    done = []
    engine = _FakeEngine()

    class _T(_FakeThread):
        class jvm:
            class node:
                node_id = 2

    feed = LoadFeed(engine, [[(100, 5, 0)]],
                    on_done=lambda *a: done.append(a))
    engine.now = 150
    feed.next(_T(), 0)
    engine.now = 400
    feed.done(_T(), 0, 0)
    feed.done(_T(), 0, 0)                   # replay after a kill-restart
    assert done == [(0, 0, 0, 300, 2)]      # latency 400-100, node 2
    assert feed.completed == 1
    assert feed.duplicate_done == 1


# ---------------------------------------------------------------------------
# End-to-end scenarios (sim backend; proc is covered by CI serve-smoke)
# ---------------------------------------------------------------------------

SMALL = Scenario(
    name="small",
    description="test-scale steady scenario",
    nodes=2, brands=("sun",),
    tenants=1, workers=2, sessions=16, stripes=2, work_scale=4,
    phases=(PhaseSpec(duration_ms=2, rate_per_ms=4),),
)


def test_small_scenario_oracle_clean_and_matches_reference():
    doc = run_scenario(SMALL, seed=0, backend="sim")
    assert doc["ok"], doc
    assert doc["result"]["matches"]
    assert doc["oracle"]["violations"] == []
    assert doc["requests"]["completed"] == doc["requests"]["injected"]
    assert validate_serve_doc(doc) == []


def test_small_scenario_slo_sections_are_consistent():
    doc = run_scenario(SMALL, seed=1, backend="sim")
    slo = doc["slo"]
    assert len(slo["phases"]) == 1
    phase, overall = slo["phases"][0], slo["overall"]
    assert phase["completed"] == overall["completed"] \
        == doc["requests"]["completed"]
    lat = overall["latency_ms"]
    assert lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]
    assert overall["throughput_rps"] > 0


def test_slo_reads_one_series_and_reports_what_the_whole_export_gave():
    """``build_slo`` reads each completion series on its own
    (``MetricsRegistry.series``), never the whole registry export; its
    document is byte for byte the one computed from that export."""
    from repro.obs import MetricsRegistry
    from repro.serve import build_slo

    clock = [0]
    metrics = MetricsRegistry(lambda: clock[0], bucket_ns=250_000)
    # (sim ns, node, phase, latency ns); phase 2 completes nothing.
    for t, node, phase, latency in [
            (40_000, 0, 0, 900_000), (260_000, 1, 0, 1_300_000),
            (2_900_000, 1, 0, 250_000), (3_100_000, 0, 1, 4_000_000),
            (3_100_500, 1, 1, 70_000), (6_999_999, 0, 1, 123_456)]:
        clock[0] = t
        for suffix in (f".p{phase}", ""):
            metrics.inc(f"serve.completed{suffix}", node)
            metrics.observe(f"serve.latency_ns{suffix}", node, latency)
    bounds = [(0, 3_000_000), (3_000_000, 7_000_000), (7_000_000, 9_000_000)]
    injected = {0: 4, 1: 3, 2: 2}
    export = metrics.as_dict()

    def from_export(name):  # the parent's read: int() of the JSON keys
        return {t: export["series"][name][str(t)] for t in sorted(
            int(t) for t in export["series"].get(name, {}))}

    metrics.as_dict = None  # build_slo must not call it
    new = build_slo(metrics, bounds, injected)
    metrics.series = from_export
    old = build_slo(metrics, bounds, injected)
    assert json.dumps(new) == json.dumps(old)
    assert [p["completed"] for p in new["phases"]] == [3, 3, 0]
    assert new["phases"][0]["active_ms"] == 3.0 and \
        new["phases"][2]["active_ms"] == 0.0


def test_reference_runner_consumes_full_schedule():
    gen = LoadGenerator((PhaseSpec(duration_ms=2, rate_per_ms=4),),
                        sessions=16, seed=0)
    schedules = gen.schedules(1)
    classfiles = compile_source(make_source(
        tenants=1, workers=2, sessions=16, stripes=2, work_scale=4))
    thread = run_serve_reference(classfiles, schedules)
    assert thread.result is not None and thread.result > 0


def test_churn_preset_oracle_clean_on_sim():
    """The acceptance scenario: mixed brands, mid-run join, random kill,
    two tenants — must complete oracle-clean (exact result optional
    under the kill, same contract as tsp)."""
    doc = run_scenario(PRESETS["churn"], seed=0, backend="sim")
    assert doc["ok"], doc
    assert doc["cluster"]["brands"] == ["sun", "ibm", "sun"]
    assert doc["cluster"]["joins"] == [{"at_ms": 6.0, "brand": "ibm"}]
    assert doc["faults"]["killed"], "the kill never happened"
    assert validate_serve_doc(doc) == []


@pytest.mark.parametrize("seed", (2, 5, 7))
def test_hotset_preset_seeds_that_used_to_break(seed):
    """Full locality x policy under phase-shifted load.  Seeds 2 and 7
    never finished (a stale fetch reply demoted a freshly granted
    master, then diffs bounced for ever); seed 5 finished 104 short of
    the reference with no violation (a grant installed without the
    grantee's own in-flight flush).  The result must match exactly."""
    doc = run_scenario(PRESETS["hotset"], seed=seed, backend="sim")
    assert doc["ok"], doc
    assert doc["result"]["matches"] and doc["result"]["required"]
    assert doc["oracle"]["violations"] == []


def test_scenario_sweep_document_shape():
    doc = run_scenario_sweep(SMALL, seeds=2, backend="sim")
    assert doc["ok"] and doc["failed_seeds"] == []
    assert [r["seed"] for r in doc["seeds"]] == [0, 1]
    assert validate_serve_doc(doc) == []
    # Sweeps are JSON-serializable end to end (CI writes them to disk).
    json.dumps(doc)


def test_validate_serve_doc_catches_damage():
    doc = run_scenario(SMALL, seed=0, backend="sim")
    assert validate_serve_doc(doc) == []
    del doc["slo"]["overall"]["latency_ms"]
    assert validate_serve_doc(doc)
    assert validate_serve_doc([]) == ["document is not an object"]
