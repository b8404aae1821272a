"""Race-detection subsystem: vector-clock algebra, FastTrack/lockset
analysis end-to-end on deliberately-racy examples, false-positive
sweeps over the clean apps, knobs-off byte-identity, promotion
migration, composition with fault tolerance + locality, and the
`repro race` report plumbing."""

import json
from pathlib import Path

import pytest

from repro.check import run_check, run_race_check
from repro.lang import compile_source
from repro.race import ThreadClock, concurrent
from repro.race.examples import RACY_ARRAY_SOURCE, RACY_COUNTER_SOURCE
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

# Properly synchronized counter: every access to c.v happens under the
# same monitor, so neither engine may report anything.
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


# ---------------------------------------------------------------------------
# Vector-clock algebra
# ---------------------------------------------------------------------------
def test_thread_clock_starts_at_one():
    clk = ThreadClock(3)
    assert clk.clock == 1
    assert clk.vc == {3: 1}


def test_snapshot_identity_is_per_interval():
    clk = ThreadClock(1)
    s1 = clk.snapshot()
    assert clk.snapshot() is s1          # no sync op -> same object
    clk.tick()
    s2 = clk.snapshot()
    assert s2 is not s1                  # tick copied before mutating
    assert s1 == {1: 1} and s2 == {1: 2}  # old snapshot untouched


def test_join_is_pointwise_max_and_copy_on_write():
    clk = ThreadClock(1)
    frozen = clk.snapshot()
    clk.join({2: 5, 1: 0})
    assert clk.vc == {1: 1, 2: 5}
    assert frozen == {1: 1}              # frozen snapshot not mutated
    clk.join({2: 3})                     # stale component: no-op
    assert clk.vc[2] == 5


def test_concurrent_is_symmetric():
    a = ThreadClock(1)
    b = ThreadClock(2)
    a_snap, b_snap = a.snapshot(), b.snapshot()
    # Neither has heard of the other: concurrent both ways.
    assert concurrent(1, 1, a_snap, 2, 1, b_snap)
    assert concurrent(2, 1, b_snap, 1, 1, a_snap)
    # Release/acquire edge a -> b orders them both ways.
    a.tick()
    b.join(a_snap)
    b2 = b.snapshot()
    assert not concurrent(1, 1, a_snap, 2, 1, b2)
    assert not concurrent(2, 1, b2, 1, 1, a_snap)


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------
def test_race_knobs_off_attaches_nothing():
    rt = _runtime(SYNC_COUNTER_SRC)
    assert rt.race is None
    report = rt.run()
    assert report.result == 16
    assert report.race is None


def test_race_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(num_nodes=2, race_detect=True,
                      race_mode="warp").validate()


def test_knobs_off_is_byte_identical():
    base = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000).run()
    off = _runtime(SYNC_COUNTER_SRC, net_jitter_ns=40_000,
                   race_detect=False).run()
    assert off.result == base.result
    assert off.net.messages == base.net.messages
    assert off.net.bytes == base.net.bytes
    assert off.simulated_ns == base.simulated_ns


# ---------------------------------------------------------------------------
# Clean programs stay clean (both engines, with piggybacked clocks on)
# ---------------------------------------------------------------------------
def test_synchronized_counter_is_race_free():
    rt = _runtime(SYNC_COUNTER_SRC, race_detect=True, net_jitter_ns=60_000)
    report = rt.run()
    assert report.result == 16
    assert report.race is not None
    assert report.race["races"] == 0
    assert report.race["suppressed"] == 0
    assert report.race["events_observed"] > 0


@pytest.mark.parametrize("app", ["series", "tsp", "raytracer"])
def test_apps_sweep_race_free(app):
    rep = run_check(app=app, seeds=3, nodes=3, race=True)
    assert rep.ok, rep.summary()
    for sr in rep.results:
        assert sr.race is not None and sr.race["races"] == 0


def test_tsp_benign_race_caught_without_suppression():
    # MinTour.best is read without the lock by design (a benign bound
    # race, like SPLASH-2's); with no suppress pattern the detector
    # must catch it — proof the suppression is hiding a real finding,
    # not papering over a detector hole.
    from repro.check.runner import app_source
    rep = run_race_check(app_source("tsp"), name="tsp", seeds=1,
                         nodes=3, expect="race")
    assert rep.ok, rep.summary()
    assert all("MinTour.best" == r["variable"]
               for sr in rep.results for r in sr.reports)


# ---------------------------------------------------------------------------
# Racy examples: golden first-race assertions across seeds
# ---------------------------------------------------------------------------
def test_racy_counter_reports_on_every_seed():
    rep = run_race_check(RACY_COUNTER_SOURCE, name="racy_counter",
                         seeds=8, expect="race")
    assert rep.ok, rep.summary()
    for sr in rep.results:
        assert sr.error is None and sr.races >= 1
        # Golden race: the unsynchronized read-modify-write in
        # CounterWorker.run line 20 must show up as an hb write/write
        # pair on Counter.count with both worker sites resolved.
        golden = [
            r for r in sr.reports
            if r["variable"] == "Counter.count" and r["engine"] == "hb"
            and all(s["kind"] == "write"
                    and s["class"] == "CounterWorker"
                    and s["method"] == "run" and s["line"] == 20
                    for s in r["sites"])
        ]
        assert golden, sr.reports
        # Conflicting sites come from different threads (and the report
        # carries node + simulated-time provenance for both).
        a, b = golden[0]["sites"]
        assert a["thread"] != b["thread"]
        assert a["time_ns"] <= b["time_ns"]


def test_racy_array_reports_on_every_seed():
    rep = run_race_check(RACY_ARRAY_SOURCE, name="racy_array",
                         seeds=8, expect="race")
    assert rep.ok, rep.summary()
    for sr in rep.results:
        assert sr.races >= 1
        # The overlapping rows [6, 10) race on the shared int[] unit;
        # every report names the array class and a RowWorker.run site.
        assert all(r["variable"].startswith("int[") for r in sr.reports)
        assert any(
            all(s["class"] == "RowWorker" and s["method"] == "run"
                for s in r["sites"])
            for r in sr.reports)


def test_example_files_match_sources():
    # The on-disk examples are the single source of truth for docs and
    # CI; keep them byte-identical to the library constants.
    assert (EXAMPLES_DIR / "racy_counter.mj").read_text() == \
        RACY_COUNTER_SOURCE
    assert (EXAMPLES_DIR / "racy_array.mj").read_text() == RACY_ARRAY_SOURCE


def test_lockset_mode_alone_catches_racy_counter():
    rep = run_race_check(RACY_COUNTER_SOURCE, name="racy_counter",
                         seeds=2, mode="lockset", expect="race")
    assert rep.ok, rep.summary()
    assert all(r["engine"] == "lockset"
               for sr in rep.results for r in sr.reports)


def test_hb_mode_alone_catches_racy_counter():
    rep = run_race_check(RACY_COUNTER_SOURCE, name="racy_counter",
                         seeds=2, mode="hb", expect="race")
    assert rep.ok, rep.summary()
    assert all(r["engine"] == "hb"
               for sr in rep.results for r in sr.reports)


def test_suppression_and_expect_free():
    # Suppressing both racy variables turns the sweep race-free.
    rep = run_race_check(RACY_COUNTER_SOURCE, name="racy_counter",
                         seeds=2, expect="free",
                         suppress=("Counter.count",))
    assert rep.ok, rep.summary()
    assert all(sr.races == 0 and sr.suppressed >= 1 for sr in rep.results)


def test_max_reports_cap(monkeypatch):
    monkeypatch.setattr("repro.race.detector.MAX_REPORTS", 1)
    rt = _runtime(RACY_COUNTER_SOURCE, race_detect=True,
                  net_jitter_ns=60_000)
    report = rt.run()
    assert report.race["races"] == 1
    assert report.race["reports_dropped"] >= 1


# ---------------------------------------------------------------------------
# Detector internals observable end-to-end
# ---------------------------------------------------------------------------
def test_epoch_promotion_counters():
    # racy_counter forces both promotions: reads of count from two
    # concurrent threads (read promotion) and out-of-HB-order write
    # events at the home (write promotion).
    rt = _runtime(RACY_COUNTER_SOURCE, race_detect=True,
                  net_jitter_ns=60_000)
    report = rt.run()
    assert report.race["read_promotions"] >= 1
    assert report.race["write_promotions"] >= 1


def test_events_ship_by_piggyback_and_sync():
    rt = _runtime(RACY_COUNTER_SOURCE, race_detect=True,
                  net_jitter_ns=60_000)
    report = rt.run()
    race = report.race
    assert race["events_observed"] > 0
    # Remote events ride existing diffs when possible; anything left
    # goes out on race.sync at end-of-interval or is drained at exit.
    moved = (race["events_piggybacked"] + race["events_shipped"]
             + race["events_drained"])
    assert moved > 0
    assert race["events_piggybacked"] > 0  # diffs flow home anyway


def test_tracer_sees_race_events():
    rt = _runtime(RACY_COUNTER_SOURCE, race_detect=True,
                  net_jitter_ns=60_000)
    tracer = DsmTracer.attach(rt)
    rt.run()
    kinds = tracer.counts()
    assert any(k.startswith("race.") for k in kinds), kinds


def test_report_dict_shape():
    rt = _runtime(RACY_COUNTER_SOURCE, race_detect=True,
                  net_jitter_ns=60_000)
    report = rt.run()
    r = report.race["reports"][0]
    assert set(r) >= {"variable", "engine", "sites", "detected_ns",
                      "suppressed"}
    for side in r["sites"]:
        assert set(side) >= {"kind", "class", "method", "pc", "line",
                             "node", "thread", "time_ns"}
    assert json.dumps(report.race)  # JSON-serializable end to end


# ---------------------------------------------------------------------------
# Composition: race + fault tolerance + locality on one runtime
# ---------------------------------------------------------------------------
def test_race_composes_with_kill_and_locality():
    rep = run_check(app="series", seeds=1, nodes=4, kill="random",
                    locality="all", race=True)
    assert rep.ok, rep.summary()
    sr = rep.results[0]
    assert sr.race is not None
    assert sr.race["races"] == 0
    # Recovery wiped the metadata: degraded, but never inventing races.
    assert sr.race["degraded"] is True


def test_run_race_check_rejects_bad_args():
    with pytest.raises(ValueError):
        run_race_check(RACY_COUNTER_SOURCE, seeds=0)
    with pytest.raises(ValueError):
        run_race_check(RACY_COUNTER_SOURCE, expect="maybe")
