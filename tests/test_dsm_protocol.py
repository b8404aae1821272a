"""DSM protocol behaviour tests: notice propagation, invalidation,
fences, the HLRC baseline (vector mode), and failure injection."""

import dataclasses
import pathlib
import re

import pytest

import repro.dsm
from repro.dsm import (HLRC_BASELINE, DsmConfig, DsmEngine, ObjState,
                       engine_class)
from repro.dsm.hlrc import HlrcEngine
from repro.runtime import RuntimeConfig, run_distributed, run_original
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.javasplit import JavaSplitRuntime
from repro.sim import NS_PER_MS


# ---------------------------------------------------------------------------
# Regression: per-receiver notice deltas + replica-version invalidation.
#
# Two protocol bugs once lost updates in exactly this shape of workload
# (branch-and-bound TSP): (1) a lock token kept ONE shared seen-notices
# snapshot, so a node the token had skipped got an empty delta on the
# token's next visit; (2) invalidation was filtered on notice-table
# advancement, but a writer's own diff-ack advances its table without
# refreshing its replica, suppressing the invalidation.  Both manifest
# only with >= 2 locks, >= 3 nodes and token round trips.
# ---------------------------------------------------------------------------
TWO_LOCK_MONOTONIC = """
class Best { int v; Best(int v) { this.v = v; } }
class Ticket { int next; }
class W extends Thread {
    Best best;
    Ticket q;
    W(Best b, Ticket q) { best = b; this.q = q; }
    void run() {
        while (true) {
            int t;
            synchronized (q) { t = q.next; q.next += 1; }
            if (t >= 120) { break; }
            // Candidate value decreases over ticket numbers; stale reads
            // of best.v are safe (monotonic), lost WRITES are not.
            int candidate = 2000 - t * 3;
            if (candidate < best.v) {
                synchronized (best) {
                    if (candidate < best.v) { best.v = candidate; }
                }
            }
        }
    }
}
class Main {
    static int main() {
        Best best = new Best(1000000);
        Ticket q = new Ticket();
        int k = 12;
        W[] ts = new W[k];
        for (int i = 0; i < k; i++) { ts[i] = new W(best, q); ts[i].start(); }
        for (int i = 0; i < k; i++) { ts[i].join(); }
        return best.v;
    }
}
"""


def test_monotonic_minimum_never_regresses_regression():
    expected = 2000 - 119 * 3
    for nodes in (3, 6):
        report = run_distributed(
            source=TWO_LOCK_MONOTONIC,
            config=RuntimeConfig(num_nodes=nodes, time_dilation=50),
        )
        assert report.result == expected, f"nodes={nodes}: lost update"


def test_tsp_correct_on_eight_nodes_regression():
    """The original failing configuration, kept as a regression gate."""
    from repro.apps import tsp

    src = tsp.make_source(n_cities=7, n_threads=16)
    base = run_original(source=src)
    report = run_distributed(
        source=src, config=RuntimeConfig(num_nodes=8, time_dilation=1500)
    )
    assert report.result == base.result


# ---------------------------------------------------------------------------
# Vector-timestamp (HLRC baseline) mode
# ---------------------------------------------------------------------------
COUNTER = """
class Cell { int v; }
class Incr extends Thread {
    Cell c;
    Incr(Cell c) { this.c = c; }
    void run() {
        for (int i = 0; i < 40; i++) { synchronized (c) { c.v += 1; } }
    }
}
class Main {
    static int main() {
        Cell c = new Cell();
        Incr[] ts = new Incr[6];
        for (int i = 0; i < 6; i++) { ts[i] = new Incr(c); ts[i].start(); }
        for (int i = 0; i < 6; i++) { ts[i].join(); }
        return c.v;
    }
}
"""


def test_vector_mode_counter_correct():
    report = run_distributed(
        source=COUNTER,
        config=RuntimeConfig(num_nodes=3, dsm=HLRC_BASELINE),
    )
    assert report.result == 240


def test_vector_mode_never_fences():
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(COUNTER)),
        RuntimeConfig(num_nodes=3, dsm=HLRC_BASELINE),
    )
    report = rt.run()
    assert report.result == 240
    assert report.total_dsm().fence_waits == 0


def test_unknown_timestamp_mode_is_rejected():
    """A misspelt mode once ran scalar MTS-HLRC while the composition
    guard treated it as the baseline: it must not run at all."""
    with pytest.raises(ValueError, match="'scalar' or 'vector'"):
        RuntimeConfig(dsm=DsmConfig(timestamp_mode="Vector")).validate()
    with pytest.raises(ValueError, match="'hlrc'"):
        engine_class("hlrc")
    assert engine_class("scalar") is DsmEngine
    assert engine_class("vector") is HlrcEngine


def test_engine_and_notice_table_are_the_paper_protocol_only():
    """The HLRC baseline lives in dsm/hlrc.py: the engine and the notice
    table name none of its modes or state."""
    dsm = pathlib.Path(repro.dsm.__file__).parent
    for name in ("protocol.py", "write_notices.py"):
        text = (dsm / name).read_text()
        assert "vector" not in text.lower(), name
        assert not re.findall(
            r"\b(_applied|_replica_vc|_deferred_fetch)\b", text), name
    assert not (dsm / "timestamps.py").exists()
    assert [f.name for f in dataclasses.fields(DsmConfig)] == [
        "timestamp_mode", "local_lock_opt", "array_region_elems"]


def test_scalar_mode_fences_under_contention():
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(COUNTER)),
        RuntimeConfig(num_nodes=3),
    )
    report = rt.run()
    assert report.result == 240
    assert report.total_dsm().fence_waits > 0


# ---------------------------------------------------------------------------
# Failure injection: network jitter (reordering under the transport)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counter_correct_under_network_jitter(seed):
    report = run_distributed(
        source=COUNTER,
        config=RuntimeConfig(
            num_nodes=4, net_jitter_ns=3 * NS_PER_MS, seed=seed
        ),
    )
    assert report.result == 240


def test_tsp_correct_under_jitter():
    from repro.apps import tsp

    src = tsp.make_source(n_cities=7, n_threads=6)
    base = run_original(source=src)
    report = run_distributed(
        source=src,
        config=RuntimeConfig(num_nodes=3, net_jitter_ns=2 * NS_PER_MS, seed=9),
    )
    assert report.result == base.result


# ---------------------------------------------------------------------------
# Header / replica state introspection
# ---------------------------------------------------------------------------
def test_replicas_invalidate_and_refetch():
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(COUNTER)),
        RuntimeConfig(num_nodes=3),
    )
    report = rt.run()
    total = report.total_dsm()
    assert total.invalidations > 0
    assert total.fetches > total.invalidations * 0.3
    # The cell's master lives at its home with a consistent final value.
    for w in rt.workers:
        for gid, obj in w.dsm.cache.items():
            if obj.class_name == "javasplit.Cell":
                if obj.header.state == ObjState.HOME:
                    assert obj.fields[w.jvm.field_index("javasplit.Cell", "v")] == 240


def test_local_objects_stay_out_of_dsm():
    src = """
    class Scratch { int x; }
    class Main {
        static int main() {
            int acc = 0;
            for (int i = 0; i < 50; i++) {
                Scratch s = new Scratch();
                s.x = i;
                acc += s.x;
            }
            return acc;
        }
    }
    """
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(src)),
        RuntimeConfig(num_nodes=2),
    )
    report = rt.run()
    assert report.result == sum(range(50))
    total = report.total_dsm()
    # Local objects are never promoted: no fetches, no diffs about them.
    assert total.fetches == 0
    assert total.promotions == 0


def test_promotion_happens_on_thread_spawn():
    src = """
    class Box { int v; }
    class T extends Thread {
        Box b;
        T(Box b) { this.b = b; }
        void run() { b.v = 7; }
    }
    class Main {
        static int main() {
            Box b = new Box();
            T t = new T(b);
            t.start();
            t.join();
            return b.v;
        }
    }
    """
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(src)),
        RuntimeConfig(num_nodes=2),
    )
    report = rt.run()
    assert report.result == 7
    assert report.total_dsm().promotions >= 2  # the Thread obj + the Box
