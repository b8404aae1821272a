"""Tests for the §4.3 extension: array-region coherency units.

"Although currently we treat each array as a single coherency unit, in
the future we plan to divide big arrays into several coherency units."
``DsmConfig(array_region_elems=N)`` turns the plan on.
"""

import pytest

from repro.dsm import DsmConfig
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig, run_original

BLOCK_SUM = """
class Work {
    int[] data;
    int lo;
    int hi;
    int result;
    Work(int[] d, int lo, int hi) { data = d; this.lo = lo; this.hi = hi; }
}
class Summer extends Thread {
    Work w;
    Summer(Work w) { this.w = w; }
    void run() {
        int s = 0;
        for (int i = w.lo; i < w.hi; i++) { s += w.data[i]; }
        w.result = s;
    }
}
class Main {
    static int main() {
        int n = 256;
        int[] data = new int[n];
        for (int i = 0; i < n; i++) { data[i] = i; }
        int k = 4;
        Summer[] ts = new Summer[k];
        for (int i = 0; i < k; i++) {
            ts[i] = new Summer(new Work(data, i * n / k, (i + 1) * n / k));
            ts[i].start();
        }
        int total = 0;
        for (int i = 0; i < k; i++) { ts[i].join(); total += ts[i].w.result; }
        return total;
    }
}
"""

BLOCK_WRITE = """
class Filler extends Thread {
    int[] data;
    int lo;
    int hi;
    Filler(int[] d, int lo, int hi) { data = d; this.lo = lo; this.hi = hi; }
    void run() {
        for (int i = lo; i < hi; i++) { data[i] = i * 2; }
    }
}
class Main {
    static int main() {
        int n = 200;
        int[] data = new int[n];
        int k = 4;
        Filler[] ts = new Filler[k];
        for (int i = 0; i < k; i++) {
            ts[i] = new Filler(data, i * n / k, (i + 1) * n / k);
            ts[i].start();
        }
        for (int i = 0; i < k; i++) { ts[i].join(); }
        int s = 0;
        for (int i = 0; i < n; i++) { s += data[i]; }
        return s;
    }
}
"""


def run_with_regions(src, nodes=4, region_elems=32):
    cfg = RuntimeConfig(
        num_nodes=nodes,
        dsm=DsmConfig(array_region_elems=region_elems),
    )
    return JavaSplitRuntime(
        rewrite_application(compile_source(src)), cfg
    ).run()


def test_region_reads_correct():
    base = run_original(source=BLOCK_SUM)
    rep = run_with_regions(BLOCK_SUM)
    assert rep.result == base.result == sum(range(256))
    assert rep.total_dsm().region_fetches > 0


def test_region_multiple_writers_merge():
    """Four threads write disjoint regions of one array: every write
    must survive the region-granular multiple-writer merge."""
    base = run_original(source=BLOCK_WRITE)
    rep = run_with_regions(BLOCK_WRITE)
    assert rep.result == base.result == sum(i * 2 for i in range(200))


@pytest.mark.parametrize("region_elems", [8, 32, 64, 1000])
def test_region_size_never_changes_result(region_elems):
    rep = run_with_regions(BLOCK_SUM, nodes=3, region_elems=region_elems)
    assert rep.result == sum(range(256))


def test_region_mode_fetches_less_data():
    """Block-partitioned readers fetch only their regions: bytes on the
    wire drop versus the whole-array coherency unit."""
    rewritten = rewrite_application(compile_source(BLOCK_SUM))
    whole = JavaSplitRuntime(
        rewritten, RuntimeConfig(num_nodes=4)
    ).run()
    rewritten2 = rewrite_application(compile_source(BLOCK_SUM))
    regioned = JavaSplitRuntime(
        rewritten2,
        RuntimeConfig(num_nodes=4, dsm=DsmConfig(array_region_elems=64)),
    ).run()
    assert regioned.result == whole.result
    assert regioned.total_dsm().fetch_bytes < whole.total_dsm().fetch_bytes


def test_small_arrays_stay_single_unit():
    src = """
    class T extends Thread {
        int[] a;
        T(int[] a) { this.a = a; }
        void run() { a[0] = 7; }
    }
    class Main {
        static int main() {
            int[] a = new int[4];   // below the region threshold
            T t = new T(a);
            t.start();
            t.join();
            return a[0];
        }
    }
    """
    rep = run_with_regions(src, nodes=2, region_elems=32)
    assert rep.result == 7
    assert rep.total_dsm().region_fetches == 0


def test_arraylength_on_remote_regioned_array():
    src = """
    class T extends Thread {
        int[] a;
        int len;
        T(int[] a) { this.a = a; }
        void run() { len = a.length; }
    }
    class Main {
        static int main() {
            int[] a = new int[100];
            T t = new T(a);
            t.start();
            t.join();
            return t.len;
        }
    }
    """
    rep = run_with_regions(src, nodes=2, region_elems=16)
    assert rep.result == 100


def test_regions_with_synchronized_counter_array():
    """Contended writes through a lock still coherent region-wise."""
    src = """
    class Lock { int unused; }
    class Incr extends Thread {
        int[] slots;
        Lock lock;
        int idx;
        Incr(int[] s, Lock l, int idx) { slots = s; lock = l; this.idx = idx; }
        void run() {
            for (int i = 0; i < 30; i++) {
                synchronized (lock) { slots[idx] += 1; }
            }
        }
    }
    class Main {
        static int main() {
            int[] slots = new int[64];
            Lock lock = new Lock();
            Incr[] ts = new Incr[4];
            for (int i = 0; i < 4; i++) {
                ts[i] = new Incr(slots, lock, i * 16);
                ts[i].start();
            }
            for (int i = 0; i < 4; i++) { ts[i].join(); }
            int s = 0;
            for (int i = 0; i < 64; i++) { s += slots[i]; }
            return s;
        }
    }
    """
    rep = run_with_regions(src, nodes=4, region_elems=16)
    assert rep.result == 120


def test_regions_compose_with_vector_mode():
    cfg = RuntimeConfig(
        num_nodes=3,
        dsm=DsmConfig(timestamp_mode="vector", array_region_elems=32),
    )
    rep = JavaSplitRuntime(
        rewrite_application(compile_source(BLOCK_WRITE)), cfg
    ).run()
    assert rep.result == sum(i * 2 for i in range(200))


# Region mode composed with every service that ships coherency units:
# each must stay oracle- and monitor-clean and agree with the same sweep
# run with whole-array units.
@pytest.mark.parametrize("options", [
    dict(kill="random"),
    dict(locality="all"),
    dict(policy="all"),
    dict(backend="proc"),
    dict(jit=True),
    dict(kill="random", locality="all", policy="all", jit=True),
], ids=["kill", "locality", "policy", "proc", "jit", "all-sim"])
def test_regions_compose_with_unit_shipping_services(options):
    from repro.check.runner import run_check

    whole = run_check(app="tsp", seeds=1, **options)
    split = run_check(app="tsp", seeds=2, region_elems=4, **options)
    for report in (whole, split):
        assert report.ok, report.summary()
        assert not any(r.violations for r in report.results)
    assert split.results[0].result_matches == whole.results[0].result_matches
    assert split.results[0].installs_checked > \
        whole.results[0].installs_checked  # the regions were live
