"""End-to-end distributed execution tests.

The gold standard throughout: a rewritten program on N simulated nodes
must produce exactly the result of the original program on one JVM.
"""

import pytest

from repro.runtime import (
    DeadlockError,
    RuntimeConfig,
    run_distributed,
    run_original,
)


def both(source, nodes=2, **kw):
    """Run original and distributed; assert identical results."""
    base = run_original(source=source)
    dist = run_distributed(source=source, num_nodes=nodes, **kw)
    assert dist.result == base.result, (
        f"distributed={dist.result} original={base.result}"
    )
    return base, dist


# ---------------------------------------------------------------------------
# Single node first (rewritten code, no remote traffic)
# ---------------------------------------------------------------------------
def test_sequential_program_single_node():
    src = """
    class Main {
        static int main() {
            int acc = 0;
            for (int i = 0; i < 100; i++) { acc += i * i; }
            return acc;
        }
    }
    """
    both(src, nodes=1)


def test_objects_and_arrays_single_node():
    src = """
    class Box { int v; Box(int v) { this.v = v; } }
    class Main {
        static int main() {
            Box[] boxes = new Box[10];
            for (int i = 0; i < 10; i++) { boxes[i] = new Box(i); }
            int s = 0;
            for (int i = 0; i < 10; i++) { s += boxes[i].v; }
            return s;
        }
    }
    """
    both(src, nodes=1)


def test_statics_single_node():
    src = """
    class Cfg { static int scale = 3; }
    class Main {
        static int main() {
            Cfg.scale = Cfg.scale + 1;
            return Cfg.scale * 10;
        }
    }
    """
    both(src, nodes=1)


def test_console_output_single_node():
    src = """
    class Main {
        static int main() {
            Sys.print("hello " + 1);
            Sys.print("world " + 2.5);
            return 0;
        }
    }
    """
    base, dist = both(src, nodes=1)
    assert dist.console == base.console == ["hello 1", "world 2.5"]


# ---------------------------------------------------------------------------
# Multi-node: threads actually ship across the simulated cluster
# ---------------------------------------------------------------------------
SUMMER = """
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
        int n = 400;
        int[] data = new int[n];
        for (int i = 0; i < n; i++) { data[i] = i; }
        int k = 4;
        Summer[] ts = new Summer[k];
        for (int i = 0; i < k; i++) {
            ts[i] = new Summer(new Work(data, i * n / k, (i + 1) * n / k));
            ts[i].start();
        }
        int total = 0;
        for (int i = 0; i < k; i++) {
            ts[i].join();
            total += ts[i].w.result;
        }
        return total;
    }
}
"""


def test_fork_join_sum_across_nodes():
    base, dist = both(SUMMER, nodes=4)
    assert dist.result == sum(range(400))
    # Threads really spread out: the least-loaded scheduler should use
    # more than one node for 4 workers.
    assert len(dist.placements) > 1


def test_fork_join_sum_single_vs_many_nodes_same_result():
    for nodes in (1, 2, 3, 8):
        dist = run_distributed(source=SUMMER, num_nodes=nodes)
        assert dist.result == sum(range(400)), f"nodes={nodes}"


def test_remote_threads_fetch_objects_lazily():
    dist = run_distributed(source=SUMMER, num_nodes=4)
    total = dist.total_dsm()
    assert total.fetches > 0
    assert total.promotions > 0
    assert dist.net.messages > 0


SHARED_COUNTER = """
class Counter { int v; }
class Incr extends Thread {
    Counter c;
    int n;
    Incr(Counter c, int n) { this.c = c; this.n = n; }
    void run() {
        for (int i = 0; i < n; i++) {
            synchronized (c) { c.v += 1; }
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        int k = 4;
        Incr[] ts = new Incr[k];
        for (int i = 0; i < k; i++) { ts[i] = new Incr(c, 50); ts[i].start(); }
        for (int i = 0; i < k; i++) { ts[i].join(); }
        return c.v;
    }
}
"""


def test_distributed_mutual_exclusion():
    """The canonical DSM test: a contended counter must not lose updates."""
    base, dist = both(SHARED_COUNTER, nodes=4)
    assert dist.result == 200


def test_distributed_mutual_exclusion_many_configs():
    for nodes in (2, 3, 5):
        dist = run_distributed(source=SHARED_COUNTER, num_nodes=nodes)
        assert dist.result == 200, f"nodes={nodes}"


def test_lock_tokens_migrate():
    dist = run_distributed(source=SHARED_COUNTER, num_nodes=4)
    total = dist.total_dsm()
    assert total.token_transfers > 0
    assert total.diffs_sent > 0
    assert total.invalidations > 0


WAIT_NOTIFY = """
class Mailbox {
    int value;
    int ready;
}
class Producer extends Thread {
    Mailbox m;
    Producer(Mailbox m) { this.m = m; }
    void run() {
        synchronized (m) {
            m.value = 99;
            m.ready = 1;
            m.notifyAll();
        }
    }
}
class Main {
    static int main() {
        Mailbox m = new Mailbox();
        new Producer(m).start();
        synchronized (m) {
            while (m.ready == 0) { m.wait(); }
        }
        return m.value;
    }
}
"""


def test_wait_notify_across_nodes():
    base, dist = both(WAIT_NOTIFY, nodes=2)
    assert dist.result == 99


def test_statics_shared_across_nodes():
    src = """
    class Global { static int hits; }
    class Bumper extends Thread {
        void run() {
            synchronized (this) { }
            Global.hits += 0;   // touch the holder remotely
            int x = Global.hits;
        }
    }
    class Main {
        static int main() {
            Global.hits = 7;
            Bumper b = new Bumper();
            b.start();
            b.join();
            return Global.hits;
        }
    }
    """
    base, dist = both(src, nodes=2)
    assert dist.result == 7


def test_double_start_detected_distributed():
    src = """
    class T extends Thread { void run() { } }
    class Main {
        static int main() {
            T t = new T();
            t.start();
            t.start();
            return 0;
        }
    }
    """
    from repro.heap import JavaRuntimeError
    with pytest.raises(JavaRuntimeError, match="already started"):
        run_distributed(source=src, num_nodes=2)


# S reads w (a VALID replica), waits until main has written w, then starts
# it: setting ``started`` is a write miss on an INVALID replica.  With
# MAIN_STARTS_W, main has started w first (happens-before via ``phase``).
START_FROM_INVALID = """
class Box { int v; }
class W extends Thread { Box b; int tag; W(Box b) { this.b = b; }
    void run() { synchronized (b) { b.v += 1; } } }
class S extends Thread { W w; Box phase; S(W w, Box p) { this.w = w; phase = p; }
    void run() { int seen = w.tag;
        synchronized (phase) { phase.v = 1; }
        int p = 1; while (p < 2) { synchronized (phase) { p = phase.v; } }
        w.start(); w.join(); } }
class Main { static int main() { Box b = new Box(); Box phase = new Box();
    W w = new W(b); S s = new S(w, phase); s.start();
    int p = 0; while (p < 1) { synchronized (phase) { p = phase.v; } }
    MAIN_STARTS_W
    synchronized (phase) { w.tag = 5; phase.v = 2; }
    s.join(); return b.v; } }
"""


@pytest.mark.parametrize("nodes", [2, 3])
def test_start_from_invalid_replica_fetches_first(nodes):
    """The starter blocks on the Thread object's fetch like any write
    miss, then starts it."""
    src = START_FROM_INVALID.replace("MAIN_STARTS_W", "")
    both(src, nodes=nodes)


@pytest.mark.parametrize("nodes", [2, 3])
def test_double_start_from_invalid_replica_detected(nodes):
    """The double-start rule runs on the fetched data, not the stale
    replica: the second start is Java's error, not the VM's."""
    from repro.heap import JavaRuntimeError
    src = START_FROM_INVALID.replace("MAIN_STARTS_W", "w.start();")
    with pytest.raises(JavaRuntimeError, match="already started") as info:
        run_distributed(source=src, num_nodes=nodes)
    assert "javasplit.S.run" in str(info.value)


def test_mixed_brand_cluster():
    """The paper runs Sun and IBM JVMs in the same execution (§6)."""
    cfg = RuntimeConfig(num_nodes=4, brands=["sun", "ibm", "sun", "ibm"])
    dist = run_distributed(source=SHARED_COUNTER, config=cfg)
    assert dist.result == 200


COMPUTE_BOUND = """
class Work {
    int lo;
    int hi;
    double result;
    Work(int lo, int hi) { this.lo = lo; this.hi = hi; }
}
class Cruncher extends Thread {
    Work w;
    Cruncher(Work w) { this.w = w; }
    void run() {
        double s = 0.0;
        for (int i = w.lo; i < w.hi; i++) {
            double x = (double) i;
            for (int j = 0; j < 50; j++) { x = Math.sqrt(x + 2.0) * 1.5; }
            s += x;
        }
        w.result = s;
    }
}
class Main {
    static int main() {
        int n = 800;
        int k = 8;
        Cruncher[] ts = new Cruncher[k];
        for (int i = 0; i < k; i++) {
            ts[i] = new Cruncher(new Work(i * n / k, (i + 1) * n / k));
            ts[i].start();
        }
        double total = 0.0;
        for (int i = 0; i < k; i++) { ts[i].join(); total += ts[i].w.result; }
        return (int) total;
    }
}
"""


def test_speedup_on_compute_bound_workload():
    """More nodes should cut simulated time for a compute-bound workload
    (shape of the paper's Table 4: work per byte shipped is high)."""
    # A tenth of the iterations under time_dilation=10 (each simulated
    # instruction stands for ten): the same compute:communication ratio
    # for a tenth of the interpreted bytecodes.
    t1 = run_distributed(source=COMPUTE_BOUND, num_nodes=1,
                         time_dilation=10).simulated_ns
    t4 = run_distributed(source=COMPUTE_BOUND, num_nodes=4,
                         time_dilation=10).simulated_ns
    # This workload is small (~27 ms simulated), so fetch/join round
    # trips still eat into the ideal 4x; the full-size benchmark apps
    # in benchmarks/ show the near-linear shape of Table 4.
    assert t4 < t1 * 0.8


def test_deadlock_detected():
    src = """
    class Main {
        static int main() {
            Object o = new Object();
            synchronized (o) { o.wait(); }   // nobody will notify
            return 0;
        }
    }
    """
    with pytest.raises(DeadlockError):
        run_distributed(source=src, num_nodes=1)
