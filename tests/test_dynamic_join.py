"""Dynamic worker join (§2): new nodes enlist mid-execution."""

import pytest

from repro.check.faults import FaultInjector, FaultPlan
from repro.check.monitor import InvariantMonitor
from repro.check.oracle import SingleCopyOracle
from repro.check.runner import parse_kill
from repro.runtime.config import parse_locality, parse_policy
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.sim import NS_PER_MS

TWO_WAVES = """
class Counter { int v; }
class Incr extends Thread {
    Counter c;
    Incr(Counter c) { this.c = c; }
    void run() {
        for (int i = 0; i < 40; i++) { synchronized (c) { c.v += 1; } }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        Incr[] first = new Incr[4];
        for (int i = 0; i < 4; i++) { first[i] = new Incr(c); first[i].start(); }
        for (int i = 0; i < 4; i++) { first[i].join(); }
        // Second wave: by now a new node has joined the pool.
        Incr[] second = new Incr[4];
        for (int i = 0; i < 4; i++) { second[i] = new Incr(c); second[i].start(); }
        for (int i = 0; i < 4; i++) { second[i].join(); }
        return c.v;
    }
}
"""


def _runtime(**config_kwargs):
    config_kwargs.setdefault("num_nodes", 2)
    return JavaSplitRuntime(
        rewrite_application(compile_source(TWO_WAVES)),
        RuntimeConfig(**config_kwargs),
    )


def test_joined_worker_receives_threads():
    rt = _runtime()
    rt.schedule_join(2 * NS_PER_MS)
    report = rt.run()
    assert report.result == 320
    assert len(rt.workers) == 3
    # The late node took some of the second wave.
    assert report.placements.get(2, 0) > 0


def test_joined_worker_faults_in_shared_state():
    rt = _runtime()
    rt.schedule_join(2 * NS_PER_MS)
    rt.run()
    late = rt.workers[2]
    assert late.dsm.stats.fetches > 0
    assert len(late.jvm.classes) == len(rt.registry)


def test_join_with_different_brand():
    rt = _runtime()
    rt.schedule_join(2 * NS_PER_MS, brand="ibm")
    report = rt.run()
    assert report.result == 320
    assert rt.workers[2].jvm.cost_model.brand == "ibm"


def test_multiple_joins():
    rt = _runtime()
    rt.schedule_join(1 * NS_PER_MS)
    rt.schedule_join(2 * NS_PER_MS)
    rt.schedule_join(3 * NS_PER_MS)
    report = rt.run()
    assert report.result == 320
    assert len(rt.workers) == 5


def test_join_after_quiesce_is_harmless():
    """A node joining when all work is done just idles."""
    rt = _runtime()
    rt.schedule_join(10_000 * NS_PER_MS)  # far after completion
    report = rt.run()
    assert report.result == 320
    assert len(rt.workers) == 3
    assert rt.workers[2].node.idle


# ---------------------------------------------------------------------------
# Joins composed with the other subsystems, under the oracle
# ---------------------------------------------------------------------------

def _checked_run(rt):
    """Run under the invariant monitor + single-copy oracle; any
    violation fails the test."""
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    report = rt.run()
    monitor.finalize()
    oracle.finalize()
    assert not monitor.violations, monitor.violations
    assert not oracle.violations, oracle.violations
    assert oracle.checked_installs > 0
    return report


def test_join_with_locality_all_oracle_clean():
    """A mid-run join while migration/prefetch/aggregation are live:
    the late node participates in the locality machinery too."""
    rt = _runtime(net_jitter_ns=2 * NS_PER_MS, **parse_locality("all"))
    rt.schedule_join(2 * NS_PER_MS, brand="ibm")
    report = _checked_run(rt)
    assert report.result == 320
    assert len(rt.workers) == 3


def test_join_with_policy_all_oracle_clean():
    """A mid-run join with all adaptive coherence policies on."""
    rt = _runtime(net_jitter_ns=2 * NS_PER_MS, **parse_policy("all"))
    rt.schedule_join(2 * NS_PER_MS)
    report = _checked_run(rt)
    assert report.result == 320
    assert len(rt.workers) == 3


def test_join_plus_kill_oracle_clean():
    """One worker joins while another is killed: churn in both
    directions at once.  The restarted Incr threads redo increments
    from scratch, so the exact count may exceed 320 — the contract
    under a kill is completion plus an oracle-clean heap."""
    rt = _runtime(num_nodes=3, net_jitter_ns=2 * NS_PER_MS,
                  reliable_transport=True, ft_enabled=True)
    rt.schedule_join(2 * NS_PER_MS)
    plan = FaultPlan(seed=3)
    plan.detach_node, plan.detach_at_ns = parse_kill(
        "random", seed=3, nodes=3)
    FaultInjector.attach(rt, plan)
    report = _checked_run(rt)
    assert report.result is not None and report.result >= 320
    assert len(rt.workers) == 4
    assert report.ft is not None and len(report.ft["recoveries"]) == 1


# ---------------------------------------------------------------------------
# Joins on the proc backend (late worker process fork)
# ---------------------------------------------------------------------------

def test_join_on_proc_backend_forks_live_worker():
    """schedule_join on the proc backend forks a real worker process
    mid-run that handshakes and serves its share of the second wave."""
    rt = _runtime(transport_backend="proc")
    rt.schedule_join(2 * NS_PER_MS)
    report = rt.run()
    assert report.result == 320
    assert len(rt.workers) == 3
    assert report.placements.get(2, 0) > 0


