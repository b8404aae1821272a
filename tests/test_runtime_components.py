"""Unit tests for runtime components: schedulers, class registry, config."""

import pytest

from repro.dsm import DsmConfig
from repro.jvm import JVM, bootstrap_classfiles
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import (
    ClassRegistry,
    LeastLoadedScheduler,
    PinnedScheduler,
    PlacementTracker,
    RandomScheduler,
    RoundRobinScheduler,
    RuntimeConfig,
    make_scheduler,
)
from repro.sim import SUN, Node, SimEngine


class FakeNode:
    def __init__(self, node_id, load):
        self.node_id = node_id
        self.load = load


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------
def test_least_loaded_picks_minimum():
    s = LeastLoadedScheduler()
    nodes = [FakeNode(0, 3), FakeNode(1, 1), FakeNode(2, 2)]
    assert s.choose(nodes) == 1


def test_least_loaded_breaks_ties_deterministically():
    s = LeastLoadedScheduler()
    nodes = [FakeNode(2, 1), FakeNode(0, 1), FakeNode(1, 1)]
    assert s.choose(nodes) == 0


def test_round_robin_cycles():
    s = RoundRobinScheduler()
    nodes = [FakeNode(i, 0) for i in range(3)]
    assert [s.choose(nodes) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_random_scheduler_seeded_and_in_range():
    a = RandomScheduler(seed=5)
    b = RandomScheduler(seed=5)
    nodes = [FakeNode(i, 0) for i in range(4)]
    picks_a = [a.choose(nodes) for _ in range(20)]
    picks_b = [b.choose(nodes) for _ in range(20)]
    assert picks_a == picks_b
    assert all(0 <= p < 4 for p in picks_a)
    assert len(set(picks_a)) > 1


def test_pinned_scheduler():
    s = PinnedScheduler(2)
    assert s.choose([FakeNode(i, 0) for i in range(4)]) == 2


def test_make_scheduler_registry():
    assert isinstance(make_scheduler("least-loaded"), LeastLoadedScheduler)
    assert isinstance(make_scheduler("round-robin"), RoundRobinScheduler)
    assert isinstance(make_scheduler("random", seed=1), RandomScheduler)
    with pytest.raises(ValueError):
        make_scheduler("magic")


def test_placement_tracker_counts():
    tracker = PlacementTracker(RoundRobinScheduler())
    nodes = [FakeNode(i, 0) for i in range(2)]
    for _ in range(5):
        tracker.choose(nodes)
    assert tracker.per_node_counts() == {0: 3, 1: 2}
    assert tracker.placements == [0, 1, 0, 1, 0]


# ---------------------------------------------------------------------------
# Class registry
# ---------------------------------------------------------------------------
SRC = """
class Helper { int x; }
class Main { static int main() { return new Helper().x; } }
"""


def test_class_registry_installs_everything():
    rewritten = rewrite_application(compile_source(SRC))
    registry = ClassRegistry(rewritten.classfiles)
    engine = SimEngine()
    jvm = JVM(Node(engine, 0, SUN))
    shipment = registry.install(jvm)
    assert shipment.classes == len(rewritten.classfiles)
    assert shipment.bytes == registry.total_bytes > 0
    for name in rewritten.classfiles:
        assert name in jvm.classes


def test_class_registry_size_reflects_code():
    small = ClassRegistry(rewrite_application(compile_source(SRC)).classfiles)
    big_src = SRC + """
    class Extra {
        int pile;
        int more(int a, int b) { return a * b + a - b + pile; }
        int evenMore(int a) { return a * a * a; }
    }
    """
    big = ClassRegistry(rewrite_application(compile_source(big_src)).classfiles)
    assert big.total_bytes > small.total_bytes


# ---------------------------------------------------------------------------
# RuntimeConfig
# ---------------------------------------------------------------------------
def test_config_brand_of_single():
    cfg = RuntimeConfig(num_nodes=4, brands=("ibm",))
    assert [cfg.brand_of(i) for i in range(4)] == ["ibm"] * 4


def test_config_brand_of_per_node():
    cfg = RuntimeConfig(num_nodes=2, brands=["sun", "ibm"])
    assert cfg.brand_of(0) == "sun" and cfg.brand_of(1) == "ibm"


def test_config_brand_mismatch_rejected():
    cfg = RuntimeConfig(num_nodes=3, brands=["sun", "ibm"])
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(num_nodes=0).validate()
    with pytest.raises(ValueError):
        RuntimeConfig(cpus_per_node=0).validate()
    RuntimeConfig(num_nodes=2).validate()  # fine


@pytest.mark.parametrize("bad", [
    {"quantum_ns": 0},          # used to pass validate() and spin forever
    {"net_jitter_ns": -1},
    {"scheduler": "fastest"},   # used to surface from the scheduler factory
    {"cost_profile": "macro"},  # used to surface as a bare KeyError
    # used to die in promote (ZeroDivisionError) / the region lookup
    # (IndexError), reported as a failed seed
    {"dsm": DsmConfig(array_region_elems=0)},
    {"dsm": DsmConfig(array_region_elems=-3)},
])
def test_config_rejects_values_that_hang_or_fail_late(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        RuntimeConfig(num_nodes=2, **bad).validate()


# ---------------------------------------------------------------------------
# Worker wiring smoke checks
# ---------------------------------------------------------------------------
def test_runtime_report_accounting():
    from repro.runtime import JavaSplitRuntime

    rewritten = rewrite_application(compile_source(SRC))
    rt = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=2))
    report = rt.run()
    assert report.result == 0
    assert report.class_bytes > 0
    assert report.threads_run == 1  # just main
    assert set(report.node_busy_ns) == {0, 1}
    assert report.events > 0
    assert report.simulated_ns > 0


def test_runtime_rejects_app_without_main():
    from repro.runtime import JavaSplitRuntime

    rewritten = rewrite_application(
        compile_source("class OnlyHelper { int x; }")
    )
    rt = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=1))
    with pytest.raises(ValueError, match="main"):
        rt.run()


def test_scheduler_choice_configurable():
    from repro.runtime import JavaSplitRuntime

    src = """
    class T extends Thread { void run() { } }
    class Main {
        static int main() {
            T[] ts = new T[4];
            for (int i = 0; i < 4; i++) { ts[i] = new T(); ts[i].start(); }
            for (int i = 0; i < 4; i++) { ts[i].join(); }
            return 0;
        }
    }
    """
    rewritten = rewrite_application(compile_source(src))
    rt = JavaSplitRuntime(
        rewritten, RuntimeConfig(num_nodes=2, scheduler="round-robin")
    )
    report = rt.run()
    assert report.placements == {0: 2, 1: 2}
