"""Consistency oracle + invariant monitor: clean runs pass, broken
protocol mutations are caught."""

import pytest

from repro.check import (
    InvariantMonitor,
    MonitorError,
    SingleCopyOracle,
    normalize_slots,
    run_check,
)
from repro.dsm import DsmConfig
from repro.dsm.objectstate import ObjState
from repro.dsm.transitions import PUSH
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig

from dsm_script import ScriptRuntime

COUNTER_SRC = """
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
        W a = new W(c, 8);
        W b = new W(c, 8);
        a.start(); b.start();
        a.join(); b.join();
        return c.v;
    }
}
"""


def _runtime(src=COUNTER_SRC, nodes=2, **cfg):
    classfiles = compile_source(src)
    rewritten = rewrite_application(classfiles)
    cfg.setdefault("scheduler", "round-robin")  # spread threads over nodes
    return JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=nodes, **cfg))


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------
def test_clean_run_has_no_violations():
    rt = _runtime()
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    report = rt.run()
    monitor.finalize()
    oracle.finalize()
    assert report.result == 16
    assert monitor.ok, monitor.summary()
    assert oracle.ok, oracle.summary()
    # The checks actually looked at something.
    assert oracle.checked_installs > 0
    assert oracle.checked_final > 0


def test_clean_run_vector_mode():
    rt = _runtime(dsm=DsmConfig(timestamp_mode="vector"))
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    report = rt.run()
    monitor.finalize()
    oracle.finalize()
    assert report.result == 16
    assert monitor.ok, monitor.summary()
    assert oracle.ok, oracle.summary()


def test_clean_run_with_jitter_many_nodes():
    rt = _runtime(nodes=3, net_jitter_ns=2_000_000, seed=11)
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    report = rt.run()
    monitor.finalize()
    oracle.finalize()
    assert report.result == 16
    assert monitor.ok and oracle.ok


# ---------------------------------------------------------------------------
# Broken-protocol regressions: each mutation must be caught
# ---------------------------------------------------------------------------
def _skip_flush(dsm):
    """Protocol mutation: a release that 'forgets' the diff flush."""

    def broken_end_interval(thread):
        pass  # BUG under test: no _flush before the release completes.

    dsm.end_interval = broken_end_interval


#: Each mutant is caught on two program forms: the MiniJava counter on
#: the full runtime, and six script ops straight against the engine —
#: node 1 writes x (homed on node 0) under L (homed on node 1) while
#: node 0 waits for L.
FORMS = {
    "minijava": _runtime,
    "script": lambda: ScriptRuntime(
        2, {"Box": ("v",)}, {"x": ("Box", 0), "L": ("Box", 1)}, [
            (1, [("acquire", "L"), ("write", "x", "v", 1),
                 ("release", "L")]),
            (0, [("acquire", "L"), ("read", "x", "v"), ("release", "L")]),
        ]),
}


def _mutated_run(form, mutate):
    rt = FORMS[form]()
    for w in rt.workers:
        mutate(w.dsm)
    monitor = InvariantMonitor.attach(rt)
    try:
        rt.run(allow_blocked=True)
    except Exception:
        pass  # a crash under a broken protocol is acceptable
    monitor.finalize()
    return monitor


@pytest.mark.parametrize("form", FORMS)
def test_skipped_flush_is_caught(form):
    monitor = _mutated_run(form, _skip_flush)
    assert not monitor.ok
    assert any(v.kind == "release-flush" for v in monitor.violations), \
        monitor.summary()


def _skip_fence(dsm):
    """Protocol mutation: send the lock token without waiting for diff
    acks, violating the scalar-timestamp fence (§3.1)."""
    dsm._when_fence_clear = lambda action: action()


@pytest.mark.parametrize("form", FORMS)
def test_skipped_fence_is_caught(form):
    monitor = _mutated_run(form, _skip_fence)
    assert any(v.kind == "fence" for v in monitor.violations), \
        monitor.summary()


def test_strict_mode_raises_on_violation():
    rt = _runtime()
    for w in rt.workers:
        _skip_flush(w.dsm)
    InvariantMonitor.attach(rt, strict=True)
    with pytest.raises(MonitorError):
        rt.run(allow_blocked=True)


def test_oracle_catches_corrupted_master():
    """Bit-flipping a master after the run diverges it from the
    single-copy reference."""
    rt = _runtime()
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    rt.run()
    monitor.finalize()
    corrupted = 0
    for w in rt.workers:
        dsm = w.dsm
        for gid, obj in dsm.cache.items():
            hdr = obj.header
            if hdr is None or hdr.state != ObjState.HOME:
                continue
            if dsm.is_split(gid) or gid in dsm._dirty_home:
                continue
            if hdr.version not in oracle._golden.get(gid, {}):
                continue
            slots = obj.data if hasattr(obj, "data") else obj.fields
            for i, v in enumerate(slots):
                if isinstance(v, int) and not isinstance(v, bool):
                    slots[i] = v + 1
                    corrupted += 1
    assert corrupted > 0
    oracle.finalize()
    assert not oracle.ok
    assert any(v.kind == "oracle-state" for v in oracle.violations), \
        oracle.summary()


def _served_replica(rt, monitor):
    """A whole-object unit node 0 masters and has served, with the
    VALID replica node 1 holds of it."""
    d0, d1 = rt.workers[0].dsm, rt.workers[1].dsm
    for gid, obj in sorted(d0.cache.items()):
        replica = d1.cache.get(gid)
        if (obj.header.state == ObjState.HOME and gid in monitor._served
                and replica is not None
                and replica.header.state == ObjState.VALID):
            return d0, d1, gid
    raise AssertionError("no served unit with a live replica")


def test_stale_serve_is_caught():
    """``unit_shipped``: a home whose version regressed ships a unit
    older than one it already served."""
    rt = _runtime()
    monitor = InvariantMonitor.attach(rt)
    rt.run()
    assert monitor.ok, monitor.summary()
    d0, _d1, gid = _served_replica(rt, monitor)
    # BUG under test: the master's version moves backwards.
    d0.cache[gid].header.version = monitor._served[gid] - 1
    d0._serve_fetch(1, d0.cache[gid])
    assert any(v.kind == "version-monotonic" and "after serving" in v.detail
               for v in monitor.violations), monitor.summary()


def test_backwards_install_is_caught():
    """``unit_installed``: an install that moves a replica backwards in
    time, to a (version, content) pair no home ever published."""
    rt = _runtime()
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    rt.run()
    assert monitor.ok and oracle.ok
    d0, d1, gid = _served_replica(rt, monitor)
    unit = d0.ft_serialize_unit(gid)
    # BUG under test: a replica is overwritten with an older version.
    unit["version"] = d1.cache[gid].header.version - 1
    d1._install_unit(unit, ObjState.VALID, PUSH)
    assert any(v.kind == "version-monotonic" and "backwards" in v.detail
               for v in monitor.violations), monitor.summary()
    assert not oracle.ok  # oracle-version, or oracle-state if v-1 existed


# ---------------------------------------------------------------------------
# normalize_slots
# ---------------------------------------------------------------------------
def test_normalize_slots_nan_compares_equal():
    a = normalize_slots([1, float("nan"), "x"])
    b = normalize_slots([1, float("nan"), "x"])
    assert a == b


def test_normalize_slots_refs_by_gid():
    class _Hdr:
        def __init__(self, gid):
            self.gid = gid

    from repro.heap import ArrayObj

    def arr(gid):
        a = ArrayObj("int", 1)
        a.header = _Hdr(gid)
        return a

    assert normalize_slots([arr(0x42)]) == normalize_slots([arr(0x42)])
    assert normalize_slots([arr(0x42)]) != normalize_slots([arr(0x43)])


# ---------------------------------------------------------------------------
# The sweep runner
# ---------------------------------------------------------------------------
def test_run_check_clean_series():
    report = run_check(app="series", seeds=2)
    assert report.ok, report.summary()
    assert len(report.results) == 2
    assert all(r.installs_checked > 0 for r in report.results)


def test_run_check_with_faults():
    report = run_check(app="series", seeds=2, faults="drop,reorder,dup")
    assert report.ok, report.summary()
    injected = sum(
        r.faults.dropped + r.faults.duplicated + r.faults.reordered
        for r in report.results if r.faults)
    assert injected > 0  # the plan actually exercised the ARQ layer


def test_run_check_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown app"):
        run_check(app="nope", seeds=1)
