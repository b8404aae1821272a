"""DsmTracer unit + wiring coverage: event recording, the max-events
cap and its dropped counter, filtering/summary/export helpers, and the
attach() idempotency guarantee (a double attach must not double-wrap
``transport.send`` and double-record every message)."""

from repro.check.runner import app_source
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer, TraceEvent

TWO_NODE_SRC = """
class Counter { int v; }
class W extends Thread {
    Counter c;
    W(Counter c) { this.c = c; }
    void run() { synchronized (c) { c.v += 1; } }
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


def _runtime(**cfg):
    rewritten = rewrite_application(compile_source(TWO_NODE_SRC))
    cfg.setdefault("scheduler", "round-robin")
    return JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=2, **cfg))


# ---------------------------------------------------------------------------
# Recording, cap, dropped
# ---------------------------------------------------------------------------
def test_record_and_len():
    tr = DsmTracer()
    tr.record(1000, 0, "dsm.fetch", "gid=1")
    tr.record(2000, 1, "dsm.token", "gid=1")
    assert len(tr) == 2
    assert tr.events[0] == TraceEvent(1000, 0, "dsm.fetch", "gid=1")
    assert not tr.truncated
    assert tr.dropped == 0


def test_limit_drops_and_counts():
    tr = DsmTracer()
    tr._limit = 2
    for i in range(5):
        tr.record(i, 0, "k", str(i))
    assert len(tr) == 2
    assert tr.dropped == 3
    assert tr.truncated
    # The retained prefix is the earliest events, in order.
    assert [e.detail for e in tr.events] == ["0", "1"]


def test_events_of_type_and_counts():
    tr = DsmTracer()
    tr.record(0, 0, "a", "x")
    tr.record(1, 0, "b", "y")
    tr.record(2, 1, "a", "z")
    assert [e.detail for e in tr.events_of_type("a")] == ["x", "z"]
    assert tr.events_of_type("missing") == []
    assert tr.counts() == {"a": 2, "b": 1}


def test_summary_includes_truncated_dropped_only_when_truncated():
    tr = DsmTracer()
    tr.record(0, 0, "a", "x")
    assert "truncated_dropped" not in tr.summary()
    tr._limit = 1
    tr.record(1, 0, "a", "y")
    assert tr.summary() == {"a": 1, "truncated_dropped": 1}


def test_as_dicts_and_format():
    tr = DsmTracer()
    tr.record(1_500_000, 1, "dsm.diff", "-> n0 (64B)")
    assert tr.as_dicts() == [{
        "time_ns": 1_500_000, "node": 1, "kind": "dsm.diff",
        "detail": "-> n0 (64B)",
    }]
    text = tr.format()
    assert "dsm.diff" in text and "n1" in text
    assert "truncated" not in text
    tr._limit = 1
    tr.record(2_000_000, 0, "dsm.token", "gid=1")
    assert "truncated" in tr.format()
    # kind filter + tail limit
    assert tr.format(kind="nope").startswith("... trace truncated")


# ---------------------------------------------------------------------------
# attach(): wiring + idempotency
# ---------------------------------------------------------------------------
def test_attach_records_protocol_traffic():
    rt = _runtime()
    tracer = DsmTracer.attach(rt)
    report = rt.run()
    assert report.result == 2
    assert len(tracer) > 0
    assert tracer.events_of_type("promote")   # Counter + thread promoted
    # Every send-type event carries its destination and byte count.
    sends = [e for e in tracer.events if e.detail.startswith("-> n")]
    assert sends


def test_attach_is_idempotent_per_runtime():
    rt = _runtime()
    tracer = DsmTracer.attach(rt, max_events=100)
    again = DsmTracer.attach(rt)
    assert again is tracer
    report = rt.run()
    assert report.result == 2
    # A double attach used to wrap transport.send twice and record every
    # message twice; with the guard each message appears exactly once,
    # so counts match the NetStats total.
    sends = [e for e in tracer.events if e.detail.startswith("-> n")]
    assert len(sends) == report.net.messages


def test_late_joiner_is_traced():
    """A worker that joins mid-run is subscribed like the initial pool:
    per node, the trace holds one send event per message that node put
    on the network (the tracer used to be blind to joiners, so
    ``repro trace --join`` under-reported)."""
    rewritten = rewrite_application(compile_source(app_source("tsp")))
    rt = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=2))
    tracer = DsmTracer.attach(rt)
    rt.schedule_join(1000)
    report = rt.run()
    sent = {}
    for (src, _dst), (count, _bytes) in report.net.by_link.items():
        sent[src] = sent.get(src, 0) + count
    traced = {}
    for e in tracer.events:
        if e.detail.startswith("-> n"):
            traced[e.node] = traced.get(e.node, 0) + 1
    assert sent.get(2), "the joined node must have sent something"
    assert traced == sent


def test_attach_updates_limit_on_reattach():
    rt = _runtime()
    tracer = DsmTracer.attach(rt, max_events=100)
    DsmTracer.attach(rt, max_events=3)
    assert tracer._limit == 3
    rt.run()
    assert len(tracer) == 3
    assert tracer.truncated


def test_separate_runtimes_get_separate_tracers():
    rt_a, rt_b = _runtime(), _runtime()
    tr_a = DsmTracer.attach(rt_a)
    tr_b = DsmTracer.attach(rt_b)
    assert tr_a is not tr_b
