"""Python-level call budgets of the message path and of a call.

A layer added to the per-message path (a wrapper, a helper, a hook
called for nothing) costs a few percent of wall time, which a shared
host cannot tell from noise; it costs a fixed number of Python calls
per message, which is exact.  The same holds for a bytecode call and
its return on tier 0.  These tests count the ``'call'`` events
``sys.setprofile`` sees (Python frames only: a builtin is a
``'c_call'``) and hold each count to the budget the path has today.

The interpreter's own Python-level helpers differ between CPython minor
versions (3.12 inlines comprehensions, for one), so each version has
its own budgets; a version with none recorded is skipped.  A count
below its budget is fine: lower the budget to it.  A count above names
the functions that grew.
"""

import collections
import gc
import os
import sys

import pytest

from repro.lang import compile_source
from repro.net import SimNetwork
from repro.net.transport import Transport
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig, run_original
from repro.sim import SUN, SimEngine

_LOCKS_MJ = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "e2e", "programs", "locks.mj")

#: (major, minor) -> {case: the most Python calls it may make}.
#: ``plain_frame`` read 18 and ``locks_2x50`` 29 869 (28 650 on 3.12)
#: before the simulated link was flattened to one call each way.
#: ``invoke_return`` read 1 000, ten per call, while a call went through
#: ``_invoke``, a return through ``_return``, and the dispatch loop
#: called ``fuse`` for every new frame; pushing the callee's frame and
#: returning in place took those three off, and 32 calls off
#: ``locks_2x50``.  The call path has no comprehension, so one count
#: holds on every version.  ``locks_2x50`` then fell by 262 on 3.11
#: (21 739 -> 21 477) when a read check that hits became part of its
#: run and ``fuse`` took each pc's cost from ``decode`` instead of
#: pricing every run again.  218 of those calls are gone on any version
#: (mostly ``instr_cost`` and ``native_of``, and checks that hit); 44
#: were list comprehensions, which 3.12 inlines anyway, so 3.12's budget
#: comes down by 218 only.
BUDGETS = {
    (3, 10): {"plain_frame": 10, "locks_2x50": 21477, "invoke_return": 700},
    (3, 11): {"plain_frame": 10, "locks_2x50": 21477, "invoke_return": 700},
    (3, 12): {"plain_frame": 10, "locks_2x50": 20506, "invoke_return": 700},
}


def count_calls(fn):
    """``fn()`` run under a profile hook: calls per (file, function).
    The garbage collector is off while it runs, so that no callback a
    test library hung on it (Hypothesis has one) is counted with the
    program."""
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[os.path.basename(code.co_filename), code.co_name] += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return counts


def plain_frame_calls():
    """One frame, ``Transport.send`` to its handler, with no tap, no
    ARQ and no epoch on the path: the send, the network's accounting
    and delivery event, the receive side and the handler."""
    engine = SimEngine()
    network = SimNetwork(engine)
    a, b = Transport(network, 0, SUN), Transport(network, 1, SUN)
    got = []

    def handler(msg):
        got.append(msg.payload["x"])

    b.on("t", handler)

    def one_frame():
        a.send(1, "t", {"x": len(got)})
        engine.run()

    one_frame()     # first frame: the link cost is worked out once
    counts = count_calls(one_frame)
    assert got == [0, 1]
    return counts


def locks_calls(threads=2, iters=50):
    """``locks.mj``'s run (not its build): every hand-over's protocol
    messages, handlers and access checks.  The second of two identical
    runs is counted, so no first-use cache of the process is in it."""
    with open(_LOCKS_MJ) as fh:
        source = (fh.read().replace("@THREADS@", str(threads))
                  .replace("@ITERS@", str(iters)))
    classes = rewrite_application(list(compile_source(source)))

    def runtime():
        return JavaSplitRuntime(classes, RuntimeConfig(
            num_nodes=3, cpus_per_node=2, seed=1))

    assert runtime().run().result == threads * iters
    rt = runtime()
    reports = []
    counts = count_calls(lambda: reports.append(rt.run()))
    assert reports[0].result == threads * iters
    return counts


#: A one-line virtual method called from a loop.
_CALLS_MJ = """
class Cell { int v; int f(int k) { return v + k; } }
class Main {
    static int main(int n) {
        Cell c = new Cell();
        int s = 0;
        for (int i = 0; i < n; i++) { s += c.f(i); }
        return s;
    }
}"""


def invoke_return_calls(n=100):
    """What ``n`` more invocations of ``Cell.f`` cost on tier 0: the
    calls of a run of ``2n`` less those of a run of ``n``, so the set-up
    of a JVM and the first use of anything cancel out."""
    classes = compile_source(_CALLS_MJ)

    def run(k):
        assert run_original(classfiles=classes, args=[k]).result == \
            k * (k - 1) // 2
    run(n)  # the process's code cache holds the fused text from here
    return count_calls(lambda: run(2 * n)) - count_calls(lambda: run(n))


CASES = {"plain_frame": plain_frame_calls, "locks_2x50": locks_calls,
         "invoke_return": invoke_return_calls}


@pytest.mark.parametrize("case", sorted(CASES))
def test_message_path_stays_within_its_call_budget(case):
    budget = BUDGETS.get(sys.version_info[:2], {}).get(case)
    if budget is None:
        pytest.skip(f"no call budget recorded for Python "
                    f"{sys.version_info[0]}.{sys.version_info[1]}")
    counts = CASES[case]()
    total = sum(counts.values())
    assert total <= budget, (
        f"{case}: {total} Python calls, budget {budget}; most called: "
        f"{counts.most_common(12)}")
