"""Python-level call budgets of the message path.

A layer added to the per-message path (a wrapper, a helper, a hook
called for nothing) costs a few percent of wall time, which a shared
host cannot tell from noise; it costs a fixed number of Python calls
per message, which is exact.  These tests count the ``'call'`` events
``sys.setprofile`` sees (Python frames only: a builtin is a
``'c_call'``) and hold each count to the budget the path has today.

The interpreter's own Python-level helpers differ between CPython minor
versions (3.12 inlines comprehensions, for one), so each version has
its own budgets; a version with none recorded is skipped.  A count
below its budget is fine: lower the budget to it.  A count above names
the functions that grew.
"""

import collections
import os
import sys

import pytest

from repro.lang import compile_source
from repro.net import SimNetwork
from repro.net.transport import Transport
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.sim import SUN, SimEngine

_LOCKS_MJ = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "e2e", "programs", "locks.mj")

#: (major, minor) -> {case: the most Python calls it may make}.
#: ``plain_frame`` read 18 and ``locks_2x50`` 29 869 (28 650 on 3.12)
#: before the simulated link was flattened to one call each way.
BUDGETS = {
    (3, 10): {"plain_frame": 10, "locks_2x50": 21771},
    (3, 11): {"plain_frame": 10, "locks_2x50": 21771},
    (3, 12): {"plain_frame": 10, "locks_2x50": 20756},
}


def count_calls(fn):
    """``fn()`` run under a profile hook: calls per (file, function)."""
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[os.path.basename(code.co_filename), code.co_name] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
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


CASES = {"plain_frame": plain_frame_calls, "locks_2x50": locks_calls}


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
