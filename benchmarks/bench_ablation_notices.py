"""Ablation A2 (§3.1) — bounded vs unbounded write-notice storage.

HLRC keeps every write notice it has ever seen (collectable only by a
global GC); MTS-HLRC keeps just the latest notice per coherency unit.
This ablation runs a long sharing workload and compares per-node notice
storage: the HLRC log grows with the number of *writes*, the MTS-HLRC
table stays bounded by the number of *live shared objects* — the
memory-overflow argument of §3.1, made countable.  Both rows come from
one run: every notice table also counts what the uncollected log of the
same notices would hold.
"""

import pytest

from repro.bench import emit
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig

WORKLOAD = """
class Cell { int v; }
class Writer extends Thread {
    Cell c;
    int rounds;
    Writer(Cell c, int rounds) { this.c = c; this.rounds = rounds; }
    void run() {
        for (int i = 0; i < rounds; i++) {
            synchronized (c) { c.v += 1; }
        }
    }
}
class Main {
    static int main() {
        Cell c = new Cell();
        Writer a = new Writer(c, 60);
        Writer b = new Writer(c, 60);
        a.start(); b.start();
        a.join(); b.join();
        return c.v;
    }
}
"""


def _run():
    """One run; per storage policy, (report, max stored notices, max
    bytes, max shared objects) over the nodes."""
    rt = JavaSplitRuntime(
        rewrite_application(compile_source(WORKLOAD)),
        RuntimeConfig(num_nodes=3),
    )
    report = rt.run()
    tables = [w.dsm.notice_table for w in rt.workers]
    shared_objects = max(len(w.dsm.cache) for w in rt.workers)
    return {
        "bounded": (report, max(t.stored_notices for t in tables),
                    max(t.storage_bytes() for t in tables), shared_objects),
        "full": (report, max(t.logged for t in tables),
                 max(t.logged_bytes for t in tables), shared_objects),
    }


@pytest.fixture(scope="module")
def notice_results():
    return _run()


def test_ablation_notices_regenerate(notice_results, benchmark):
    benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'mode':<12}{'max notices':>13}{'bytes':>9}"
             f"{'shared objs':>13}{'result':>9}"]
    for mode, (rep, stored, storage, objs) in notice_results.items():
        lines.append(
            f"{mode:<12}{stored:>13}{storage:>9}{objs:>13}{rep.result:>9}"
        )
    emit("ablation_notices", "\n".join(lines))


def test_results_identical(notice_results):
    results = {rep.result for rep, *_ in notice_results.values()}
    assert results == {120}


def test_full_mode_storage_grows_with_writes(notice_results):
    _, bounded_stored, bounded_bytes, _ = notice_results["bounded"]
    _, full_stored, full_bytes, _ = notice_results["full"]
    assert full_stored > 3 * bounded_stored
    assert full_bytes > 3 * bounded_bytes


def test_bounded_mode_capped_by_live_objects(notice_results):
    _, stored, _, shared_objects = notice_results["bounded"]
    assert stored <= shared_objects
