"""Cross-backend differential harness for the multiprocess transport.

The proc backend must be *observationally identical* to the sim
backend: same program result, same console, same simulated clock, same
per-type protocol message counts, same final heap — with every frame
additionally carried over real sockets between real OS processes.
These tests run each benchmark app under both backends with identical
configs and diff everything, then exercise the failure paths: a
``--kill`` style detach must SIGKILL the worker process, and a worker
killed *externally* must be detected and recovered by the
fault-tolerance subsystem with a clean oracle.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Dict, Tuple

import pytest

from repro.check.oracle import SingleCopyOracle, normalize_slots
from repro.check.runner import DEFAULT_JITTER_NS, app_source, run_check
from repro.dsm.objectstate import ObjState
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime
from repro.sim.engine import NS_PER_MS

APPS = ("series", "tsp", "raytracer")


def build_runtime(app: str, backend: str, **overrides) -> JavaSplitRuntime:
    """A 3-node runtime for ``app`` with the checked-run jitter profile.

    Both backends get byte-identical configs (same seed, same jitter)
    so a deterministic protocol must produce identical schedules.
    """
    config = RuntimeConfig(
        num_nodes=3,
        net_jitter_ns=DEFAULT_JITTER_NS,
        seed=0,
        transport_backend=backend,
        **overrides,
    )
    rewritten = rewrite_application(compile_source(app_source(app)))
    return JavaSplitRuntime(rewritten, config)


def heap_fingerprint(runtime: JavaSplitRuntime) -> Dict[int, Tuple]:
    """Comparable snapshot of every master (HOME) copy in the cluster.

    The masters collectively *are* the authoritative final heap.
    Unpromoted local refs carry no cross-run identity, so their
    id()-based tags are collapsed before comparison.
    """
    snap: Dict[int, Tuple] = {}
    for worker in runtime.workers:
        if getattr(worker, "dead", False):
            continue
        dsm = worker.dsm
        for gid, obj in dsm.cache.items():
            hdr = obj.header
            if hdr is None or not hdr.gid or hdr.state != ObjState.HOME:
                continue
            slots = tuple(
                ("localref",) if isinstance(v, tuple) and v
                and v[0] == "localref" else v
                for v in normalize_slots(
                    SingleCopyOracle._unit_slots(dsm, gid)))
            snap[gid] = (type(obj).__name__, hdr.version, slots)
    return snap


def run_both(app: str, **overrides):
    """Run ``app`` on sim and proc with identical configs."""
    out = {}
    for backend in ("sim", "proc"):
        runtime = build_runtime(app, backend, **overrides)
        report = runtime.run()
        out[backend] = (report, heap_fingerprint(runtime))
    return out["sim"], out["proc"]


# ---------------------------------------------------------------------------
# Differential runs: every observable must match across backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
def test_backends_observationally_identical(app, proc_guard):
    (sim, sim_heap), (proc, proc_heap) = run_both(app)

    assert proc.result == sim.result
    assert sorted(proc.console) == sorted(sim.console)
    assert proc.simulated_ns == sim.simulated_ns
    assert proc.threads_run == sim.threads_run
    assert proc.net.messages == sim.net.messages
    assert proc.net.bytes == sim.net.bytes
    # Per-type protocol counts are the strongest cheap schedule probe:
    # a single reordered fetch or extra retransmission shows up here.
    assert proc.net.by_type == sim.net.by_type
    assert proc_heap == sim_heap
    assert sim_heap, "fingerprint should cover a non-trivial heap"

    # And the proc run must have genuinely used the wire plane.
    assert proc.backend == "proc" and sim.backend == "sim"
    assert proc.wall_seconds > 0
    assert sim.proc is None
    wire = proc.proc
    assert wire["wire_frames"] == proc.net.messages
    assert wire["wire_fallback"] == 0
    assert wire["wire_delivered"] > 0
    assert proc.net.wire_bytes == wire["wire_bytes"] > 0
    relayed = sum(w["frames_relayed"] for w in wire["workers"].values())
    assert relayed == wire["wire_delivered"]


def test_proc_backend_over_tcp_sockets(proc_guard):
    """The TCP socket flavor must be just as invisible as unix sockets."""
    (sim, sim_heap), (proc, proc_heap) = run_both(
        "series", proc_socket_kind="tcp")
    assert proc.result == sim.result
    assert proc.net.by_type == sim.net.by_type
    assert proc_heap == sim_heap
    assert proc.proc["socket_kind"] == "tcp"
    assert proc.proc["wire_fallback"] == 0


# ---------------------------------------------------------------------------
# Kill paths: detach == SIGKILL of a real process
# ---------------------------------------------------------------------------
def test_kill_sweep_on_proc_backend_passes_oracle(proc_guard):
    """``repro check --kill`` semantics on the proc backend: the seeded
    sweep must survive the SIGKILL'd worker with a clean oracle."""
    report = run_check(app="series", seeds=2, kill="1@5ms", nodes=3,
                       backend="proc")
    assert report.backend == "proc"
    for sr in report.results:
        assert sr.error is None
        assert sr.violations == []
        assert sr.result_matches and sr.console_matches
        assert sr.ft is not None and sr.ft["dead_nodes"] == [1]
        assert sr.finals_checked > 0


def test_detach_sigkills_the_worker_process(proc_guard):
    """A runtime-driven detach (the --kill path) must map to a real
    SIGKILL: the worker process dies with -SIGKILL, not a clean exit,
    and the run still converges to the sim result."""
    sim_rt = build_runtime("series", "sim", ft_enabled=True,
                           reliable_transport=True)
    sim_rt.engine.schedule_at(5 * NS_PER_MS, lambda: (
        sim_rt.network.detach(1), sim_rt.workers[1].node.halt()))
    sim_report = sim_rt.run()

    rt = build_runtime("series", "proc", ft_enabled=True,
                       reliable_transport=True)
    killed: Dict[str, Any] = {}

    def kill_node():
        killed["proc"] = rt.network._procs[1]
        rt.network.detach(1)
        rt.workers[1].node.halt()

    rt.engine.schedule_at(5 * NS_PER_MS, kill_node)
    report = rt.run()

    assert killed["proc"].exitcode == -signal.SIGKILL
    assert report.result == sim_report.result
    assert report.ft["dead_nodes"] == sim_report.ft["dead_nodes"] == [1]
    assert not rt.network.proc_alive(1)


def test_external_sigkill_is_detected_and_recovered(proc_guard):
    """A worker killed from *outside* the runtime (kill -9 at the shell)
    must be noticed by the master, surfaced as a node death, and
    recovered by the heartbeat/replication machinery with the oracle
    passing — the failure mode the sim backend can only pretend at."""
    rt = build_runtime("series", "proc", ft_enabled=True,
                       reliable_transport=True)
    oracle = SingleCopyOracle.attach(rt)

    def murder():
        os.kill(rt.network.proc_pids[2], signal.SIGKILL)

    rt.engine.schedule_at(5 * NS_PER_MS, murder)
    report = rt.run()

    assert report.ft["failures_detected"] >= 1
    assert report.ft["dead_nodes"] == [2]
    assert oracle.finalize() == []

    ref = build_runtime("series", "sim").run()
    assert report.result == ref.result
    assert sorted(report.console) == sorted(ref.console)
