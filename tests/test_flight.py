"""Flight recorder + wall-clock telemetry on the multiprocess backend.

The expensive guarantees: a worker SIGKILLed from outside leaves a
parseable flight dump carrying the dead node's last recorded events;
the wall-clock plane measures real socket RTTs without perturbing any
deterministic observable; and with every knob on, a worker's control
lane still carries a fixed handful of frames, however many data frames
it relays."""

from __future__ import annotations

import json
import os
import signal
from collections import Counter

from repro.check.runner import DEFAULT_JITTER_NS, app_source
from repro.lang import compile_source
from repro.net.procnet import (CTRL_HELLO, CTRL_PEERS, CTRL_SHUTDOWN,
                               CTRL_STATS, MASTER_ID, ProcNetwork)
from repro.net.wire import PREFIX_BYTES, peek_route
from repro.obs.flight import FLIGHT_SCHEMA, validate_flight_dump
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime
from repro.sim.engine import NS_PER_MS


def build_runtime(backend: str, app: str = "series",
                  **overrides) -> JavaSplitRuntime:
    config = RuntimeConfig(
        num_nodes=3,
        net_jitter_ns=DEFAULT_JITTER_NS,
        seed=0,
        transport_backend=backend,
        **overrides,
    )
    rewritten = rewrite_application(compile_source(app_source(app)))
    return JavaSplitRuntime(rewritten, config)


def test_sigkilled_worker_leaves_flight_dump(tmp_path, proc_guard):
    """kill -9 on a worker process: the master's death detection must
    dump the flight state, including the killed node's last events,
    which the master recorded itself."""
    rt = build_runtime("proc", ft_enabled=True, reliable_transport=True,
                       obs_flight_recorder=True, obs_wallclock=True,
                       obs_flight_dir=str(tmp_path))

    def murder():
        os.kill(rt.network.proc_pids[2], signal.SIGKILL)

    rt.engine.schedule_at(5 * NS_PER_MS, murder)
    report = rt.run()

    assert report.ft["dead_nodes"] == [2]
    assert report.flight_dumps, "SIGKILL must produce a flight dump"
    path = report.flight_dumps[0]
    assert path.startswith(str(tmp_path))
    doc = json.loads(open(path).read())
    assert validate_flight_dump(doc) == []
    assert doc["reason"] == "sigkill"
    assert doc["detail"]["node"] == 2
    assert doc["backend"] == "proc"
    assert doc["flight"] == FLIGHT_SCHEMA == 2
    # Every ring is master-side: a node entry holds its events only.
    assert all(set(entry) == {"events"} for entry in doc["nodes"].values())
    killed = doc["nodes"]["2"]
    assert killed["events"], "master-side ring for the dead node is empty"
    assert all(ev["kind"] for ev in killed["events"])
    # And the run still recovered to the sim-backend result.
    ref = build_runtime("sim").run()
    assert report.result == ref.result


def test_orderly_shutdown_produces_no_dump(tmp_path, proc_guard):
    rt = build_runtime("proc", obs_flight_recorder=True,
                       obs_flight_dir=str(tmp_path))
    report = rt.run()
    assert report.flight_dumps == []
    assert list(tmp_path.iterdir()) == []


def test_proc_wallclock_measures_without_perturbing(proc_guard):
    """Knobs ON on the proc backend: real RTT / codec / loop-lag
    histograms fill up, while every deterministic observable stays
    exactly equal to the knobs-off sim run."""
    sim = build_runtime("sim").run()
    rt = build_runtime("proc", obs_wallclock=True,
                       obs_flight_recorder=True)
    report = rt.run()

    assert report.result == sim.result
    assert report.simulated_ns == sim.simulated_ns
    assert report.net.messages == sim.net.messages
    assert report.net.bytes == sim.net.bytes
    assert report.net.by_type == sim.net.by_type

    wall = rt.obs.wallclock
    assert wall is not None
    rtt = wall.histogram("net.rtt_ns")
    assert rtt.count > 0, "no socket round-trips were timed"
    assert rtt.min > 0
    # The worker-shipped histogram (its last CTRL_STATS frame).
    lag = wall.histogram("worker.loop_lag_ns")
    assert lag.count > 0, "workers shipped no loop-lag samples"
    enc = wall.histogram("wire.encode_ns")
    assert enc.count > 0, "master codec timings missing"
    assert wall.samples, "no sim/wall correlation samples recorded"
    by_node = wall.by_node()
    assert by_node, "per-node compact view is empty"


def test_wire_error_dump_hook_fires(tmp_path):
    """The master's wire-error path routes through the flight dumper."""
    rt = build_runtime("sim", obs_flight_recorder=True,
                       obs_flight_dir=str(tmp_path))
    rt.run()
    dumped = rt.obs.dump_flight("wire-error", {"detail": "synthetic"})
    assert dumped is not None
    doc = json.loads(open(dumped).read())
    assert validate_flight_dump(doc) == []
    assert doc["reason"] == "wire-error"


def test_a_worker_lane_carries_a_fixed_handful_of_ctrl_frames(
        monkeypatch, proc_guard):
    """Every obs knob on: each worker sends the master one hello and
    one stats frame, the master sends it only its peer map and a
    shutdown, and no control frame rides along with a data frame — tsp
    relays several times series' frames over the same control lane."""
    on_frame, ctrl_send = ProcNetwork._on_frame, ProcNetwork._ctrl_send
    handshake = ProcNetwork._handshake

    def lanes(app):
        up, down, data = Counter(), Counter(), [0]

        def count_up(self, node, frame):
            if peek_route(frame, PREFIX_BYTES)[1] == MASTER_ID:
                up[node, self._decode(frame).msg_type] += 1
            else:
                data[0] += 1
            on_frame(self, node, frame)

        def count_down(self, node, msg_type, payload):
            down[node, msg_type] += 1
            return ctrl_send(self, node, msg_type, payload)

        def count_hellos(self, nodes):
            handshake(self, nodes)    # raises unless each opens with hello
            for node in nodes:
                up[node, CTRL_HELLO] += 1

        monkeypatch.setattr(ProcNetwork, "_on_frame", count_up)
        monkeypatch.setattr(ProcNetwork, "_ctrl_send", count_down)
        monkeypatch.setattr(ProcNetwork, "_handshake", count_hellos)
        report = build_runtime("proc", app, obs_wallclock=True,
                               obs_flight_recorder=True).run()
        assert report.result == build_runtime("sim", app).run().result
        return up, down, data[0]

    counts = {app: lanes(app) for app in ("series", "tsp")}
    for up, down, _ in counts.values():
        nodes = range(3)
        assert up == {(n, t): 1 for n in nodes
                      for t in (CTRL_HELLO, CTRL_STATS)}, up
        assert down == {(n, t): 1 for n in nodes
                        for t in (CTRL_PEERS, CTRL_SHUTDOWN)}, down
    (up_s, down_s, data_s), (up_t, down_t, data_t) = (
        counts["series"], counts["tsp"])
    assert data_t > 2 * data_s > 0, (data_s, data_t)
    assert sum(up_s.values()) + sum(down_s.values()) \
        == sum(up_t.values()) + sum(down_t.values()) == 12
