"""Child process of one benchmark run: set up one workload, time passes.

``run.py`` starts this file once per set-up sample and once to measure,
so every sample sees a fresh interpreter (``import repro`` is part of
set-up) and peak RSS is the workload's own.  The last line of standard
output is one JSON object; ``run.py`` turns it into the benchmark's
result line.

A *pass* is one trip through the whole pipeline: for a batch workload
source text -> ``compile_source`` -> ``rewrite_application`` ->
``JavaSplitRuntime(...)`` -> ``run()`` -> result check; for a serve
workload every ``run_scenario`` call of the workload.  End-to-end
numbers come from untraced passes, scaled to a quiet reference host
(``HostScale``).  With ``--trace 1`` further passes run under the span
wrappers of ``spans.py`` and give the per-layer times; counts are taken
from the runtime's own statistics and repeat exactly from pass to pass.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.lang
import repro.rewriter
import repro.runtime
import repro.serve.app
import repro.serve.scenario
from repro.check import InvariantMonitor, SingleCopyOracle

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

#: Protocol message types with their own handler self-time metric.
DSM_TYPES = ("fetch_req", "fetch_reply", "token", "owner_update", "diff",
             "diff_ack", "lock_req", "lock_fwd", "spawn")
JIT_EXITS = ("budget", "block_read", "block_write", "block_static",
             "block_acquire", "block_monitor", "block_native", "call_exit",
             "return", "deopt")
#: One subsystem switched on alone, for the knob.<name>.wall_ratio
#: metrics ("check" attaches the oracle and the monitor instead).
KNOBS: Dict[str, Dict[str, Any]] = {
    "ft": {"ft_enabled": True, "reliable_transport": True},
    "locality": {"locality_migration": True, "locality_prefetch": True,
                 "locality_aggregation": True},
    "policy": {"policy_update": True, "policy_migratory": True,
               "policy_broadcast": True},
    "race": {"race_detect": True},
    "obs": {"obs_metrics": True, "obs_spans": True, "obs_profile": True},
    "check": {},
}


#: Called by a runner after each separately timed part of a pass (the
#: whole pass of a batch workload, each ``run_scenario`` call of a serve
#: workload) with the part's wall seconds.
Segment = Optional[Callable[[float], None]]


class Pass:
    """Outcome of one pipeline pass."""

    def __init__(self) -> None:
        #: Seconds as measured, and scaled to the reference host
        #: (``HostScale``), with the calibration that scaled them.
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.calib_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Seed-deterministic numbers: identical in every pass.
        self.exact: Dict[str, float] = {}
        #: Wall-clock numbers the runtime itself collected
        #: (``obs_wallclock`` histograms); traced passes only.
        self.walled: Dict[str, float] = {}


# ---------------------------------------------------------------------------
# Reading the runtime's own statistics
# ---------------------------------------------------------------------------

def static_counts(source: str) -> Dict[str, float]:
    """What the compiler and the rewriter emit for ``source``."""
    classes = repro.lang.compile_source(source)
    rewritten = repro.rewriter.rewrite_application(list(classes))
    out_code = [instr for cf in rewritten.classfiles.values()
                for m in cf.methods.values() for instr in m.code]
    return {
        "lang.classes": len(classes),
        "lang.instrs_out": sum(len(m.code) for cf in classes
                               for m in cf.methods.values()),
        "rewriter.instrs_out": len(out_code),
        "rewriter.checked_instrs": sum(1 for i in out_code if i.checked),
        "rewriter.checks_elided": rewritten.stats["checks_eliminated"],
    }


def runtime_counts(runtime: Any) -> Dict[str, float]:
    """Exact counters of one finished runtime, by layer."""
    out: Dict[str, float] = {}
    net = runtime.network.stats
    sim_ns = runtime.engine.now
    out["sim_ms"] = sim_ns / 1e6
    out["sim.events"] = runtime.engine.events_fired
    cpus = sum(w.node.num_cpus for w in runtime.workers)
    out["sim.node_busy_share"] = (
        sum(w.node.busy_ns for w in runtime.workers) / (cpus * sim_ns))
    out["jvm.bytecodes"] = sum(t.instructions for w in runtime.workers
                               for t in w.jvm.threads)
    for field in ("fetches", "fetch_bytes", "diffs_sent", "diff_bytes",
                  "token_transfers", "fence_waits", "invalidations",
                  "local_acquires", "shared_acquires"):
        out[f"dsm.{field}"] = sum(getattr(w.dsm.stats, field)
                                  for w in runtime.workers)
    out["net.messages"] = net.messages
    out["net.bytes"] = net.bytes
    out["net.dropped"] = net.dropped
    out["net.retransmits"] = sum(w.transport.stats.retransmissions
                                 for w in runtime.workers)
    out["wire.frames"] = net.wire_frames
    out["wire.bytes"] = net.wire_bytes
    out["wire.fallback"] = net.wire_fallback
    out["ft.overhead_msgs"] = sum(
        n for n, _ in net.subsystem_overhead()["ft"].values())
    if runtime.jit is not None:
        jit = runtime.jit.report()
        out["jit.methods_compiled"] = jit["compiles"]
        out["jit.exits"] = sum(jit["exit_reasons"].values())
        for reason in JIT_EXITS:
            out[f"jit.exits.{reason}"] = jit["exit_reasons"].get(reason, 0)
        out["jit.interp_steps"] = sum(n["interp_steps"]
                                      for n in jit["nodes"])
    return out


def runtime_walled(runtime: Any) -> Dict[str, float]:
    """Wall-clock histograms the runtime collected under obs_wallclock."""
    wall = None if runtime.obs is None else runtime.obs.wallclock
    if wall is None:
        return {}
    out: Dict[str, float] = {}
    rtt = wall.histogram("net.rtt_ns")
    if rtt.count:
        out["procnet.rtt_p50_us"] = rtt.quantile(0.5) / 1e3
        out["procnet.rtt_p99_us"] = rtt.quantile(0.99) / 1e3
        out["procnet.relay_s"] = rtt.total / 1e9
        out["procnet.us_per_frame"] = rtt.total / 1e3 / rtt.count
        out["procnet.loop_lag_p99_us"] = (
            wall.histogram("worker.loop_lag_ns").quantile(0.99) / 1e3)
    jit_ns = wall.histogram("jit.quantum.jit_ns").total
    interp_ns = wall.histogram("jit.quantum.interp_ns").total
    if jit_ns + interp_ns:
        out["jit.wall_share"] = jit_ns / (jit_ns + interp_ns)
        out["jit.compile_ms"] = wall.histogram("jit.compile_ns").total / 1e6
    return out


def _add(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# ---------------------------------------------------------------------------
# Runners: one per workload kind
# ---------------------------------------------------------------------------

class BatchRunner:
    def __init__(self, wl: workloads.Batch, seed: int, quick: bool) -> None:
        self.wl = wl
        self.params = wl.params(seed, quick)
        self.source = wl.source(self.params, wl.threads)
        self.expected = wl.expected(self.params)
        self.config: Dict[str, Any] = dict(
            num_nodes=workloads.NODES, cpus_per_node=workloads.CPUS,
            brands=(workloads.BRAND,), seed=seed, **wl.config)
        self.static = static_counts(self.source)
        # The runtime's own wall-clock histograms carry the socket
        # round trips and the interpreter/JIT split of a traced pass.
        self.trace_config = (
            {"obs_wallclock": True}
            if wl.config.get("transport_backend") == "proc"
            or wl.config.get("jit_enable") else {})

    def sizes(self) -> Dict[str, Any]:
        return dict(self.params, threads=self.wl.threads, **self.wl.config)

    def one_pass(self, overrides: Optional[Dict[str, Any]] = None,
                 checked: bool = False, segment: Segment = None) -> Pass:
        out = Pass()
        out.attempted = 1
        t0 = time.perf_counter()
        try:
            classes = repro.lang.compile_source(self.source)
            rewritten = repro.rewriter.rewrite_application(list(classes))
            config = repro.runtime.RuntimeConfig(
                **{**self.config, **(overrides or {})})
            runtime = repro.runtime.JavaSplitRuntime(rewritten, config)
            checkers = ([InvariantMonitor.attach(runtime),
                         SingleCopyOracle.attach(runtime)]
                        if checked else [])
            report = runtime.run()
            for checker in checkers:
                out.errors += [str(v) for v in checker.finalize()]
            if report.result != self.expected:
                out.errors.append(f"result {report.result!r}, expected "
                                  f"{self.expected!r}")
            if report.net.wire_fallback:
                out.errors.append(
                    f"wire_fallback {report.net.wire_fallback}")
        except Exception:  # noqa: BLE001 - a crashed pass is a failed pass
            out.errors.append(traceback.format_exc())
            runtime = None
        out.wall_s = time.perf_counter() - t0
        if segment is not None:
            segment(out.wall_s)
        out.failed = 1 if out.errors else 0
        if runtime is not None:
            out.exact = dict(self.static, **runtime_counts(runtime))
            out.exact["check.violations"] = 0
            out.walled = runtime_walled(runtime)
        return out

    def baseline(self, errors: List[str]) -> Dict[str, float]:
        """The paper's speed-up base: the original program with 2
        threads on one dual-CPU node."""
        if not self.wl.has_baseline:
            return {}
        report = repro.runtime.run_original(
            source=self.wl.source(self.params, 2), cpus=2)
        if report.result != self.expected:
            errors.append(f"baseline result {report.result!r}, "
                          f"expected {self.expected!r}")
        return {"sim.baseline_ms": report.simulated_ns / 1e6}


class ServeRunner:
    SLO_P95_MS = 300.0      # latency limit for slo_rate_rps
    SLO_GROWTH = 1.5        # second-phase p95 over first-phase p95

    def __init__(self, wl: workloads.Serve, seed: int, quick: bool) -> None:
        self.wl = wl
        self.steps = wl.steps(seed, quick)
        first = self.steps[0].scenario
        self.static = static_counts(repro.serve.app.make_source(
            tenants=first.tenants, workers=first.workers,
            sessions=first.sessions, stripes=first.stripes,
            work_scale=first.work_scale))
        self.trace_config: Dict[str, Any] = {}

    def sizes(self) -> Dict[str, Any]:
        return {"steps": [{"rate_rps": s.rate_rps, "seed": s.seed,
                           "phases_ms": [p.duration_ms
                                         for p in s.scenario.phases],
                           "kill": s.scenario.kill}
                          for s in self.steps]}

    def one_pass(self, overrides: Optional[Dict[str, Any]] = None,
                 segment: Segment = None) -> Pass:
        out = Pass()
        ex = out.exact
        for step in self.steps:
            holder: List[Any] = []
            t0 = time.perf_counter()
            doc = repro.serve.scenario.run_scenario(
                step.scenario, seed=step.seed, config_overrides=overrides,
                on_runtime=holder.append)
            step_s = time.perf_counter() - t0
            out.wall_s += step_s
            if segment is not None:
                segment(step_s)
            runtime = holder[0]
            injected = doc["requests"]["injected"]
            completed = doc["requests"]["completed"]
            out.attempted += injected
            if doc["ok"]:
                out.failed += injected - completed
            else:
                out.failed += injected
                out.errors.append(
                    f"{step.label}: {doc.get('error')} "
                    f"{doc['oracle']['violations'][:3]}")
            _add(ex, runtime_counts(runtime))
            _add(ex, {"serve.injected": injected,
                      "serve.completed": completed,
                      "check.violations": len(doc["oracle"]["violations"])})
            metrics = runtime.obs.metrics
            latency = metrics.histogram("serve.latency_ns")
            p50 = latency.quantile(0.5) / 1e6
            p95 = latency.quantile(0.95) / 1e6
            if len(self.steps) > 1:
                ex[f"serve.p50_sim_ms.{step.label}"] = p50
                ex[f"serve.p95_sim_ms.{step.label}"] = p95
                first = metrics.histogram("serve.latency_ns.p0")
                second = metrics.histogram("serve.latency_ns.p1")
                if (p95 <= self.SLO_P95_MS and completed == injected
                        and second.quantile(0.95)
                        <= self.SLO_GROWTH * first.quantile(0.95)):
                    ex["slo_rate_rps"] = max(ex.get("slo_rate_rps", 0),
                                             step.rate_rps)
            if step.rate_rps == 80 or len(self.steps) == 1:
                ex["req_p50_sim_ms"] = p50
                ex["req_p95_sim_ms"] = p95
            if runtime.ft is not None:
                records = runtime.ft.report()["recoveries"]
                ex["ft.recoveries"] = len(records)
                ex["ft.recovery_sim_ms"] = sum(
                    r["recovered_ns"] / 1e6 - step.kill_ms for r in records)
        # Shares are per step; the pass reports their mean.
        ex["sim.node_busy_share"] /= len(self.steps)
        ex.update(self.static)
        return out

    def baseline(self, errors: List[str]) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# Per-layer times from the spans of one traced pass
# ---------------------------------------------------------------------------

def _per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


def layer_times(tracer: spans.Tracer, traced: Pass) -> Dict[str, float]:
    self_of = tracer.self_of
    run_s = tracer.total("runtime.run")
    handler_calls = sum(v[0] for k, v in tracer.agg.items()
                        if k.startswith("handler.dsm."))
    handler_self = tracer.self_time("handler.dsm.")
    codec_s = self_of("wire.encode") + self_of("wire.decode")
    ex = traced.exact
    out = {
        "lang.compile_ms": tracer.total("lang.compile") * 1e3,
        "rewriter.rewrite_ms": tracer.total("rewriter.rewrite") * 1e3,
        "runtime.build_ms": tracer.total("runtime.build") * 1e3,
        "runtime.run_ms": run_s * 1e3,
        "runtime.report_ms": self_of("runtime.run") * 1e3,
        "jvm.quanta": tracer.calls("jvm.quantum"),
        "jvm.busy_s": tracer.total("jvm.quantum"),
        "jvm.self_s": self_of("jvm.quantum"),
        "jvm.bytecodes_per_s": _per(ex.get("jvm.bytecodes", 0), run_s),
        "dsm.calls_self_s": tracer.self_time("dsm.call."),
        "dsm.handler_self_s": handler_self,
        "dsm.handler_us_per_msg": _per(handler_self * 1e6, handler_calls),
        "dsm.serialize_s": (self_of("dsm.serialize")
                            + self_of("dsm.deserialize")),
        "dsm.diff_s": tracer.self_time("dsm.diff."),
        "net.msgs_per_s": _per(ex.get("net.messages", 0), run_s),
        "net.transport_self_s": (self_of("net.transport.send")
                                 + self_of("handler.transport.ack")),
        "net.simnet_self_s": self_of("net.simnet.send"),
        "wire.encode_s": self_of("wire.encode"),
        "wire.decode_s": self_of("wire.decode"),
        "wire.mb_per_s": _per(ex.get("wire.bytes", 0) / 1e6, codec_s),
        "procnet.spawn_ms": tracer.total("procnet.spawn") * 1e3,
        "sim.events_per_s": _per(ex.get("sim.events", 0),
                                 tracer.total("sim.run")),
        "sim.self_s": self_of("sim.step") + self_of("sim.run"),
        "serve.reference_ms": tracer.total("serve.reference") * 1e3,
        "check.oracle_self_s": tracer.self_time("check.oracle."),
        "check.monitor_self_s": tracer.self_time("check.monitor."),
        "ft.handler_self_s": tracer.self_time("handler.ft."),
    }
    for mtype in DSM_TYPES:
        out[f"dsm.handler_self_s.{mtype}"] = self_of(f"handler.dsm.{mtype}")
    out.update(traced.walled)
    return out


#: What ``HostScale.calibrate`` returns on the host class the sizes were
#: chosen on (2-core shared Xeon 2.1 GHz VM) while it is quiet.
CALIB_REF_S = 0.075


class HostScale:
    """Scales wall times to a quiet reference host.

    The shared hosts this runs on slow down by 10-60% for seconds to
    minutes at a time, and a fixed arithmetic loop slows down with them.
    Each timed part of a pass is multiplied by ``CALIB_REF_S`` over the
    mean of the loop's times just before and just after it.  On a quiet
    host of the reference class the factor is 1 and the result is plain
    seconds; elsewhere it is what the part would have taken there,
    which is comparable between runs and hosts.  The loop shares no
    code with ``repro``, so a faster program cannot hide in it.
    """

    def __init__(self) -> None:
        self._last = 0.0
        self._scaled = 0.0
        self._calibs: List[float] = []

    def calibrate(self) -> float:
        """Time the loop now; the value also opens the next part."""
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x = (x * 31 + i) % 65521
        self._last = time.perf_counter() - t0
        return self._last

    def segment(self, wall_s: float) -> None:
        """Account one timed part that ended just now."""
        before = self._last
        calib = (before + self.calibrate()) / 2
        self._calibs.append(calib)
        self._scaled += wall_s * CALIB_REF_S / calib

    def take(self) -> Tuple[float, float]:
        """(scaled seconds, mean calibration) since the last take."""
        out = self._scaled, statistics.mean(self._calibs)
        self._scaled, self._calibs = 0.0, []
        return out


def profile_shares(one_pass: Callable[[], Pass]) -> Dict[str, float]:
    """cProfile ``tottime`` share per ``src/repro/<package>`` over one
    pass: a cross-check of the span self times that survives any
    renaming of the wrapped entry points."""
    profiler = cProfile.Profile()
    profiler.enable()
    one_pass()
    profiler.disable()
    marker = os.sep + os.path.join("src", "repro") + os.sep
    by_package: Dict[str, float] = {}
    total = 0.0
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        total += tottime
        if marker in filename:
            rest = filename.split(marker, 1)[1]
            package = rest.split(os.sep)[0] if os.sep in rest else "repro"
        elif filename == "<string>":
            package = "exec"        # code compiled at run time: the JIT's
        else:
            package = "other"
        by_package[package] = by_package.get(package, 0.0) + tottime
    return {f"prof.share.{k}": v / total
            for k, v in sorted(by_package.items())}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def timed_passes(scale: HostScale, one_pass: Callable[..., Pass],
                 t_end: float, reps: Optional[int], least: int) -> List[Pass]:
    """Passes back to back until ``time.perf_counter()`` reaches
    ``t_end`` (at least ``least``), or exactly ``reps`` of them, each
    scaled to the reference host.  The heap is collected between
    passes."""
    out: List[Pass] = []
    while (len(out) < reps if reps is not None
           else len(out) < least or time.perf_counter() < t_end):
        gc.collect()
        done = one_pass(segment=scale.segment)
        done.scaled_s, done.calib_s = scale.take()
        out.append(done)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the proc backend's forked node workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def traced_layers(scale: HostScale, runner: Any, plain: List[Pass],
                  t_end: float, reps: Optional[int],
                  trace_out: Optional[str], errors: List[str]
                  ) -> Dict[str, float]:
    """Every per-layer number of one ``--trace 1`` run."""
    exact = plain[0].exact
    scaled_s = statistics.median(p.scaled_s for p in plain)
    layers: Dict[str, float] = dict(exact)
    layers.update(runner.baseline(errors))
    if "sim.baseline_ms" in layers:
        layers["sim.speedup"] = layers["sim.baseline_ms"] / exact["sim_ms"]
    layers.update({
        "wall_raw_s": statistics.median(p.wall_s for p in plain),
        "req_per_s": exact.get("serve.completed", 0) / scaled_s,
        "fail_share": (sum(p.failed for p in plain)
                       / sum(p.attempted for p in plain)),
        "host.nproc": os.cpu_count() or 0,
        "host.calib_s": statistics.median(p.calib_s for p in plain),
    })

    tracers: List[spans.Tracer] = []

    def traced_pass(segment: Segment) -> Pass:
        tracers.append(spans.Tracer())
        with tracers[-1]:
            return runner.one_pass(runner.trace_config, segment=segment)

    traced = timed_passes(scale, traced_pass, t_end, reps and 1, least=1)
    times: Dict[str, List[float]] = {}
    for tracer, done in zip(tracers, traced):
        errors += done.errors
        for key, value in layer_times(tracer, done).items():
            times.setdefault(key, []).append(value)
    layers.update({k: statistics.median(v) for k, v in times.items()})
    layers["trace.overhead_ratio"] = statistics.median(
        p.scaled_s for p in traced) / scaled_s
    if trace_out:
        tracers[-1].write_chrome_trace(trace_out)

    if runner.wl.name == "tsp_jit":
        # ROADMAP 1(d): what each subsystem costs when switched on alone.
        for knob, overrides in KNOBS.items():
            done = timed_passes(
                scale, lambda segment: runner.one_pass(
                    overrides, checked=knob == "check", segment=segment),
                0.0, 1, 1)[0]
            errors += done.errors
            layers[f"knob.{knob}.wall_ratio"] = done.scaled_s / scaled_s
    return layers


def measure(args: argparse.Namespace, scale: HostScale) -> Dict[str, Any]:
    """Set up, warm up and measure; the child's output document."""
    wl = workloads.WORKLOADS[args.workload]
    runner = (BatchRunner if isinstance(wl, workloads.Batch)
              else ServeRunner)(wl, args.seed, args.quick)
    if args.break_expected:
        runner.expected += 1
    warmup = runner.one_pass()
    # Set-up: everything from the parent's spawn to the end of the
    # warm-up pass, scaled by the calibration that follows it (the
    # first calibration of a fresh process is not to be trusted, so
    # none is taken before).
    setup_raw_s = time.monotonic() - args.t0
    doc: Dict[str, Any] = {
        "setup_s": setup_raw_s * CALIB_REF_S / scale.calibrate(),
        "setup_raw_s": setup_raw_s,
        "sizes": runner.sizes(), "errors": warmup.errors}
    if args.setup_only:
        return doc

    # One measuring window.  A traced run spends it on two untraced
    # passes (the base of its ratios, and the exact counts) and then on
    # traced ones.
    t_end = time.perf_counter() + args.seconds
    plain = timed_passes(scale, runner.one_pass,
                         0.0 if args.trace else t_end,
                         args.reps, least=2 if args.trace else 3)
    errors = [e for p in plain for e in p.errors]
    exact = plain[0].exact
    for p in plain[1:]:
        if p.exact != exact:
            errors.append("exact metrics differ between passes: " + str(
                {k: (exact.get(k), p.exact.get(k))
                 for k in set(exact) | set(p.exact)
                 if exact.get(k) != p.exact.get(k)}))
    scaled = [p.scaled_s for p in plain]
    doc.update({
        "attempted": sum(p.attempted for p in plain),
        "failed": sum(p.failed for p in plain),
        "samples": {"wall_s": scaled,
                    "wall_raw_s": [p.wall_s for p in plain],
                    "calib_s": [p.calib_s for p in plain]},
        "end_to_end": {"wall_s": statistics.median(scaled),
                       "peak_rss_mb": peak_rss_mb()},
    })
    if args.trace:
        doc["per_layer"] = traced_layers(
            scale, runner, plain, t_end, args.reps, args.trace_out, errors)
    if args.profile:
        doc["profile"] = profile_shares(runner.one_pass)
    doc["errors"] = errors
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=7.0)
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent at spawn")
    ap.add_argument("--break-expected", action="store_true",
                    help=argparse.SUPPRESS)   # self-test: batch only
    args = ap.parse_args(argv)

    print(json.dumps(measure(args, HostScale())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
