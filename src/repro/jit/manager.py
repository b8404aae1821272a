"""Tiered-execution manager: promotion counters, code cache, installation.

One :class:`JitManager` attaches to the runtime (same pattern as the
ft/locality/policy/race/obs managers); it installs one :class:`JitAgent`
per worker.  The agent owns the per-node table of compiled methods —
``MethodInfo`` objects are *shared* across worker JVMs (one
``RewriteResult``), so it is keyed by ``id(method)`` per agent, and each
agent holds its own traces bound to its own JVM's hooks and heap.  The
text and code object behind them are emitted once per process, keyed by
content (:func:`~repro.jit.codegen.compile_method`): every later JVM of
the brand, in this runtime or the next, only execs the code object.

Tier 0 is the interpreter; tier 1 is a method's traces
(:mod:`repro.jit.codegen`), each put into the method's fused list at its
head, so tier 0's dispatch loop runs both.  Promotion is by count
(``jit_threshold``): every non-native frame push ticks the callee, and
every quantum the method it resumes in (loops that never return still
get hot).  A method the emitter declines (``CompileError``) is
blacklisted forever (``cache[id] = False``) with the reason recorded;
any other exception out of the emitter is a bug and propagates.  A
method compiled before this JVM fused it gets its traces when it is
fused (:meth:`JitAgent.install`): fusing mid-quantum could raise tier
0's margin under a running loop.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, TYPE_CHECKING

from .analysis import CompileError
from .codegen import N_REASONS, REASON_NAMES, TRACED, compile_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..jvm.classfile import MethodInfo
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode


class JitAgent:
    """Per-worker tier-1 compiler and installer."""

    def __init__(self, manager: "JitManager", worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.jvm = worker.jvm
        self.interp = worker.jvm.interpreter
        self.threshold = manager.threshold
        # id(method) -> compiled method (``_jit_make``), or False
        # (blacklisted).
        self.cache: Dict[int, Any] = {}
        # id(method) -> MethodInfo: pins methods (and gives report names).
        self.methods: Dict[int, "MethodInfo"] = {}
        self.counters: Dict[int, int] = {}
        self.compiles = 0
        self.compile_failures: Dict[str, str] = {}  # method -> reason
        # Wall-clock telemetry (None unless obs_wallclock): compile time
        # per method, trace-vs-tier-0 wall time per quantum.
        self.wall = manager.wall
        self.trace_ns = 0
        if self.wall is not None:
            # Instance attribute shadows the method: the hot path stays
            # probe-free when the knob is off.
            self.quantum = self._quantum_timed  # type: ignore
        self.jvm.jit = self
        self.interp.jit = self

    # -- promotion -----------------------------------------------------
    def tick(self, method: "MethodInfo") -> None:
        """One promotion tick: the interpreter calls this on every
        non-native frame push, :meth:`quantum` once per scheduler
        quantum spent in the method."""
        key = id(method)
        if key in self.cache:
            return
        count = self.counters.get(key, 0) + 1
        if count >= self.threshold:
            self._compile(method)
        else:
            self.counters[key] = count

    def _compile(self, method: "MethodInfo") -> None:
        key = id(method)
        self.counters.pop(key, None)
        self.methods[key] = method
        t0 = time.monotonic_ns() if self.wall is not None else 0
        try:
            fn = compile_method(method, self)
        except CompileError as exc:
            # The emitter declined this method; any other exception is
            # an emitter bug and must fail the run, not hide in tier 0.
            self.cache[key] = False
            self.compile_failures[f"{method.klass}.{method.name}"] = (
                f"{type(exc).__name__}: {exc}")
            return
        self.cache[key] = fn
        self.compiles += 1
        fused = self.interp._fused.get(key)
        if fused is not None:
            self.install(method, fused)
        if self.wall is not None:
            self.wall.observe("jit.compile_ns", self.worker.node_id,
                              time.monotonic_ns() - t0)
        self.manager._on_compiled(self.worker.node_id, method)

    def install(self, method: "MethodInfo", fused: List[Any]) -> None:
        """Put ``method``'s traces, if compiled, into this JVM's fused
        list for it, each at its head."""
        fn = self.cache.get(id(method))
        if not fn:
            return
        fn(fused)
        if self.wall is not None:
            for head in fn.heads:
                fused[head] = self._timed(fused[head])

    # -- execution -----------------------------------------------------
    def quantum(self, thread, budget_ns: int):
        """One scheduler quantum: a promotion tick for the method it
        resumes in, then tier 0's dispatch loop, traces and all."""
        frames = thread.frames
        if frames:
            self.tick(frames[-1].method)
        return self.interp.run(thread, budget_ns), thread.state

    def _quantum_timed(self, thread, budget_ns: int):
        """:meth:`quantum`, its wall time split into the traces' and the
        rest (installed only under ``obs_wallclock``)."""
        t0, traced = time.monotonic_ns(), self.trace_ns
        try:
            return JitAgent.quantum(self, thread, budget_ns)
        finally:
            jit_wall = self.trace_ns - traced
            interp_wall = time.monotonic_ns() - t0 - jit_wall
            node = self.worker.node_id
            if interp_wall:
                self.wall.observe("jit.quantum.interp_ns", node, interp_wall)
            if jit_wall:
                self.wall.observe("jit.quantum.jit_ns", node, jit_wall)

    def _timed(self, trace):
        """``trace``, adding its wall time to ``trace_ns``."""
        clock = time.monotonic_ns

        def timed(thread, frame, left):
            t0 = clock()
            try:
                return trace(thread, frame, left)
            finally:
                self.trace_ns += clock() - t0
        return timed

    # -- reporting -----------------------------------------------------
    def _compiled(self) -> Dict[str, Any]:
        out = {}
        for key, fn in self.cache.items():
            if fn is not False:
                m = self.methods[key]
                out[f"{m.klass}.{m.name}"] = fn
        return out

    @property
    def reasons(self) -> List[int]:
        """Trace exits per reason, summed over the compiled methods."""
        return [sum(fn.stats[i] for fn in self._compiled().values())
                for i in range(N_REASONS)]

    @property
    def interp_steps(self) -> int:
        """Instructions this JVM ran outside a trace."""
        return (sum(t.instructions for t in self.jvm.threads)
                - sum(fn.stats[TRACED] for fn in self._compiled().values()))

    def report(self) -> Dict[str, Any]:
        methods = {
            name: {
                "tier": 1,
                "exits": {REASON_NAMES[i]: n
                          for i, n in enumerate(fn.stats[:N_REASONS]) if n},
                "traces": len(fn.heads),
                "lines": fn.source.count("\n"),
                "bytecodes": len(fn.method.code),
            } for name, fn in self._compiled().items()}
        return {
            "node": self.worker.node_id,
            "compiled": self.compiles,
            "blacklisted": dict(self.compile_failures),
            "interp_steps": self.interp_steps,
            "exit_reasons": {REASON_NAMES[i]: n
                             for i, n in enumerate(self.reasons) if n},
            "methods": methods,
        }


class JitManager:
    """Runtime-level facade: attaches one agent per worker, aggregates."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        self.threshold = runtime.config.jit_threshold
        self.agents: List[JitAgent] = []
        # Wall-clock registry (obs attaches before jit; None w/o knob).
        obs = getattr(runtime, "obs", None)
        self.wall = None if obs is None else obs.wallclock

    def attach(self) -> None:
        for worker in self.runtime.workers:
            self._attach_worker(worker)
        self.runtime.hooks.worker_added.append(self._attach_worker)
        self.runtime.hooks.finished.append(self.finalize_metrics)

    def _attach_worker(self, worker: "WorkerNode") -> None:
        self.agents.append(JitAgent(self, worker))

    # -- obs integration -----------------------------------------------
    def _metrics(self):
        obs = getattr(self.runtime, "obs", None)
        return None if obs is None else obs.metrics

    def _on_compiled(self, node_id: int, method: "MethodInfo") -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.inc("jit.compiles", node_id)
        obs = getattr(self.runtime, "obs", None)
        if obs is not None:
            obs.flight_record(node_id, "jit.compile",
                              method=f"{method.klass}.{method.name}")

    def finalize_metrics(self) -> None:
        """Publish cumulative jit.* counters (at the end of the run)."""
        metrics = self._metrics()
        if metrics is None:
            return
        for agent in self.agents:
            node = agent.worker.node_id
            for i, n in enumerate(agent.reasons):
                if n:
                    metrics.inc(f"jit.exit.{REASON_NAMES[i]}", node, n)
            if agent.compile_failures:
                metrics.inc("jit.blacklisted", node,
                            len(agent.compile_failures))

    def report(self) -> Dict[str, Any]:
        per_node = [a.report() for a in self.agents]
        exits: Dict[str, int] = {}
        for rep in per_node:
            for name, n in rep["exit_reasons"].items():
                exits[name] = exits.get(name, 0) + n
        methods: Dict[str, Dict[str, Any]] = {}
        for rep in per_node:
            for name, info in rep["methods"].items():
                agg = methods.setdefault(name, {**info, "exits": {}})
                for r, n in info["exits"].items():
                    agg["exits"][r] = agg["exits"].get(r, 0) + n
        return {
            "threshold": self.threshold,
            "compiled_methods": sorted(methods),
            "compiles": sum(r["compiled"] for r in per_node),
            "blacklisted": {k: v for r in per_node
                            for k, v in r["blacklisted"].items()},
            "exit_reasons": exits,
            "deopts": exits.get("deopt", 0),
            "methods": methods,
            "nodes": per_node,
        }
