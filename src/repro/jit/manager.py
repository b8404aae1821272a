"""Tiered-execution manager: promotion counters, code cache, quanta.

One :class:`JitManager` attaches to the runtime (same pattern as the
ft/locality/policy/race/obs managers); it installs one :class:`JitAgent`
per worker.  The agent owns the per-node table of compiled functions —
``MethodInfo`` objects are *shared* across worker JVMs (one
``RewriteResult``), so it is keyed by ``id(method)`` per agent, and each
agent holds its own function bound to its own JVM's hooks and heap.  The
text and code object behind it are emitted once per process, keyed by
content (:func:`~repro.jit.codegen.compile_method`): every later JVM of
the brand, in this runtime or the next, only execs the code object.

Tier 0 is the unmodified interpreter.  Tier 1 is the codegen'd Python
function (:mod:`repro.jit.codegen`).  Promotion is by invocation count
(``jit_threshold``); a method the emitter declines (``CompileError``)
is blacklisted forever (``cache[id] = False``) with the reason recorded;
any other exception out of the emitter is a bug and propagates.

``run_quantum`` replaces ``JThread.run_quantum``'s interpret loop:

* pc at a compiled entry → run the compiled function, account its
  reason;
* pc elsewhere (interpreter tails end quanta at arbitrary pcs), method
  not compiled, or blacklisted → one interpreter step;
* ``R_BUDGET`` → finish the quantum with the interpreter so the
  overshoot boundary is bit-identical to tier 0;
* ``R_DEOPT``/``R_CALL`` → one interpreter step executes the pc the
  compiled code could not (budget permitting — otherwise the next
  quantum re-enters the stub with fresh budget).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..sim.node import StreamState
from .analysis import CompileError
from .codegen import (
    N_REASONS,
    R_BUDGET,
    R_CALL,
    R_DEOPT,
    REASON_NAMES,
    compile_method,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..jvm.classfile import MethodInfo
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode

_RUNNABLE = StreamState.RUNNABLE


class JitAgent:
    """Per-worker tier-1 compiler + quantum driver."""

    def __init__(self, manager: "JitManager", worker: "WorkerNode") -> None:
        self.manager = manager
        self.worker = worker
        self.jvm = worker.jvm
        self.interp = worker.jvm.interpreter
        self.threshold = manager.threshold
        # id(method) -> compiled fn, or False (blacklisted).
        self.cache: Dict[int, Any] = {}
        # id(method) -> MethodInfo: pins methods (and gives report names).
        self.methods: Dict[int, "MethodInfo"] = {}
        self.counters: Dict[int, int] = {}
        self.compiles = 0
        self.compile_failures: Dict[str, str] = {}  # method -> reason
        self.reasons = [0] * N_REASONS  # aggregated fn exit reasons
        self.interp_steps = 0
        # Wall-clock telemetry (None unless obs_wallclock): compile time
        # per method, interpreter-vs-JIT wall time per quantum.
        self.wall = manager.wall
        if self.wall is not None:
            # Instance attribute shadows the method: the hot path stays
            # probe-free when the knob is off.
            self.run_quantum = self._run_quantum_timed  # type: ignore
        self.jvm.jit = self
        self.interp.jit = self

    # -- promotion -----------------------------------------------------
    def tick(self, method: "MethodInfo") -> None:
        """One promotion tick: the interpreter calls this on every
        non-native frame push, ``run_quantum`` once per scheduler
        quantum spent in the method (loops that never return still get
        hot)."""
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
        if self.wall is not None:
            compile_ns = time.monotonic_ns() - t0
            self.wall.observe(
                "jit.compile_ns", self.worker.node_id, compile_ns)
            self.manager.note_tier(self.worker.node_id, method, compile_ns)
        self.manager._on_compiled(self.worker.node_id, method)

    # -- execution -----------------------------------------------------
    def run_quantum(self, thread, budget_ns: int):
        """Drop-in for JThread.run_quantum's interpret loop."""
        consumed = 0
        interp = self.interp
        cache = self.cache
        frames = thread.frames
        if frames:
            self.tick(frames[-1].method)
        while consumed < budget_ns and thread.state is _RUNNABLE:
            frame = frames[-1]
            fn = cache.get(id(frame.method))
            if fn is None or fn is False or frame.pc not in fn.entries:
                consumed += interp.step(thread)
                self.interp_steps += 1
                continue
            used, reason = fn(thread, frame, budget_ns - consumed, 0)
            consumed += used
            fn.stats[reason] += 1
            self.reasons[reason] += 1
            if reason == R_BUDGET:
                # Interpreter tail: tier 0's own loop, so its overshoot.
                before = thread.instructions
                try:
                    consumed = interp.run(thread, budget_ns, consumed)
                finally:
                    self.interp_steps += thread.instructions - before
                break
            if reason == R_DEOPT or reason == R_CALL:
                # The interpreter must execute this pc (deopt site, or
                # an invoke whose callee is not compiled).
                if consumed < budget_ns and thread.state is _RUNNABLE:
                    consumed += interp.step(thread)
                    self.interp_steps += 1
        return consumed, thread.state

    def _run_quantum_timed(self, thread, budget_ns: int):
        """``run_quantum`` with per-quantum wall-clock attribution
        (installed only under ``obs_wallclock``).  Same control flow;
        every interpreter step and compiled-fn call is bracketed with
        the monotonic clock, observed once per quantum."""
        consumed = 0
        interp_wall = 0
        jit_wall = 0
        interp = self.interp
        cache = self.cache
        frames = thread.frames
        clock = time.monotonic_ns
        if frames:
            self.tick(frames[-1].method)
        while consumed < budget_ns and thread.state is _RUNNABLE:
            frame = frames[-1]
            fn = cache.get(id(frame.method))
            if fn is None or fn is False or frame.pc not in fn.entries:
                t0 = clock()
                consumed += interp.step(thread)
                interp_wall += clock() - t0
                self.interp_steps += 1
                continue
            t0 = clock()
            used, reason = fn(thread, frame, budget_ns - consumed, 0)
            jit_wall += clock() - t0
            consumed += used
            fn.stats[reason] += 1
            self.reasons[reason] += 1
            if reason == R_BUDGET:
                t0 = clock()
                before = thread.instructions
                try:
                    consumed = interp.run(thread, budget_ns, consumed)
                finally:
                    self.interp_steps += thread.instructions - before
                interp_wall += clock() - t0
                break
            if reason == R_DEOPT or reason == R_CALL:
                if consumed < budget_ns and thread.state is _RUNNABLE:
                    t0 = clock()
                    consumed += interp.step(thread)
                    interp_wall += clock() - t0
                    self.interp_steps += 1
        node = self.worker.node_id
        if interp_wall:
            self.wall.observe("jit.quantum.interp_ns", node, interp_wall)
        if jit_wall:
            self.wall.observe("jit.quantum.jit_ns", node, jit_wall)
        return consumed, thread.state

    # -- reporting -----------------------------------------------------
    def report(self) -> Dict[str, Any]:
        methods = {}
        for key, fn in self.cache.items():
            m = self.methods.get(key)
            name = f"{m.klass}.{m.name}" if m is not None else f"@{key:x}"
            if fn is False:
                continue
            methods[name] = {
                "tier": 1,
                "exits": {REASON_NAMES[i]: n
                          for i, n in enumerate(fn.stats) if n},
                "lines": fn.source.count("\n"),
                "bytecodes": len(fn.method.code),
            }
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
        # Tier-transition log: when (both clocks) each method went tier 1.
        self.tier_events: List[Dict[str, Any]] = []

    def note_tier(self, node_id: int, method: "MethodInfo",
                  compile_ns: int) -> None:
        """Record one tier-0 → tier-1 transition with both timestamps."""
        self.tier_events.append({
            "node": node_id,
            "method": f"{method.klass}.{method.name}",
            "tier": 1,
            "sim_ns": self.runtime.engine.now,
            "wall_ns": time.monotonic_ns(),
            "compile_ns": compile_ns,
        })

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
        out: Dict[str, Any] = {
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
        if self.tier_events:
            out["tier_events"] = self.tier_events[:200]
        return out
