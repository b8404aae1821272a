"""Span wrappers around the public entry points of each layer.

The benchmark measures layers *from outside*: nothing under ``src/`` is
edited.  :class:`Tracer` replaces a fixed list of public functions and
methods (:data:`TARGETS`) with timing wrappers for the duration of one
traced pass and puts the originals back afterwards.

Every wrapper call is a span: name, start, end, parent.  A span's self
time is its duration minus the time its direct children cover, so the
self times of all spans partition the traced wall time and never sum to
more than it.  Self times are accumulated per name as the spans close.
Entry points called hundreds of thousands of times per pass (the DSM
access checks, the event loop's ``step``, the codecs) are aggregated
only; the rest are also kept as individual spans for the Chrome-trace
export.  ``Interpreter.step`` (one call per bytecode) is never wrapped.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name, keep individual spans).
#: ``SimNetwork.attach`` is wrapped too, separately (``_wrap_attach``).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.lang", None, "compile_source", "lang.compile", True),
    ("repro.rewriter.rewriter", None, "rewrite_application",
     "rewriter.rewrite", True),
    ("repro.runtime.javasplit", "JavaSplitRuntime", "__init__",
     "runtime.build", True),
    ("repro.runtime.javasplit", "JavaSplitRuntime", "run",
     "runtime.run", True),
    ("repro.sim.engine", "SimEngine", "run_until_idle", "sim.run", True),
    ("repro.sim.engine", "SimEngine", "step", "sim.step", False),
    ("repro.jvm.jvm", "JThread", "run_quantum", "jvm.quantum", True),
    ("repro.dsm.protocol", "DsmEngine", "read_check",
     "dsm.call.read_check", False),
    ("repro.dsm.protocol", "DsmEngine", "write_check",
     "dsm.call.write_check", False),
    ("repro.dsm.protocol", "DsmEngine", "acquire", "dsm.call.acquire", True),
    ("repro.dsm.protocol", "DsmEngine", "release", "dsm.call.release", True),
    ("repro.dsm.protocol", "DsmEngine", "spawn", "dsm.call.spawn", True),
    ("repro.dsm.protocol", "DsmEngine", "end_interval",
     "dsm.call.end_interval", True),
    ("repro.net.transport", "Transport", "send", "net.transport.send", False),
    ("repro.net.simnet", "SimNetwork", "send", "net.simnet.send", False),
    ("repro.dsm.serialization", None, "serialize_any",
     "dsm.serialize", False),
    ("repro.dsm.serialization", None, "deserialize_any",
     "dsm.deserialize", False),
    ("repro.dsm.diffs", None, "compute_diff", "dsm.diff.compute", False),
    ("repro.dsm.diffs", None, "apply_diff", "dsm.diff.apply", False),
    ("repro.net.wire", None, "encode_frame", "wire.encode", False),
    ("repro.net.wire", None, "decode_frame", "wire.decode", False),
    ("repro.net.procnet", "ProcNetwork", "start", "procnet.spawn", True),
    ("repro.net.procnet", "ProcNetwork", "stop", "procnet.stop", True),
    ("repro.serve.scenario", None, "run_serve_reference",
     "serve.reference", True),
    ("repro.check.oracle", "SingleCopyOracle", "attach",
     "check.oracle.attach", True),
    ("repro.check.oracle", "SingleCopyOracle", "finalize",
     "check.oracle.finalize", True),
    ("repro.check.monitor", "InvariantMonitor", "attach",
     "check.monitor.attach", True),
    ("repro.check.monitor", "InvariantMonitor", "finalize",
     "check.monitor.finalize", True),
)

_MARK = "__e2e_span__"
#: Aggregate of a span name that never ran: calls, total, self.
_NEVER = (0, 0.0, 0.0)


def _repro_modules() -> List[Any]:
    """Every ``repro.*`` module, imported: a module-level function has to
    be replaced in each namespace that did ``from x import f``."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


class Tracer:
    """Installs the span wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: (name, start, end, parent index or -1), in opening order.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        # One entry per open span, innermost last: the seconds its
        # children have covered so far.
        self._child: List[float] = []
        # Indexes into ``spans`` of the open kept spans, innermost last.
        self._kept: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ------------------------------------------------------
    def _entry(self, name: str) -> List[float]:
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        return entry

    def wrap(self, name: str, fn: Callable[..., Any], keep: bool,
             name_of: Optional[Callable[[tuple], str]] = None
             ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name`` (``name_of(args)``
        overrides the name per call)."""
        child = self._child
        kept = self._kept
        spans = self.spans
        entry_of = self._entry
        clock = time.perf_counter

        if not keep:
            # The hot path (up to 10^6 calls per pass): aggregate only.
            entry = entry_of(name)

            def span(*args: Any, **kwargs: Any) -> Any:
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    own = dur - child.pop()
                    if child:
                        child[-1] += dur
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += own
        else:
            def span(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                parent = kept[-1] if kept else -1
                kept.append(index)
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    own = dur - child.pop()
                    kept.pop()
                    if child:
                        child[-1] += dur
                    key = name if name_of is None else name_of(args)
                    entry = entry_of(key)
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += own
                    spans[index] = (key, t0, t1, parent)

        setattr(span, _MARK, True)
        return span

    def _wrap_attach(self, attach: Callable[..., Any]) -> Callable[..., Any]:
        """``SimNetwork.attach`` hands the network each node's delivery
        handler; wrap that handler so every message delivered into a
        node is a span named after its type."""
        def traced_attach(net: Any, node_id: int, cost_model: Any,
                          handler: Callable[[Any], None]) -> None:
            attach(net, node_id, cost_model, self.wrap(
                "handler.", handler, True,
                name_of=lambda args: "handler." + args[0].msg_type))

        setattr(traced_attach, _MARK, True)
        return traced_attach

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        modules = _repro_modules()
        for mod_name, cls_name, attr, span_name, keep in TARGETS:
            module = sys.modules[mod_name]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(
                        self.wrap(span_name, raw.__func__, keep))
                else:
                    wrapper = self.wrap(span_name, raw, keep)
                self._replace(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, keep)
            for other in modules:
                if other.__dict__.get(attr) is original:
                    self._replace(other, attr, wrapper)
        from repro.net.simnet import SimNetwork
        self._replace(SimNetwork, "attach",
                      self._wrap_attach(SimNetwork.__dict__["attach"]))

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    # -- queries -------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.agg.get(name, _NEVER)[0])

    def total(self, name: str) -> float:
        """Seconds inside spans called ``name`` (children included)."""
        return self.agg.get(name, _NEVER)[1]

    def self_of(self, name: str) -> float:
        """Self seconds of the spans called exactly ``name``."""
        return self.agg.get(name, _NEVER)[2]

    def self_time(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return sum(v[2] for k, v in self.agg.items() if k.startswith(prefix))

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as Chrome-trace "complete" events."""
        t_base = min((s[1] for s in self.spans if s is not None),
                     default=0.0)
        events = [
            {"name": span[0], "ph": "X", "pid": 0, "tid": 0,
             "ts": round((span[1] - t_base) * 1e6, 3),
             "dur": round((span[2] - span[1]) * 1e6, 3),
             "args": {"span": i, "parent": span[3]}}
            for i, span in enumerate(self.spans) if span is not None
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "aggregated": {k: {"calls": int(v[0]),
                                   "total_s": v[1], "self_s": v[2]}
                               for k, v in sorted(self.agg.items())}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def installed_wrappers() -> List[str]:
    """Names still bound to a span wrapper anywhere under ``repro``
    (empty once every tracer has been removed)."""
    left = []
    for module in _repro_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                left.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if getattr(member, _MARK, False):
                        left.append(
                            f"{module.__name__}.{attr}.{name}")
    return sorted(set(left))
