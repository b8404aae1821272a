"""Wall-clock telemetry: monotonic-time histograms per node.

Everything simulated in this repo runs on the deterministic sim clock;
this module is the one place that reads the *real* clock.  It is
strictly passive — observations never touch message payloads or
schedule simulation events, so turning ``obs_wallclock`` on leaves the
sim schedule byte-identical (verified by test).

Metric names in play:

- ``net.rtt_ns``          master writes a data frame to its source's
  worker -> the same bytes are back at the master from the destination's
  worker (three socket hops, no codec work in between)
- ``wire.encode_ns``      frame encode time (master codec)
- ``wire.decode_ns``      frame decode time (master codec)
- ``worker.loop_lag_ns``  proc-worker event-loop iteration time
- ``worker.wire_*_ns``    proc-worker codec time (ctrl frames only:
  hello, stats, telemetry — workers never decode a data frame)
- ``jit.compile_ns``      per-method bytecode -> Python compile time
- ``jit.quantum.*_ns``    per-quantum interpreter vs JIT wall time
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from .metrics import Histogram

__all__ = ["WallClockStats"]

#: Cap on (sim_ns, wall_ns) correlation samples kept for trace export.
MAX_SAMPLES = 20_000


class WallClockStats:
    """Per-node monotonic-clock counters + histograms.

    The registry half mirrors :class:`MetricsRegistry` but deliberately
    has no sim-time series (wall metrics have no meaningful sim bucket)
    and supports *replace* semantics (:meth:`set_counter`,
    :meth:`set_hist`) because proc workers ship cumulative snapshots,
    not increments.
    """

    def __init__(self) -> None:
        self.t0_ns = time.monotonic_ns()
        self._counters: Dict[Tuple[str, int], int] = {}
        self._hists: Dict[Tuple[str, int], Histogram] = {}
        # (sim_ns, wall_ns) pairs for the Perfetto wall-clock lane.
        self.samples: List[Tuple[int, int]] = []

    # -- recording -----------------------------------------------------
    def inc(self, name: str, node: int, n: int = 1) -> None:
        key = (name, node)
        self._counters[key] = self._counters.get(key, 0) + n

    def set_counter(self, name: str, node: int, value: int) -> None:
        """Replace a counter with a worker-shipped cumulative value."""
        self._counters[(name, node)] = int(value)

    def observe(self, name: str, node: int, ns: int) -> None:
        key = (name, node)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = Histogram()
        hist.observe(ns)

    def set_hist(self, name: str, node: int, doc: Dict[str, Any]) -> None:
        """Replace a histogram with a worker-shipped cumulative dump."""
        self._hists[(name, node)] = Histogram.from_dict(doc)

    def sample(self, sim_ns: int) -> None:
        """Record one (sim, wall) correlation point."""
        if len(self.samples) >= MAX_SAMPLES:
            return
        if self.samples and self.samples[-1][0] == sim_ns:
            return
        self.samples.append((sim_ns, time.monotonic_ns() - self.t0_ns))

    # -- querying ------------------------------------------------------
    def nodes(self) -> List[int]:
        seen = {n for _, n in self._counters} | {n for _, n in self._hists}
        return sorted(seen)

    def histogram(self, name: str) -> Histogram:
        """Cluster-wide view: the named histogram merged over nodes."""
        merged = Histogram()
        for (n, _node), hist in self._hists.items():
            if n == name:
                merged.merge(hist)
        return merged

    def counter_total(self, name: str) -> int:
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def as_dict(self) -> Dict[str, Any]:
        counters: Dict[str, Dict[str, Any]] = {}
        for (name, node), value in sorted(self._counters.items()):
            entry = counters.setdefault(name, {"total": 0, "by_node": {}})
            entry["total"] += value
            entry["by_node"][str(node)] = value
        hists: Dict[str, Dict[str, Any]] = {}
        for (name, node), hist in sorted(self._hists.items()):
            entry = hists.setdefault(name, {"merged": None, "by_node": {}})
            entry["by_node"][str(node)] = hist.as_dict()
        for name in hists:
            hists[name]["merged"] = self.histogram(name).as_dict()
        return {
            "wall_elapsed_ns": time.monotonic_ns() - self.t0_ns,
            "counters": counters,
            "histograms": hists,
            "samples": len(self.samples),
        }

    def by_node(self) -> Dict[str, Dict[str, Any]]:
        """Compact per-node export for the bench JSON: counter values
        plus count/mean/max per histogram."""
        out: Dict[str, Dict[str, Any]] = {}
        for (name, node), value in sorted(self._counters.items()):
            out.setdefault(str(node), {})[name] = value
        for (name, node), hist in sorted(self._hists.items()):
            out.setdefault(str(node), {})[name] = {
                "count": hist.count,
                "mean": round(hist.mean, 1),
                "max": hist.max,
            }
        return out
