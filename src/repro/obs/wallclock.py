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
- ``worker.loop_lag_ns``  proc-worker event-loop iteration time, the
  one histogram a worker keeps (shipped in its last ``proc.stats``)
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
    """Per-node monotonic-clock histograms.

    Mirrors the histogram half of :class:`MetricsRegistry` but has no
    sim-time series (wall metrics have no meaningful sim bucket); a
    worker's histogram arrives whole, once, so :meth:`set_hist`
    replaces rather than merges.
    """

    def __init__(self) -> None:
        self.t0_ns = time.monotonic_ns()
        self._hists: Dict[Tuple[str, int], Histogram] = {}
        # (sim_ns, wall_ns) pairs for the Perfetto wall-clock lane.
        self.samples: List[Tuple[int, int]] = []

    # -- recording -----------------------------------------------------
    def observe(self, name: str, node: int, ns: int) -> None:
        key = (name, node)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = Histogram()
        hist.observe(ns)

    def set_hist(self, name: str, node: int, doc: Dict[str, Any]) -> None:
        """Replace a histogram with a worker-shipped dump."""
        self._hists[(name, node)] = Histogram.from_dict(doc)

    def sample(self, sim_ns: int) -> None:
        """Record one (sim, wall) correlation point."""
        if len(self.samples) >= MAX_SAMPLES:
            return
        if self.samples and self.samples[-1][0] == sim_ns:
            return
        self.samples.append((sim_ns, time.monotonic_ns() - self.t0_ns))

    # -- querying ------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        """Cluster-wide view: the named histogram merged over nodes."""
        merged = Histogram()
        for (n, _node), hist in self._hists.items():
            if n == name:
                merged.merge(hist)
        return merged

    def as_dict(self) -> Dict[str, Any]:
        hists: Dict[str, Dict[str, Any]] = {}
        for (name, node), hist in sorted(self._hists.items()):
            entry = hists.setdefault(name, {"merged": None, "by_node": {}})
            entry["by_node"][str(node)] = hist.as_dict()
        for name in hists:
            hists[name]["merged"] = self.histogram(name).as_dict()
        return {
            "wall_elapsed_ns": time.monotonic_ns() - self.t0_ns,
            "histograms": hists,
            "samples": len(self.samples),
        }

    def by_node(self) -> Dict[str, Dict[str, Any]]:
        """Compact per-node export for the bench JSON: count/mean/max
        per histogram."""
        out: Dict[str, Dict[str, Any]] = {}
        for (name, node), hist in sorted(self._hists.items()):
            out.setdefault(str(node), {})[name] = {
                "count": hist.count,
                "mean": round(hist.mean, 1),
                "max": hist.max,
            }
        return out
