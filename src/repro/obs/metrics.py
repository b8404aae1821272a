"""Metrics registry: counters, gauges, log-bucketed histograms.

Every metric is scoped per node (the registry is shared by all of one
runtime's :class:`~repro.obs.manager.ObsAgent` instances) and every
update also lands in a sim-time-bucketed series, so the output answers
both "how much in total / per node?" and "when during the run?".

All of it is passive observation: no metric update touches a message
payload or schedules a simulation event, which is what makes the
``obs_metrics`` knob traffic- and time-neutral (verified by test).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple


class Histogram:
    """Log2-bucketed histogram of non-negative integer samples.

    Bucket ``k`` holds samples with ``2^(k-1) < v <= 2^k`` (bucket 0
    holds ``v <= 1``), i.e. the bucket index is ``(v - 1).bit_length()``
    — cheap, exact for the power-of-two upper bounds, and wide enough
    for nanosecond latencies without tuning.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        k = (value - 1).bit_length() if value > 1 else 0
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """q-quantile estimate (0 < q <= 1) with within-bucket linear
        interpolation.

        The target rank is placed proportionally inside its log2 bucket
        ``(2^(k-1), 2^k]`` (``[0, 1]`` for bucket 0), then clamped to
        the observed ``[min, max]`` — so a single-valued histogram
        returns that exact value, and tail quantiles never exceed the
        largest sample.  Far tighter than the upper bucket bound for
        latency SLOs (p99/p999 of wide buckets)."""
        if not self.count:
            return 0
        target = max(1, int(q * self.count + 0.999999))
        seen = 0
        for k in sorted(self.buckets):
            n = self.buckets[k]
            if seen + n >= target:
                lo = 0 if k == 0 else (1 << (k - 1))
                hi = 1 << k
                value = lo + (target - seen) / n * (hi - lo)
                break
            seen += n
        else:  # pragma: no cover - defensive
            value = 1 << max(self.buckets)
        assert self.min is not None and self.max is not None
        return int(round(min(max(value, self.min), self.max)))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
            "buckets": {str(1 << k): n
                        for k, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Histogram":
        """Inverse of :meth:`as_dict` (quantiles are re-derived).

        Used to rehydrate histograms shipped from proc-backend workers
        so they can be merged into the cluster-wide view."""
        hist = cls()
        hist.count = int(doc.get("count", 0))
        hist.total = int(doc.get("total", 0))
        hist.min = doc.get("min")
        hist.max = doc.get("max")
        for bound, n in doc.get("buckets", {}).items():
            k = max(0, int(bound).bit_length() - 1)
            hist.buckets[k] = hist.buckets.get(k, 0) + int(n)
        return hist

    def merge(self, other: "Histogram") -> "Histogram":
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            a, b = getattr(self, bound), getattr(other, bound)
            if b is not None and (a is None or
                                  (b < a if bound == "min" else b > a)):
                setattr(self, bound, b)
        for k, n in other.buckets.items():
            self.buckets[k] = self.buckets.get(k, 0) + n
        return self


class MetricsRegistry:
    """Per-node counters/gauges/histograms + sim-time-bucketed series."""

    def __init__(self, now: Callable[[], int],
                 bucket_ns: int = 1_000_000) -> None:
        if bucket_ns < 1:
            raise ValueError("bucket_ns must be >= 1")
        self._now = now
        self.bucket_ns = bucket_ns
        self._counters: Dict[Tuple[str, int], int] = {}
        self._gauges: Dict[Tuple[str, int], float] = {}
        self._hists: Dict[Tuple[str, int], Histogram] = {}
        # name -> {time bucket -> update count}: when did activity happen.
        self._series: Dict[str, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    def _tick(self, name: str, n: int = 1) -> None:
        bucket = self._now() // self.bucket_ns
        series = self._series.setdefault(name, {})
        series[bucket] = series.get(bucket, 0) + n

    def inc(self, name: str, node: int, n: int = 1) -> None:
        """Bump a counter (and its time series) by ``n``."""
        key = (name, node)
        self._counters[key] = self._counters.get(key, 0) + n
        self._tick(name, n)

    def set_gauge(self, name: str, node: int, value: float) -> None:
        """Record the latest value of a gauge."""
        self._gauges[(name, node)] = value

    def observe(self, name: str, node: int, value: int) -> None:
        """Add one sample to a histogram (and its time series)."""
        key = (name, node)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = Histogram()
        hist.observe(value)
        self._tick(name)

    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        """A counter's value summed over all nodes."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def histogram(self, name: str) -> Histogram:
        """A histogram merged over all nodes (empty if never observed)."""
        merged = Histogram()
        for (n, _), hist in self._hists.items():
            if n == name:
                merged.merge(hist)
        return merged

    def series(self, name: str) -> Dict[int, int]:
        """One time series, in time order: bucket start (sim ns) ->
        updates in that bucket (empty if never updated)."""
        return {bucket * self.bucket_ns: count for bucket, count
                in sorted(self._series.get(name, {}).items())}

    def as_dict(self) -> Dict[str, Any]:
        """Full JSON-ready export (``repro stats --json``)."""
        counters: Dict[str, Dict[str, Any]] = {}
        for (name, node), value in sorted(self._counters.items()):
            entry = counters.setdefault(name, {"total": 0, "by_node": {}})
            entry["total"] += value
            entry["by_node"][str(node)] = value
        gauges: Dict[str, Dict[str, Any]] = {}
        for (name, node), value in sorted(self._gauges.items()):
            gauges.setdefault(name, {})[str(node)] = value
        hists: Dict[str, Dict[str, Any]] = {}
        for (name, _node) in sorted(self._hists):
            if name not in hists:
                hists[name] = self.histogram(name).as_dict()
        series = {name: {str(t): count
                         for t, count in self.series(name).items()}
                  for name in sorted(self._series)}
        return {
            "bucket_ns": self.bucket_ns,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
            "series": series,
        }

    def compact(self) -> Dict[str, Any]:
        """Small summary (what the bench JSON embeds): counter totals
        plus count/mean/max per histogram."""
        out: Dict[str, Any] = {}
        for name in sorted({n for n, _ in self._counters}):
            out[name] = self.counter_total(name)
        for name in sorted({n for n, _ in self._hists}):
            hist = self.histogram(name)
            out[name] = {"count": hist.count,
                         "mean": round(hist.mean, 1),
                         "max": hist.max}
        return out
