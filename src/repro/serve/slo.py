"""SLO reporting: per-phase throughput and latency quantiles.

The reporter reads nothing from the program — everything comes out of
the obs :class:`~repro.obs.metrics.MetricsRegistry` that the
:class:`~repro.serve.manager.ServeManager` fed during the run: the
``serve.completed.p{N}`` counters, the ``serve.latency_ns.p{N}``
histograms (log2 buckets with within-bucket interpolation, so p50/p99/
p999 are tight), and the time-bucketed series that shows *when* the
completions landed.

``validate_serve_doc`` is the schema check CI runs over ``repro serve
--json`` output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..sim.engine import NS_PER_MS, NS_PER_SEC


def _ms(ns: int) -> float:
    return round(ns / NS_PER_MS, 4)


def _phase_entry(metrics: Any, suffix: str, injected: int,
                 start_ns: int, end_ns: int) -> Dict[str, Any]:
    completed = metrics.counter_total(f"serve.completed{suffix}")
    hist = metrics.histogram(f"serve.latency_ns{suffix}")
    duration_ns = max(1, end_ns - start_ns)
    times = list(metrics.series(f"serve.completed{suffix}"))
    active_ns = times[-1] - times[0] + metrics.bucket_ns if times else 0
    # Offered load is normalized to the arrival window; achieved
    # throughput to the window in which completions actually landed —
    # under open-loop saturation the two diverge, which is the point.
    return {
        "start_ms": _ms(start_ns),
        "end_ms": _ms(end_ns),
        "injected": injected,
        "completed": completed,
        "offered_rps": round(injected * NS_PER_SEC / duration_ns, 1),
        "throughput_rps": round(
            completed * NS_PER_SEC / (active_ns or duration_ns), 1),
        "active_ms": _ms(active_ns),
        "latency_ms": {
            "mean": _ms(int(hist.mean)),
            "p50": _ms(hist.quantile(0.5)),
            "p99": _ms(hist.quantile(0.99)),
            "p999": _ms(hist.quantile(0.999)),
            "max": _ms(hist.max or 0),
        },
    }


def build_slo(metrics: Any, phase_bounds: List[Tuple[int, int]],
              injected_by_phase: Dict[int, int]) -> Dict[str, Any]:
    """The SLO section of a serve document, from the metrics registry."""
    phases = [
        _phase_entry(metrics, f".p{i}", injected_by_phase.get(i, 0),
                     start, end)
        for i, (start, end) in enumerate(phase_bounds)
    ]
    overall = _phase_entry(
        metrics, "", sum(injected_by_phase.values()),
        0, phase_bounds[-1][1] if phase_bounds else 1)
    return {"phases": phases, "overall": overall}


# ---------------------------------------------------------------------------
# Schema validation (CI gate over ``repro serve --json``)
# ---------------------------------------------------------------------------

_LATENCY_KEYS = ("mean", "p50", "p99", "p999", "max")
_PHASE_KEYS = ("start_ms", "end_ms", "injected", "completed",
               "offered_rps", "throughput_rps", "active_ms", "latency_ms")
_SCENARIO_KEYS = ("scenario", "backend", "seed", "cluster", "requests",
                  "result", "oracle", "slo", "ok")


def _check_phase(entry: Any, where: str, errors: List[str]) -> None:
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return
    for key in _PHASE_KEYS:
        if key not in entry:
            errors.append(f"{where}: missing {key!r}")
    lat = entry.get("latency_ms")
    if not isinstance(lat, dict):
        errors.append(f"{where}.latency_ms: not an object")
        return
    for key in _LATENCY_KEYS:
        if not isinstance(lat.get(key), (int, float)):
            errors.append(f"{where}.latency_ms.{key}: not a number")
    if isinstance(lat.get("p50"), (int, float)):
        if not (lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]):
            errors.append(f"{where}.latency_ms: quantiles not monotonic")


def _check_scenario(doc: Any, where: str, errors: List[str]) -> None:
    if not isinstance(doc, dict):
        errors.append(f"{where}: not an object")
        return
    for key in _SCENARIO_KEYS:
        if key not in doc:
            errors.append(f"{where}: missing {key!r}")
    cluster = doc.get("cluster")
    if isinstance(cluster, dict):
        for key in ("nodes", "brands", "backend"):
            if key not in cluster:
                errors.append(f"{where}.cluster: missing {key!r}")
    else:
        errors.append(f"{where}.cluster: not an object")
    requests = doc.get("requests")
    if isinstance(requests, dict):
        injected = requests.get("injected")
        completed = requests.get("completed")
        if not isinstance(injected, int) or not isinstance(completed, int):
            errors.append(f"{where}.requests: injected/completed not ints")
        elif completed > injected:
            errors.append(f"{where}.requests: completed > injected")
    else:
        errors.append(f"{where}.requests: not an object")
    slo = doc.get("slo")
    if isinstance(slo, dict):
        phases = slo.get("phases")
        if not isinstance(phases, list) or not phases:
            errors.append(f"{where}.slo.phases: empty or not a list")
        else:
            for i, entry in enumerate(phases):
                _check_phase(entry, f"{where}.slo.phases[{i}]", errors)
        _check_phase(slo.get("overall"), f"{where}.slo.overall", errors)
    else:
        errors.append(f"{where}.slo: not an object")


def validate_serve_doc(doc: Any) -> List[str]:
    """Schema-check a serve JSON document (single scenario, preset-all
    bundle, or seed sweep).  Returns a list of problems (empty = valid).
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if "scenarios" in doc:                  # --preset all bundle
        for key in ("bench", "schema"):
            if key not in doc:
                errors.append(f"bundle missing {key!r}")
        scenarios = doc["scenarios"]
        if not isinstance(scenarios, dict) or not scenarios:
            return errors + ["bundle 'scenarios' empty or not an object"]
        for name, sub in sorted(scenarios.items()):
            _check_scenario(sub, f"scenarios[{name}]", errors)
    elif "seeds" in doc:                    # --seeds sweep
        runs = doc["seeds"]
        if not isinstance(runs, list) or not runs:
            return errors + ["sweep 'seeds' empty or not a list"]
        for i, sub in enumerate(runs):
            _check_scenario(sub, f"seeds[{i}]", errors)
    else:
        _check_scenario(doc, "doc", errors)
    return errors
