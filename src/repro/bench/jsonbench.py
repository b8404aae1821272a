"""Machine-readable benchmark runs behind ``python -m repro bench``.

One invocation executes every requested app on the simulated cluster
with the adaptive-locality subsystem off and on (and, with
``ablation=True``, each locality component alone), and emits the
numbers a trend dashboard needs — simulated time, ``NetStats``
messages/bytes, DSM fetch/diff counts, and the locality subsystem's own
report — as JSON under ``benchmarks/results/``.  Everything measured is
simulated and seed-deterministic, so the output is reproducible
bit-for-bit and safe to diff across commits (``BENCH_3.json`` at the
repo root is exactly such a committed snapshot).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..check.runner import app_source
from ..runtime import build_runtime, config_from, option

#: Default output directory, relative to the repo root / cwd.
RESULTS_DIR = Path("benchmarks/results")

#: Locality modes measured by default (off vs everything on) and the
#: extra single-component modes an ablation run adds.  ``policy-*``
#: modes run with the coherence-policy subsystem instead of the
#: locality subsystem (``policy-all`` = all three policies at once).
BASE_MODES: Tuple[str, ...] = ("off", "all")
POLICY_MODES: Tuple[str, ...] = (
    "off", "policy-update", "policy-migratory", "policy-broadcast",
    "policy-all")
ABLATION_MODES: Tuple[str, ...] = (
    "off", "migration", "prefetch", "aggregation", "all",
    "policy-update", "policy-migratory", "policy-broadcast", "policy-all")

#: Apps benched by default (the ``repro check``-scale instances, so a
#: full bench stays CI-cheap).
DEFAULT_APPS: Tuple[str, ...] = ("series", "tsp", "raytracer")


def _mode_owns(options: Dict[str, Any], what: str, *dests: str) -> None:
    """A bench mode sets some run options itself; reject a caller that
    also sets them instead of silently dropping one of the two."""
    clash = ["--" + d.replace("_", "-") for d in dests if d in options]
    if clash:
        raise ValueError(f"{what} sets {', '.join(clash)} itself")


def _measure(program: Any, mode: str, include_metrics: bool = False,
             **options: Any) -> Tuple[Dict[str, Any], Any]:
    """One run of ``program`` under the run ``options``; ``mode`` is
    'off', a locality spec, or a ``policy-<spec>`` coherence-policy
    spec.  Returns the bench entry and the rewrite, to pass back in as
    the next mode's ``program``.

    ``include_metrics`` additionally runs with the telemetry metrics
    registry on and embeds its compact summary.  Off by default so the
    committed ``BENCH_3.json`` snapshots stay byte-comparable across
    commits that only touch telemetry (the registry itself never
    perturbs traffic, so the other numbers are identical either way).

    On the proc backend the entry additionally carries wall-clock and
    wire-plane numbers (those are inherently non-deterministic, which is
    why they only appear there — sim entries stay byte-comparable).
    """
    _mode_owns(options, "a bench mode", "locality", "policy")
    if mode.startswith("policy-"):
        options["policy"] = mode[len("policy-"):]
    elif mode != "off":
        options["locality"] = mode
    backend = option(options, "backend")
    fields = {}
    if include_metrics:
        fields["obs_metrics"] = True
    if backend != "sim":
        fields["obs_wallclock"] = True
    runtime = build_runtime(program, config_from(options, **fields),
                            option(options, "check_elim"))
    report = runtime.run()
    total = report.total_dsm()
    assert report.net is not None
    out: Dict[str, Any] = {
        "simulated_ms": round(report.simulated_ns / 1e6, 6),
        "messages": report.net.messages,
        "bytes": report.net.bytes,
        "fetches": total.fetches,
        "diffs_sent": total.diffs_sent,
        "token_transfers": total.token_transfers,
        "result": repr(report.result),
    }
    if backend != "sim":
        out["backend"] = backend
        out["wall_ms"] = round(report.wall_seconds * 1e3, 3)
        if report.proc is not None:
            out["wire"] = {
                "frames": report.proc["wire_frames"],
                "bytes": report.proc["wire_bytes"],
                "delivered": report.proc["wire_delivered"],
                "fallback": report.proc["wire_fallback"],
            }
        if runtime.obs is not None and runtime.obs.wallclock is not None:
            out["wallclock"] = runtime.obs.wallclock.by_node()
    if report.locality is not None:
        out["locality"] = report.locality
    if report.policy is not None:
        out["policy"] = report.policy
    if include_metrics and runtime.obs is not None:
        out["metrics"] = runtime.obs.metrics.compact()
    return out, runtime.rewritten


def _measure_modes(source: str, modes: Iterable[str],
                   include_metrics: bool = False,
                   **options: Any) -> Dict[str, Any]:
    """One program across ``modes``, compiled and rewritten once."""
    program: Any = source
    runs: Dict[str, Any] = {}
    for mode in modes:
        runs[mode], program = _measure(program, mode, include_metrics,
                                       **options)
    return runs


def _document(bench: str, backend: Optional[str] = None,
              **options: Any) -> Dict[str, Any]:
    """Head of every bench document, with the cluster-shape metadata
    embedded so a number can never be read without knowing what cluster
    produced it."""
    config = config_from(options)
    return {
        "bench": bench,
        "schema": 1,
        "nodes": config.num_nodes,
        "cluster": {
            "nodes": config.num_nodes,
            "brands": [config.brand_of(i) for i in range(config.num_nodes)],
            "cpus_per_node": config.cpus_per_node,
            "backend": backend or config.transport_backend,
        },
    }


def _pct(off: float, on: float) -> Optional[float]:
    """Signed percentage change on→off baseline (negative = reduction)."""
    if not off:
        return None
    return round(100.0 * (on - off) / off, 2)


def bench_app(app: str, modes: Iterable[str] = BASE_MODES,
              include_metrics: bool = False,
              **options: Any) -> Dict[str, Any]:
    """Bench one app across the given locality modes."""
    runs = _measure_modes(app_source(app), modes, include_metrics, **options)
    off = runs["off"]
    entry: Dict[str, Any] = {"runs": runs}
    entry["result_matches"] = all(
        r["result"] == off["result"] for r in runs.values())
    if "all" in runs:
        on = runs["all"]
        entry["delta_all_vs_off"] = {
            "messages_pct": _pct(off["messages"], on["messages"]),
            "bytes_pct": _pct(off["bytes"], on["bytes"]),
            "fetches_pct": _pct(off["fetches"], on["fetches"]),
            "simulated_ms_pct": _pct(off["simulated_ms"],
                                     on["simulated_ms"]),
        }
    return entry


def run_bench(apps: Iterable[str] = DEFAULT_APPS, ablation: bool = False,
              include_metrics: bool = False,
              **options: Any) -> Dict[str, Any]:
    """The full bench document (what the JSON files serialize);
    ``options`` are run options by flag name (``nodes=2``, ...)."""
    modes = ABLATION_MODES if ablation else BASE_MODES
    doc = _document("locality", **options)
    doc["modes"] = list(modes)
    if doc["cluster"]["backend"] != "sim":
        doc["backend"] = doc["cluster"]["backend"]
    doc["apps"] = {app: bench_app(app, modes, include_metrics, **options)
                   for app in apps}
    return doc


#: Node count for the dedicated policy bench.  Wider than the default
#: because push/broadcast policies pay per *extra reader*: with only two
#: worker peers the per-write push cost roughly cancels the saved
#: fetches, and the policies look artificially neutral.
POLICY_BENCH_NODES = 5


def _policy_sources() -> Dict[str, str]:
    """App instances for the dedicated policy bench.  tsp is sized up
    (9 cities / 4 threads vs the check-scale 7 / 3) so the global bound
    improves several times *after* the workers hold replicas — the
    check-scale instance converges so fast that a read-mostly broadcast
    has nothing left to short-circuit."""
    from ..apps import tsp

    return {
        "series": app_source("series"),
        "tsp": tsp.make_source(n_cities=9, n_threads=4, seed=42),
        "raytracer": app_source("raytracer"),
    }


def run_policy_bench(apps: Iterable[str] = DEFAULT_APPS,
                     **options: Any) -> Dict[str, Any]:
    """Per-policy ablation document (what ``BENCH_7.json`` snapshots):
    every app across off / each coherence policy alone / all three."""
    options.setdefault("nodes", POLICY_BENCH_NODES)
    doc = _document("policy", **options)
    doc["modes"] = list(POLICY_MODES)
    doc["app_instances"] = {
        "series": "check-scale",
        "tsp": "n_cities=9 n_threads=4 seed=42",
        "raytracer": "check-scale",
    }
    doc["apps"] = {}
    sources = _policy_sources()
    for app in apps:
        runs = _measure_modes(sources[app], POLICY_MODES, **options)
        off = runs["off"]
        entry: Dict[str, Any] = {"runs": runs}
        entry["result_matches"] = all(
            r["result"] == off["result"] for r in runs.values())
        entry["delta_vs_off"] = {
            mode: {
                "messages": runs[mode]["messages"] - off["messages"],
                "bytes": runs[mode]["bytes"] - off["bytes"],
                "messages_pct": _pct(off["messages"],
                                     runs[mode]["messages"]),
                "bytes_pct": _pct(off["bytes"], runs[mode]["bytes"]),
            }
            for mode in POLICY_MODES if mode != "off"
        }
        doc["apps"][app] = entry
    return doc


def run_backend_bench(apps: Iterable[str] = DEFAULT_APPS,
                      **options: Any) -> Dict[str, Any]:
    """Sim-vs-proc comparison: every app once per backend, identical
    configs.  The document shows the differential guarantee (identical
    simulated time / message counts / results) next to what only the
    proc backend can measure — wall-clock and real bytes-on-wire.
    """
    _mode_owns(options, "--compare-backends", "backend")
    # One document covers a run per backend, hence "sim+proc".
    out = _document("backends", backend="sim+proc", **options)
    out["apps"] = {}
    for app in apps:
        sim, program = _measure(app_source(app), "off", **options)
        proc, _ = _measure(program, "off", backend="proc", **options)
        deterministic = ("simulated_ms", "messages", "bytes", "fetches",
                         "diffs_sent", "token_transfers", "result")
        out["apps"][app] = {
            "sim": sim,
            "proc": proc,
            "identical": all(sim[k] == proc[k] for k in deterministic),
        }
    return out


#: Instances for the jit bench — scaled up from check size so compiled-
#: method throughput (not compile latency or protocol chatter) dominates
#: the wall clock, matching how a tiered JIT is actually used.
def _jit_sources() -> Dict[str, str]:
    from ..apps import raytracer, series, tsp

    return {
        "series": series.make_source(n_coeffs=60, steps=300),
        "tsp": tsp.make_source(n_cities=9, n_threads=4, seed=42),
        "raytracer": raytracer.make_source(resolution=20),
    }


#: Runs behind each jit-bench ``wall_seconds`` (their median), so that
#: one slow run cannot flip ``speedup_wall`` under the gate's floor.
_WALL_RUNS = 3

#: Jit-bench modes: name -> the (jit, check_elim) run options it sets.
JIT_MODES: Dict[str, Tuple[bool, int]] = {
    "interp": (False, 0), "jit": (True, 0), "jit-elim2": (True, 2)}


def run_jit_bench(apps: Iterable[str] = DEFAULT_APPS,
                  **options: Any) -> Dict[str, Any]:
    """Tiered-JIT ablation document (what ``BENCH_9.json`` snapshots).

    Three modes per app: ``interp`` (tier 0), ``jit`` (tier 1 on the
    same bytecode — every deterministic observable must be identical,
    only the wall clock may move), and ``jit-elim2`` (tier 1 on level-2
    check-eliminated bytecode — fewer checks change the simulated
    numbers, which is the point; the mode shows what the JIT+elim stack
    buys end to end).  Wall-clock fields are inherently machine- and
    load-dependent (``wall_seconds`` is the median of ``wall_runs``);
    the deterministic fields are byte-comparable across commits like
    every other bench document.
    """
    import statistics
    import time

    _mode_owns(options, "--jit-bench", "jit", "check_elim")
    doc = _document("jit", **options)
    doc["modes"] = list(JIT_MODES)
    doc["jit_threshold"] = option(options, "jit_threshold")
    doc["app_instances"] = {
        "series": "n_coeffs=60 steps=300",
        "tsp": "n_cities=9 n_threads=4 seed=42",
        "raytracer": "resolution=20",
    }
    doc["apps"] = {}
    sources = _jit_sources()
    for app in apps:
        # One rewrite per check-elimination level, shared by its modes.
        programs: Dict[int, Any] = {}
        runs: Dict[str, Any] = {}
        for mode, (jit, elim) in JIT_MODES.items():
            walls = []
            for _ in range(_WALL_RUNS):  # a fresh runtime each, one rewrite
                runtime = build_runtime(programs.get(elim, sources[app]),
                                        config_from(options, jit_enable=jit),
                                        check_elim=elim)
                programs[elim] = runtime.rewritten
                t0 = time.perf_counter()
                report = runtime.run()
                walls.append(round(time.perf_counter() - t0, 3))
            total = report.total_dsm()
            entry: Dict[str, Any] = {
                "simulated_ms": round(report.simulated_ns / 1e6, 6),
                "messages": report.net.messages,
                "bytes": report.net.bytes,
                "fetches": total.fetches,
                "result": repr(report.result),
                "wall_seconds": statistics.median(walls),
                "wall_runs": walls,
            }
            if report.jit is not None:
                compiled_entries = sum(
                    report.jit["exit_reasons"].values())
                entry["jit"] = {
                    "compiles": report.jit["compiles"],
                    "compiled_methods": report.jit["compiled_methods"],
                    "deopts": report.jit["deopts"],
                    "blacklisted": sorted(report.jit["blacklisted"]),
                    "exit_reasons": report.jit["exit_reasons"],
                    "deopt_rate": round(
                        report.jit["deopts"] / compiled_entries, 6)
                    if compiled_entries else 0.0,
                }
            runs[mode] = entry
        interp, jit_run = runs["interp"], runs["jit"]
        deterministic = ("simulated_ms", "messages", "bytes", "fetches",
                         "result")
        doc["apps"][app] = {
            "runs": runs,
            "identical": all(interp[k] == jit_run[k]
                             for k in deterministic),
            "speedup_wall": round(
                interp["wall_seconds"] / jit_run["wall_seconds"], 2)
            if jit_run["wall_seconds"] else None,
        }
    return doc


def write_results(doc: Dict[str, Any],
                  out_dir: Path = RESULTS_DIR) -> List[Path]:
    """Write one JSON file per app plus the combined document; returns
    the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for app, entry in doc["apps"].items():
        per_app = {k: v for k, v in doc.items() if k != "apps"}
        per_app["app"] = app
        per_app.update(entry)
        path = out_dir / f"bench_{app}.json"
        path.write_text(json.dumps(per_app, indent=2) + "\n")
        paths.append(path)
    combined = out_dir / "bench_locality.json"
    combined.write_text(json.dumps(doc, indent=2) + "\n")
    paths.append(combined)
    return paths
