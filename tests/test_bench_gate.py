"""The perf-regression gate: ``tools/bench_gate.py``.

Pure comparisons against the committed snapshots — the gate must pass a
document against itself, and fail loudly on each class of synthetic
regression (deterministic drift, boolean-guarantee loss, wall-clock
speedup collapse)."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_gate import compare, main  # noqa: E402

REPO = Path(__file__).resolve().parent.parent


def _load(name: str):
    return json.loads((REPO / name).read_text())


@pytest.mark.parametrize("name", ["BENCH_3.json", "BENCH_6.json",
                                  "BENCH_7.json", "BENCH_8.json",
                                  "BENCH_9.json"])
def test_every_committed_snapshot_passes_against_itself(name):
    doc = _load(name)
    assert compare(doc, copy.deepcopy(doc)) == []


def test_deterministic_drift_fails():
    base = _load("BENCH_9.json")
    fresh = copy.deepcopy(base)
    app = next(iter(fresh["apps"]))
    fresh["apps"][app]["runs"]["jit"]["messages"] += 1
    errors = compare(base, fresh)
    assert len(errors) == 1
    assert "messages" in errors[0] and app in errors[0]


def test_identical_flag_regression_fails():
    base = _load("BENCH_9.json")
    fresh = copy.deepcopy(base)
    app = next(iter(fresh["apps"]))
    fresh["apps"][app]["identical"] = False
    errors = compare(base, fresh)
    assert any("identical" in e for e in errors)


def test_speedup_wall_floor():
    base = _load("BENCH_9.json")
    sped = {a: e for a, e in base["apps"].items()
            if (e.get("speedup_wall") or 0) > 1.0}
    assert sped, "BENCH_9 baseline should contain a real jit speedup"
    fresh = copy.deepcopy(base)
    app = next(iter(sped))
    fresh["apps"][app]["speedup_wall"] = 0.5
    errors = compare(base, fresh, wall_tolerance=0.4)
    assert any("speedup_wall" in e for e in errors)
    # Wall noise within tolerance is fine.
    ok = copy.deepcopy(base)
    ok["apps"][app]["speedup_wall"] = round(
        base["apps"][app]["speedup_wall"] * 0.6, 2)
    assert compare(base, ok, wall_tolerance=0.4) == []


def test_backends_doc_regressions():
    base = _load("BENCH_6.json")
    fresh = copy.deepcopy(base)
    app = next(iter(fresh["apps"]))
    fresh["apps"][app]["identical"] = False
    fresh["apps"][app]["proc"]["simulated_ms"] += 1.0
    errors = compare(base, fresh)
    assert any("identical" in e for e in errors)
    assert any("simulated_ms" in e for e in errors)


def test_serve_doc_regressions():
    base = _load("BENCH_8.json")
    fresh = copy.deepcopy(base)
    name = next(iter(fresh["scenarios"]))
    fresh["scenarios"][name]["ok"] = False
    fresh["scenarios"][name]["requests"]["completed"] -= 1
    errors = compare(base, fresh)
    assert any(f"scenarios.{name}.ok" in e for e in errors)
    assert any("requests.completed" in e for e in errors)


def test_missing_app_and_kind_mismatch():
    base = _load("BENCH_3.json")
    fresh = copy.deepcopy(base)
    fresh["apps"].pop(next(iter(fresh["apps"])))
    assert any("missing" in e for e in compare(base, fresh))
    assert compare(base, _load("BENCH_9.json")) == [
        "bench kind mismatch: baseline 'locality' != fresh 'jit'"]


def test_main_exit_codes(tmp_path):
    base_path = REPO / "BENCH_9.json"
    same = tmp_path / "same.json"
    same.write_text(base_path.read_text())
    assert main([str(base_path), "--fresh", str(same)]) == 0

    worse = copy.deepcopy(_load("BENCH_9.json"))
    app = next(iter(worse["apps"]))
    worse["apps"][app]["runs"]["interp"]["bytes"] += 8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(worse))
    assert main([str(base_path), "--fresh", str(bad)]) == 1

    assert main([str(tmp_path / "nope.json")]) == 2


def test_jit_bench_wall_is_a_median_of_three_fresh_runs():
    """One slow run must not flip ``speedup_wall`` under the floor; the
    repeats change nothing the snapshot pins."""
    import statistics

    from repro.bench.jsonbench import run_jit_bench

    base = _load("BENCH_9.json")
    base["apps"] = {"raytracer": base["apps"]["raytracer"]}
    del base["apps"]["raytracer"]["speedup_wall"]  # no wall claim in tier 1
    fresh = run_jit_bench(apps=["raytracer"])
    assert compare(base, fresh) == []
    for run in fresh["apps"]["raytracer"]["runs"].values():
        assert len(run["wall_runs"]) == 3
        assert run["wall_seconds"] == statistics.median(run["wall_runs"])
