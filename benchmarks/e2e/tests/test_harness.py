"""Self-tests of the benchmark harness (quick sizes throughout)."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import measure
import spans
import workloads

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_py(*args, cwd=ROOT, script=os.path.join(E2E, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


# -- BENCHMARK.json ----------------------------------------------------

def test_benchmark_json_meets_the_contract():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_match_the_table():
    assert ([(w["name"], w["why"]) for w in spec()["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS.values()])


def test_no_harness_file_is_collected_by_tier1():
    # pyproject.toml collects bench_*.py as tests.
    for _dir, _subdirs, files in os.walk(E2E):
        assert not [f for f in files if f.startswith("bench_")]


# -- spans -------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf = tracer.wrap("leaf", leaf, keep=False)

    def middle():
        time.sleep(0.01)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle, keep=True)

    def top():
        middle()
        time.sleep(0.01)

    t0 = time.perf_counter()
    tracer.wrap("top", top, keep=True)()
    wall = time.perf_counter() - t0
    calls, total, own = tracer.agg["middle"]
    assert calls == 1 and tracer.calls("leaf") == 2
    assert own == pytest.approx(total - tracer.total("leaf"))
    assert tracer.agg["top"][2] == pytest.approx(
        tracer.total("top") - total)
    assert sum(v[2] for v in tracer.agg.values()) <= wall
    assert tracer.self_time("") == pytest.approx(tracer.total("top"))
    # Kept spans record name, start, end, parent.
    (top_name, _, _, top_parent), (mid_name, start, end, mid_parent) = \
        tracer.spans
    assert (top_name, top_parent, mid_name, mid_parent) == (
        "top", -1, "middle", 0)
    assert end - start == pytest.approx(total)


def test_traced_pass_accounts_for_its_wall_and_removes_wrappers():
    runner = measure.BatchRunner(workloads.WORKLOADS["locks_sim"], 0, True)
    tracer = spans.Tracer()
    with tracer:
        assert spans.installed_wrappers()
        done = runner.one_pass()
    assert spans.installed_wrappers() == []
    assert not done.errors
    assert 0 < sum(v[2] for v in tracer.agg.values()) <= done.wall_s
    times = measure.layer_times(tracer, done)
    assert times["jvm.quanta"] > 0 and times["dsm.handler_self_s"] > 0
    assert times["jvm.self_s"] <= times["jvm.busy_s"] <= done.wall_s
    events = tracer.chrome_trace()["traceEvents"]
    assert {e["name"] for e in events} >= {
        "lang.compile", "rewriter.rewrite", "runtime.build", "runtime.run",
        "jvm.quantum", "handler.dsm.token"}


# -- determinism and correctness ----------------------------------------

def test_exact_metrics_repeat():
    for name in ("locks_sim", "serve_churn"):
        wl = workloads.WORKLOADS[name]
        cls = (measure.BatchRunner if isinstance(wl, workloads.Batch)
               else measure.ServeRunner)
        first = cls(wl, 3, True).one_pass()
        second = cls(wl, 3, True).one_pass()
        assert not first.errors and first.failed == 0
        assert first.exact == second.exact


def test_proc_backend_matches_sim_backend():
    runner = measure.BatchRunner(workloads.WORKLOADS["locks_proc"], 0, True)
    proc = runner.one_pass()
    sim = runner.one_pass({"transport_backend": "sim"})
    assert not proc.errors and not sim.errors
    assert proc.exact["wire.frames"] > 0 and proc.exact["wire.fallback"] == 0
    for key in ("net.messages", "net.bytes", "sim_ms", "sim.events",
                "jvm.bytecodes"):
        assert proc.exact[key] == sim.exact[key]


def test_run_prints_every_declared_metric_and_counts_repeat_over_reps():
    doc = spec()
    exact = {m["name"] for m in doc["per_layer"]
             if m["unit"] not in compare.TIMED_UNITS}
    code, one = run_py("--workload", "tsp_jit", "--quick", "--trace", "1")
    assert code == 0 and one["correct"] and one["failed"] == 0
    assert set(one) == {"correct", "attempted", "failed", "metrics"}
    assert list(one["metrics"]) == [m["name"] for m in doc["per_layer"]]
    assert one["metrics"]["jit.exits"]["value"] > 0
    assert (one["metrics"]["jit.interp_steps"]["value"]
            < one["metrics"]["jvm.bytecodes"]["value"])
    code, two = run_py("--workload", "tsp_jit", "--quick", "--trace", "1",
                       "--reps", "2")
    assert code == 0 and two["attempted"] == 2
    for name in exact:
        assert one["metrics"][name] == two["metrics"][name], name
    code, e2e = run_py("--workload", "tsp_jit", "--quick", "--trace", "0")
    assert code == 0
    assert list(e2e["metrics"]) == [m["name"] for m in doc["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e["metrics"].values())


def test_wrong_expected_value_fails_the_run():
    code, result = run_py("--workload", "locks_sim", "--quick", "--trace",
                          "1", "--break-expected")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["fail_share"]["value"] == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "locks_sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


# -- compare ------------------------------------------------------------

def test_verdicts():
    def v(a, b, better="lower", bound=0.1):
        return compare.verdict(a, b, list(zip(a, b)), better, bound)[0]

    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert v(base, base) == "unchanged"
    assert v(base, [x * 1.02 for x in base]) == "unchanged"
    assert v(base, [x * 1.2 for x in base]) == "regressed"
    assert v(base, [x * 0.8 for x in base]) == "improved"
    assert v(base, [x * 1.2 for x in base], better="higher") == "improved"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.0, 12.5, 8.5]
    assert v(base, noisy) == "unresolved"
