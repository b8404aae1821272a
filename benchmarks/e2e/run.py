#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer numbers for 7 workloads.

One run (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs workload W on inputs made from seed N, checks every result, prints
each metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The exit code is 1 when a result was wrong.

Without ``--workload`` every workload is run (``--runs R`` seeds each,
untraced and traced), the numbers are printed as a table and the whole
set is written to one JSON document for ``compare.py``.

Each run starts fresh child processes (``measure.py``): two that only
set up, for the set-up time, and one that sets up and measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(ROOT, ".e2e_tmp")
#: Extra children that only set up, so that setup_s is a median of 3.
SETUP_PROBES = 2
#: The driver allows a run 180 s; stop a wedged child before that.
CHILD_TIMEOUT_S = 160


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(args: List[str]) -> Dict[str, Any]:
    """Run ``measure.py`` once; its last output line as a dict."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The proc backend makes its unix sockets in a temporary directory:
    # keep that inside the checkout, unless the checkout's path would
    # push a socket name past the 107 bytes AF_UNIX allows.
    if len(TMP) <= 60:
        os.makedirs(TMP, exist_ok=True)
        env["TMPDIR"] = TMP
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--t0", repr(time.monotonic())] + args
    # Own session, so that a timeout also reaps the proc backend's
    # node workers.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"run.py: child timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"run.py: child failed ({proc.returncode}): "
                         f"{' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int,
             extra: List[str]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One benchmark run: (result line, detail for the document)."""
    spec = declared()
    base = ["--workload", workload, "--seed", str(seed)]
    probes = []
    if not trace and "--quick" not in extra:    # quick: one set-up sample
        probes = [child(base + ["--setup-only"])
                  for _ in range(SETUP_PROBES)]
    doc = child(base + ["--seconds", str(seconds), "--trace", str(trace)]
                + extra)
    setups = [d["setup_s"] for d in probes + [doc]]
    if trace:
        values = doc["per_layer"]
        names = spec["per_layer"]
    else:
        values = dict(doc["end_to_end"], setup_s=statistics.median(setups))
        names = spec["end_to_end"]
    undeclared = sorted(set(values) - {m["name"] for m in names})
    if undeclared:
        raise SystemExit(f"run.py: metrics not in BENCHMARK.json: "
                         f"{undeclared}")
    # A layer the workload does not exercise reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in names}
    for error in doc["errors"]:
        print(f"run.py: {workload}: {error}", file=sys.stderr)
    result = {"correct": not doc["errors"] and doc["failed"] == 0,
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": metrics}
    detail = {"sizes": doc["sizes"], "samples": doc["samples"],
              "setup_samples_s": setups,
              "setup_raw_samples_s": [d["setup_raw_s"]
                                      for d in probes + [doc]]}
    if "profile" in doc:
        detail["profile"] = doc["profile"]
    return result, detail


def show(workload: str, seed: int, trace: int, result: Dict[str, Any],
         detail: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"# {workload} seed={seed} trace={trace} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} sizes={json.dumps(detail['sizes'])}")
    for name, m in result["metrics"].items():
        line = f"{name:34s} {m['value']:>16.6g} {m['unit']}"
        samples = detail["samples"].get(name)
        if name == "setup_s":
            samples = detail["setup_samples_s"]
        if samples and len(samples) > 1:
            q = statistics.quantiles(samples, n=4)
            line += (f"   (median of {len(samples)}: "
                     f"q1 {q[0]:.6g}, q3 {q[2]:.6g})")
        print(line)
    for name, share in detail.get("profile", {}).items():
        print(f"{name:34s} {share:>16.4f} share")


def suite(args: argparse.Namespace, extra: List[str]) -> int:
    names = args.workload or [w["name"] for w in declared()["workloads"]]
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    ok = True
    for workload in names:
        for seed in range(args.seed, args.seed + args.runs):
            for trace in traces:
                result, detail = run_once(workload, seed, args.seconds,
                                          trace, extra)
                show(workload, seed, trace, result, detail)
                ok = ok and result["correct"]
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "result": result,
                             "detail": detail})
    doc = {
        "schema": 1, "benchmark": "benchmarks/e2e",
        "comparable": "--quick" not in extra,
        "seconds": args.seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "runs": runs,
    }
    path = args.out or os.path.join(
        OUT, time.strftime("e2e-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    if "--quick" in extra:
        print("# --quick: sizes cut about tenfold, one pass per run; "
              "NOT comparable with full runs")
    print(f"# wrote {path}")
    return 0 if ok else 1


def verify_reference() -> int:
    """Recompute every hand-written expected result with the original
    (un-rewritten, single-JVM) program."""
    sys.path[:0] = [SRC, HERE]
    import workloads
    from repro.runtime import run_original
    bad = 0
    for wl in workloads.WORKLOADS.values():
        if not isinstance(wl, workloads.Batch):
            continue        # serve: run_scenario's own reference run
        cases = {json.dumps(wl.params(seed, quick), sort_keys=True)
                 for seed in range(wl.seeds) for quick in (False, True)}
        for case in sorted(cases):
            params = json.loads(case)
            got = run_original(source=wl.source(params, wl.threads),
                               cpus=workloads.CPUS).result
            want = wl.expected(params)
            print(f"{wl.name} {case}: expected {want}, original {got}"
                  f"{'' if got == want else '   <-- MISMATCH'}")
            bad += got != want
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0 end-to-end, 1 per-layer (default: 0, or "
                         "both when running the suite)")
    ap.add_argument("--runs", type=int, default=1,
                    help="seeds per workload, counting up from --seed")
    ap.add_argument("--reps", type=int, default=None,
                    help="passes per run instead of --seconds")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: small sizes, one pass; not comparable")
    ap.add_argument("--profile", action="store_true",
                    help="add prof.share.<package> from one cProfile pass")
    ap.add_argument("--trace-out", default=None,
                    help="write the traced pass as Chrome-trace JSON here")
    ap.add_argument("--out", default=None,
                    help="suite document (default: benchmarks/e2e/out/)")
    ap.add_argument("--verify-reference", action="store_true",
                    help="recompute the expected results and exit")
    ap.add_argument("--break-expected", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.verify_reference:
        return verify_reference()
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])

    extra: List[str] = []
    if args.quick:
        extra.append("--quick")
    reps = args.reps if args.reps is not None else 1 if args.quick else None
    if reps is not None:
        extra += ["--reps", str(reps)]
    if args.profile:
        extra.append("--profile")
    if args.trace_out:
        extra += ["--trace-out", os.path.abspath(args.trace_out)]
    if args.break_expected:
        extra.append("--break-expected")

    single = (args.workload is not None and len(args.workload) == 1
              and args.runs == 1 and args.out is None)
    if not single:
        return suite(args, extra)
    trace = args.trace or 0
    result, detail = run_once(args.workload[0], args.seed, args.seconds,
                              trace, extra)
    show(args.workload[0], args.seed, trace, result, detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
