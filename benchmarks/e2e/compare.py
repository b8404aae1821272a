#!/usr/bin/env python3
"""Compare benchmark documents written by ``run.py`` (suite form).

    python3 benchmarks/e2e/compare.py A.json B.json [C.json ...]

A is the base; every other document is compared with it.  One row per
workload x end-to-end metric: each side's median and quartiles over its
runs, the pairs B won (runs are paired by workload and seed), and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric:

- ``unresolved``: either side's quartile spread (q3 - q1 over the
  median) is wider than the bound, so a move of that size cannot be
  told from noise;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better by more than A's own quartile
  spread and B won at least nine tenths of the pairs, ties not counted;
- ``unchanged``: otherwise.

Per-layer metrics whose unit says they are seed-deterministic (counts,
bytes, simulated time) must be identical in both documents for the same
workload and seed; every difference is listed.  The exit code is 1 if
any row is ``regressed`` or ``unresolved`` or any exact metric differs.
Comparing two documents of the same commit is the agreement check.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Units of numbers that depend on the host clock; every other
#: per-layer number repeats exactly for the same workload and seed.
TIMED_UNITS = frozenset(
    {"s", "ms", "us", "1/s", "MB/s", "MiB", "wall_x", "wall_share"})


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_key(doc: Dict[str, Any], trace: int
           ) -> Dict[Tuple[str, int], Dict[str, Any]]:
    return {(r["workload"], r["seed"]): r["result"]["metrics"]
            for r in doc["runs"] if r["trace"] == trace}


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int, int]:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    decided = sum(1 for x, y in pairs if y != x)
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a)           # > 0: B is better
    if max(spread(a), spread(b)) > bound:
        return "unresolved", wins, decided
    if -gain > bound * abs(med_a):
        return "regressed", wins, decided
    q1, _, q3 = quartiles(a)
    if gain > q3 - q1 and decided and wins >= 0.9 * decided:
        return "improved", wins, decided
    return "unchanged", wins, decided


def compare(base: Dict[str, Any], other: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    bad = 0
    a_runs, b_runs = by_key(base, 0), by_key(other, 0)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B won':>7s}  verdict")
    for workload in workloads:
        seeds = sorted(s for w, s in a_runs if w == workload
                       and (w, s) in b_runs)
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [a_runs[workload, s][name]["value"] for s in seeds]
            b = [b_runs[workload, s][name]["value"] for s in seeds]
            word, wins, decided = verdict(a, b, list(zip(a, b)),
                                          m["better"], m["bound"])
            bad += word in ("regressed", "unresolved")
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:14s} {name:12s} {cells[0]:>32s} "
                  f"{cells[1]:>32s} {wins:>3d}/{decided:<3d}  {word}")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    a_layers, b_layers = by_key(base, 1), by_key(other, 1)
    for key in sorted(set(a_layers) & set(b_layers)):
        for name, unit in units.items():
            if unit in TIMED_UNITS or name == "host.nproc":
                continue
            va = a_layers[key][name]["value"]
            vb = b_layers[key][name]["value"]
            if va != vb:
                bad += 1
                print(f"exact metric differs: {key[0]} seed {key[1]} "
                      f"{name}: {va} != {vb}")
    return bad


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    bad = 0
    for path, doc in zip(argv[1:], docs[1:]):
        print(f"== A = {argv[0]}   B = {path}")
        for side, d in (("A", docs[0]), ("B", doc)):
            if not d.get("comparable", True):
                print(f"   {side} is a --quick document: not comparable")
        bad += compare(docs[0], doc, spec)
    print("agreement: " + ("ok" if not bad else f"{bad} rows failed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
