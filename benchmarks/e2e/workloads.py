"""The benchmark's workloads: inputs, sizes, expected results.

Every workload runs on 3 nodes x 2 CPUs.  The batch workloads run one
program through the whole pipeline (source text -> compile -> rewrite
-> runtime -> run -> result check); the serve workloads call
``repro.serve.run_scenario``, which runs the same pipeline for the
request-processing app under the oracle and the invariant monitor.

Sizes were chosen so that one pass takes 1-2 s on a 2-core shared host:
the benchmark contract allows about 20 s per run including set-up, and
a run has to hold enough passes for a steady median.

Expected results never come from the rewritten/distributed path under
test: they are closed forms, or literals cross-checked against
``run_original`` (``run.py --verify-reference`` recomputes them), or,
for the serve workloads, the single-JVM reference run that
``run_scenario`` itself compares against.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional, Tuple

NODES = 3
CPUS = 2
BRAND = "sun"

_PROGRAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "programs")


def _program(name: str, **params: int) -> str:
    with open(os.path.join(_PROGRAMS, name)) as fh:
        text = fh.read()
    for key, value in params.items():
        text = text.replace(f"@{key}@", str(value))
    return text


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Batch:
    """One program, run once per pass through the whole pipeline."""

    name: str
    why: str
    #: Program size, full and ``--quick`` (about a tenth of the work).
    size: Dict[str, int]
    quick_size: Dict[str, int]
    #: ``RuntimeConfig`` fields beyond nodes/cpus/brand/seed.
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Thread count of the program as benchmarked.
    threads: int = 4
    #: Whether the program does the same total work with 2 threads, so
    #: that the paper's baseline (original program, 2 threads, one
    #: dual-CPU node) is comparable.
    has_baseline: bool = True

    #: How many seeds in a row give different inputs.
    seeds = 1

    def params(self, seed: int, quick: bool) -> Dict[str, int]:
        return dict(self.quick_size if quick else self.size)

    def source(self, params: Dict[str, int], threads: int) -> str:
        raise NotImplementedError

    def expected(self, params: Dict[str, int]) -> int:
        raise NotImplementedError


class _Series(Batch):
    # (n_coeffs, steps) -> int(checksum * 1000), from run_original.
    EXPECTED = {(60, 120): 8891, (24, 40): 7559}

    def source(self, params, threads):
        from repro.apps import series
        return series.make_source(n_coeffs=params["n_coeffs"],
                                  steps=params["steps"], n_threads=threads)

    def expected(self, params):
        return self.EXPECTED[(params["n_coeffs"], params["steps"])]


class _Tsp(Batch):
    # Branch-and-bound work varies 3x between random instances (2.0M to
    # 6.6M bytecodes over city seeds 0..159), which no regression bound
    # could absorb.  --seed therefore picks from a pool of city seeds
    # whose 9-city, 6-thread search under the JIT takes the same wall
    # time within +-1.5% (2.7M-2.8M bytecodes, vetted once: README,
    # "How the sizes were chosen").  Entries: city seed -> (best tour
    # for 9 cities, best tour for the 7-city --quick instance), both
    # from run_original.
    POOL: Dict[int, Tuple[int, int]] = {
        9: (2987, 2769), 58: (2521, 2468), 81: (2574, 2552),
        90: (2318, 2135), 99: (3144, 2345),
    }
    seeds = len(POOL)

    def params(self, seed, quick):
        cities = sorted(self.POOL)
        return {"n_cities": 7 if quick else 9,
                "city_seed": cities[seed % len(cities)]}

    def source(self, params, threads):
        from repro.apps import tsp
        return tsp.make_source(n_cities=params["n_cities"],
                               n_threads=threads, seed=params["city_seed"])

    def expected(self, params):
        best9, best7 = self.POOL[params["city_seed"]]
        return best9 if params["n_cities"] == 9 else best7


class _Locks(Batch):
    def source(self, params, threads):
        total = self.threads * params["iters"]
        return _program("locks.mj", THREADS=threads, ITERS=total // threads)

    def expected(self, params):
        return self.threads * params["iters"]


class _Bulk(Batch):
    def source(self, params, threads):
        return _program("bulk.mj", THREADS=threads,
                        ROUNDS=params["rounds"], CELLS=params["cells"])

    def expected(self, params):
        return params["rounds"]


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Step:
    """One ``run_scenario`` call of a serve pass."""

    label: str              # metric suffix, e.g. "r80"
    rate_rps: int           # offered requests per simulated second
    scenario: Any           # repro.serve.Scenario
    seed: int               # LoadGenerator and RuntimeConfig seed
    kill_ms: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class Serve:
    """Open-loop request workload in simulated time.

    Arrivals are precomputed by ``LoadGenerator`` before the run starts,
    so the generator is never late: lateness is 0 by construction and
    request latency runs from the scheduled arrival to ``Serve.done``.
    """

    name: str
    why: str
    #: Requests per ``run_scenario`` call, full and ``--quick``.
    requests: int
    quick_requests: int

    def steps(self, seed: int, quick: bool) -> List[Step]:
        raise NotImplementedError

    def _pick_seed(self, scenario: Any, seed: int, target: int) -> int:
        """First generator seed at or after ``1000 * seed`` whose Poisson
        schedule holds ``target`` requests within 1%.

        The request count of a schedule varies by +-5% between seeds and
        wall time follows it, so fixing the count keeps ``wall_s``
        comparable between seeds while the arrival pattern still varies.
        """
        from repro.serve import LoadGenerator
        tolerance = max(1, target // 100)
        for candidate in range(1000 * seed, 1000 * seed + 1000):
            gen = LoadGenerator(scenario.phases, scenario.sessions,
                                seed=candidate)
            count = sum(len(s) for s in gen.schedules(scenario.tenants))
            if abs(count - target) <= tolerance:
                return candidate
        raise RuntimeError(f"{self.name}: no schedule of {target} requests "
                           f"for seed {seed}")


class _Ladder(Serve):
    RATES = (40, 80, 120)

    def steps(self, seed, quick):
        from repro.serve import PRESETS, PhaseSpec
        requests = self.quick_requests if quick else self.requests
        base = PRESETS["steady"]
        out = []
        for rate in self.RATES:
            per_tenant = rate / 1000.0 / base.tenants      # per sim-ms
            phase_ms = requests / (rate / 1000.0) / 2
            phase = PhaseSpec(duration_ms=phase_ms, rate_per_ms=per_tenant)
            scenario = dataclasses.replace(base, phases=(phase, phase))
            out.append(Step(f"r{rate}", rate, scenario,
                            self._pick_seed(scenario, seed, requests)))
        return out


class _Churn(Serve):
    RATE = 60
    JOIN_MS = 1000
    QUIET_MS = 2400     # last arrival before the kill
    KILL_MS = 2900
    RESUME_MS = 3000

    def steps(self, seed, quick):
        from repro.serve import PRESETS, PhaseSpec
        from repro.sim.engine import NS_PER_MS
        requests = self.quick_requests if quick else self.requests
        base = PRESETS["churn"]
        per_tenant = self.RATE / 1000.0 / base.tenants
        busy_ms = requests / (self.RATE / 1000.0)
        gap_ms = self.RESUME_MS - self.QUIET_MS
        # No request is in flight when node 2 dies: arrivals pause 500
        # sim-ms before the kill (p99 latency is ~150 sim-ms), so the
        # kill costs recovery work but loses no request and every seed
        # completes all it injected.  A uniform phase whose one gap is
        # longer than the phase injects nothing and leaves the schedule
        # clock just past its end.
        phases = (
            PhaseSpec(duration_ms=self.QUIET_MS, rate_per_ms=per_tenant),
            PhaseSpec(duration_ms=gap_ms, rate_per_ms=1.0 / (gap_ms + 1),
                      dist="uniform"),
            PhaseSpec(duration_ms=busy_ms - self.QUIET_MS,
                      rate_per_ms=per_tenant),
        )
        scenario = dataclasses.replace(
            base, phases=phases,
            joins=((self.JOIN_MS * NS_PER_MS, "ibm"),),
            kill=f"2@{self.KILL_MS}ms")
        return [Step(f"r{self.RATE}", self.RATE, scenario,
                     self._pick_seed(scenario, seed, requests),
                     kill_ms=self.KILL_MS)]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Any] = {w.name: w for w in (
    _Series(
        name="series_interp",
        why=("apps.series n_coeffs=60 steps=120, 6 threads, interpreter: "
             "compute-bound, 50 messages; the bytecode dispatch loop is "
             "~98% of the wall, DSM/net/sim do almost nothing."),
        size={"n_coeffs": 60, "steps": 120},
        quick_size={"n_coeffs": 24, "steps": 40},
        threads=6,
    ),
    _Tsp(
        name="tsp_jit",
        why=("apps.tsp 9 cities, 6 threads, jit_enable: the paper's "
             "sharing-heavy app as compiled code plus exits at call and "
             "lock sites; moves with JIT work, not the interpreter alone."),
        size={"n_cities": 9}, quick_size={"n_cities": 7},
        config={"jit_enable": True},
        threads=6,
    ),
    _Locks(
        name="locks_sim",
        why=("locks.mj 4 threads x 1500 lock hand-overs, sim backend: "
             "protocol-bound (3.5 messages, 23 bytecodes each); DSM "
             "handlers, transport and event heap do ~75% of the work."),
        size={"iters": 1500}, quick_size={"iters": 150},
    ),
    _Locks(
        name="locks_proc",
        why=("locks.mj 4 x 250 over the proc backend (unix sockets): the "
             "same messages as many small frames, so relay round trips "
             "dominate; locks_sim is its bypass."),
        size={"iters": 250}, quick_size={"iters": 25},
        config={"transport_backend": "proc"},
    ),
    _Bulk(
        name="bulk_proc",
        why=("bulk.mj 4 threads x 60 rounds on a 4096-int board, proc "
             "backend: few large frames (4 MB), so serializer, diffs and "
             "wire codec dominate, not round trips."),
        size={"rounds": 60, "cells": 4096},
        quick_size={"rounds": 6, "cells": 4096},
        config={"transport_backend": "proc"},
        has_baseline=False,
    ),
    _Ladder(
        name="serve_ladder",
        why=("serve steady preset, open loop at 40/80/120 req per sim-s "
             "x 240 requests, under oracle+monitor: straddles the ~130 "
             "req/s knee; serve, check, obs, sim timers, jvm+dsm mix."),
        requests=240, quick_requests=24,
    ),
    _Churn(
        name="serve_churn",
        why=("serve churn preset, 420 requests at 60 req per sim-s, ibm "
             "worker joins, node 2 killed: the only workload with ft, "
             "ARQ transport, late join and mixed brands switched on."),
        requests=420, quick_requests=240,
    ),
)}
