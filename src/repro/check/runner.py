"""Seeded schedule-exploration runner behind ``python -m repro check``.

One invocation sweeps *N* seeds over one benchmark application.  Each
seed builds a fresh simulated cluster whose network jitter (and fault
injector, when faults are requested) is driven by that seed, so the
protocol sees a different message interleaving every time.  Every run
executes under the :class:`~repro.check.monitor.InvariantMonitor` and
the :class:`~repro.check.oracle.SingleCopyOracle`, and its program
result is compared against one un-instrumented single-JVM reference
run.  Any divergence anywhere is a consistency violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..apps import raytracer, series, tsp
from ..dsm.transitions import TABLE
from ..lang import compile_source
from ..runtime.config import RuntimeConfig, config_from, option
from ..runtime.javasplit import build_runtime, run_original
from ..sim.engine import NS_PER_MS
from .faults import FaultInjector, FaultPlan, FaultStats, parse_node_at
from .monitor import InvariantMonitor, Violation
from .oracle import SingleCopyOracle

#: Jitter applied to every checked run so distinct seeds genuinely
#: explore distinct message interleavings (the base latency model is
#: deterministic).  Well under the transport RTO, so ARQ stays quiet on
#: fault-free links.
DEFAULT_JITTER_NS = 2 * NS_PER_MS

#: Small app instances: the point is schedule diversity across many
#: seeds, not workload realism, so each run must stay cheap.
APP_SOURCES: Dict[str, Callable[[], str]] = {
    "series": lambda: series.make_source(n_coeffs=24, steps=40, n_threads=3),
    "tsp": lambda: tsp.make_source(n_cities=7, n_threads=3, seed=42),
    "raytracer": lambda: raytracer.make_source(
        resolution=8, n_threads=3, n_spheres=16, seed=1234),
}

#: Benign-race suppressions auto-applied by ``repro check --race``.
#: tsp reads ``MinTour.best`` outside the lock *by design* (a stale
#: bound is safe, see apps/tsp.py) — a true race under happens-before,
#: documented and suppressed rather than hidden from the detector.
APP_RACE_SUPPRESS: Dict[str, "tuple[str, ...]"] = {
    "tsp": ("MinTour.best",),
}


@dataclass
class SeedResult:
    """Outcome of one seeded run."""

    seed: int
    violations: List[Violation] = field(default_factory=list)
    result_matches: bool = True
    console_matches: bool = True
    # False when the app cannot promise exact output under a kill (tsp's
    # shared job queue loses taken-but-unprocessed jobs with a worker);
    # the run must still finish with an oracle-clean heap.
    result_required: bool = True
    error: Optional[str] = None
    simulated_ns: int = 0
    messages: int = 0
    installs_checked: int = 0
    finals_checked: int = 0
    faults: Optional[FaultStats] = None
    ft: Optional[Dict[str, Any]] = None
    # Race-detector summary when the sweep runs with --race; the three
    # benchmark apps are well-synchronized, so any unsuppressed report
    # is a detector false positive (or a real regression) and fails the
    # seed.
    race: Optional[Dict[str, Any]] = None
    # Transition-table row hits, summed over the nodes (index = TABLE's).
    rows: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        exact = ((self.result_matches and self.console_matches)
                 or not self.result_required)
        race_clean = self.race is None or self.race["races"] == 0
        return (not self.violations and exact and race_clean
                and self.error is None)


@dataclass
class CheckReport:
    """Everything one ``repro check`` sweep learned."""

    app: str
    faults: str
    nodes: int
    kill: Optional[str] = None
    locality: str = ""
    policy: str = ""
    race: bool = False
    obs: bool = False
    backend: str = "sim"
    results: List[SeedResult] = field(default_factory=list)
    reference_result: Any = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failed_seeds(self) -> List[int]:
        return [r.seed for r in self.results if not r.ok]

    @property
    def rows_reached(self) -> Dict[str, int]:
        """Hits per transition-table row over the sweep, by row name
        (rows no seed took are left out)."""
        hits = [sum(col) for col in zip(*(r.rows for r in self.results))]
        return {row.name: n for row, n in zip(TABLE, hits) if n}

    def summary(self) -> str:
        n = len(self.results)
        installs = sum(r.installs_checked for r in self.results)
        finals = sum(r.finals_checked for r in self.results)
        injected = sum(
            (r.faults.dropped + r.faults.duplicated + r.faults.delayed
             + r.faults.reordered) if r.faults else 0
            for r in self.results)
        kills = sum(len(r.faults.detached) if r.faults else 0
                    for r in self.results)
        recovered = sum(
            len(r.ft["recoveries"]) if r.ft else 0 for r in self.results)
        lines = [
            f"check: app={self.app} nodes={self.nodes} "
            f"faults={self.faults or 'none'}"
            + (f" kill={self.kill}" if self.kill else "")
            + (f" locality={self.locality}" if self.locality else "")
            + (f" policy={self.policy}" if self.policy else "")
            + (" race=on" if self.race else "")
            + (" obs=on" if self.obs else "")
            + (f" backend={self.backend}" if self.backend != "sim" else ""),
            f"  seeds run           : {n}",
            f"  installs cross-checked: {installs}",
            f"  final units checked : {finals}",
            f"  faults injected     : {injected}",
        ]
        if self.race:
            events = sum(r.race["events_observed"] for r in self.results
                         if r.race)
            suppressed = sum(r.race["suppressed"] for r in self.results
                             if r.race)
            races = sum(r.race["races"] for r in self.results if r.race)
            lines.append(f"  race detector       : {races} reports, "
                         f"{suppressed} suppressed (benign), "
                         f"{events} access events")
        if self.kill or kills:
            lines.append(f"  nodes killed        : {kills} "
                         f"({recovered} recovered)")
        reached = self.rows_reached
        lines.append(f"  rows reached        : {len(reached)} of {len(TABLE)}")
        lines += [f"    unreached: {row.name}" for row in TABLE
                  if row.name not in reached]
        if self.ok:
            lines.append(f"  verdict             : OK "
                         f"({n}/{n} seeds consistent)")
        else:
            lines.append(f"  verdict             : FAILED "
                         f"(seeds {self.failed_seeds})")
            for r in self.results:
                if r.ok:
                    continue
                if r.error:
                    lines.append(f"  seed {r.seed}: error: {r.error}")
                if not r.result_matches and r.result_required:
                    lines.append(f"  seed {r.seed}: result diverges "
                                 f"from reference")
                if not r.console_matches and r.result_required:
                    lines.append(f"  seed {r.seed}: console diverges "
                                 f"from reference")
                if r.race is not None and r.race["races"]:
                    lines.append(
                        f"  seed {r.seed}: {r.race['races']} unexpected "
                        f"race report(s): "
                        + ", ".join(d["variable"]
                                    for d in r.race["reports"][:3]))
                for v in r.violations:
                    lines.append(f"  seed {r.seed}: {v}")
        return "\n".join(lines)


def app_source(app: str) -> str:
    """MiniJava source of one named benchmark at checking scale."""
    try:
        return APP_SOURCES[app]()
    except KeyError:
        raise ValueError(
            f"unknown app {app!r} (choose from "
            f"{', '.join(sorted(APP_SOURCES))})") from None


def parse_kill(kill: str, seed: int, nodes: int,
               master: int = 0) -> "tuple[int, int]":
    """Resolve a ``--kill`` spec to (node, simulated time).

    ``NODE@TIME`` (e.g. ``2@5ms``) kills that node at that time in every
    seeded run; ``random`` picks a seed-deterministic non-master node
    and a kill time spread over the first ~30 ms (the window in which
    the checking-scale apps do their work).
    """
    if kill == "random":
        candidates = [n for n in range(nodes) if n != master]
        if not candidates:
            raise ValueError("kill=random needs a non-master node")
        node = candidates[seed % len(candidates)]
        at_ns = (1 + (seed * 7) % 30) * NS_PER_MS
        return node, at_ns
    return parse_node_at(kill, nodes, master)


def run_check(
    app: str = "series",
    seeds: int = 25,
    faults: str = "",
    fault_rate: float = 0.05,
    kill: Optional[str] = None,
    strict: bool = False,
    progress: Optional[Callable[[SeedResult], None]] = None,
    **options: Any,
) -> CheckReport:
    """Sweep ``seeds`` seeded schedules of ``app`` under the oracle.

    ``faults`` is a comma-separated subset of drop/dup/delay/reorder
    (``""`` checks clean runs).  Each seeded run attaches the fault
    injector (seeded by the run seed), the invariant monitor, and the
    single-copy oracle; results are compared against one
    ``run_original`` reference execution.

    ``kill`` (``NODE@TIME`` or ``random``) unplugs one worker mid-run
    with the fault-tolerance subsystem enabled: the run must still
    complete with an oracle-clean heap.  Exact result equality is
    additionally required except for tsp, whose shared job queue may
    legitimately lose a taken-but-unprocessed job with the worker.

    ``options`` are run options by flag name (``nodes=4``,
    ``locality="all"``, ``backend="proc"``, ``jit=True``, ... — the
    :data:`~repro.runtime.config.RUN_FLAGS` table); every seeded run is
    configured from them, so the feature they switch on runs under the
    same oracle and monitor.  ``seed`` is the first seed of the sweep.
    Three of them mean more here than on a plain run:

    ``race`` — the benchmark apps are well-synchronized (tsp's
    deliberately-racy ``MinTour.best`` bound read is auto-suppressed,
    see :data:`APP_RACE_SUPPRESS`), so any report fails the seed: a
    zero-report sweep is the detector's no-false-positive guarantee.

    ``obs`` — puts the observability instrumentation itself under the
    oracle: telemetry must never perturb protocol correctness.

    ``backend="proc"`` — ``kill`` then SIGKILLs the worker process; a
    passing proc sweep certifies the wire plane end to end.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1 (a 0-seed sweep proves nothing)")
    # A detach can come from either --kill or a detach:NODE@TIME fault
    # spec; both run with the fault-tolerance subsystem enabled (without
    # it, losing a node strands the run in DeadlockError by design).
    nodes = option(options, "nodes")
    probe = FaultPlan.from_spec(faults, nodes=nodes)  # bad specs fail here
    killing = kill is not None or probe.detach_node is not None
    race = option(options, "race")
    first_seed = option(options, "seed")

    def seeded(seed: int) -> "tuple[FaultPlan, RuntimeConfig]":
        plan = FaultPlan.from_spec(faults, seed=seed, rate=fault_rate)
        if kill is not None:
            plan.detach_node, plan.detach_at_ns = \
                parse_kill(kill, seed=seed, nodes=nodes)
        return plan, config_from(
            options,
            seed=seed,
            net_jitter_ns=DEFAULT_JITTER_NS,
            reliable_transport=plan.lossy,
            ft_enabled=killing,
            race_suppress=APP_RACE_SUPPRESS.get(app, ()) if race else (),
        )

    # Reject bad kill specs and option combinations (e.g. a kill under
    # vector timestamps) before any run.
    seeded(first_seed)[1].validate()
    program: Any = compile_source(app_source(app))
    reference = run_original(classfiles=program)
    ref_console = sorted(reference.console)

    report = CheckReport(app=app, faults=faults, nodes=nodes, kill=kill,
                         locality=option(options, "locality"),
                         policy=option(options, "policy"), race=race,
                         obs=option(options, "obs"),
                         backend=option(options, "backend"),
                         reference_result=reference.result)
    for seed in range(first_seed, first_seed + seeds):
        plan, config = seeded(seed)
        sr = SeedResult(seed=seed,
                        result_required=not (killing and app == "tsp"))
        runtime = build_runtime(program, config,
                                option(options, "check_elim"))
        program = runtime.rewritten  # rewrite once, reuse for every seed
        injector = FaultInjector.attach(runtime, plan) \
            if (faults or kill) else None
        monitor = InvariantMonitor.attach(runtime, strict=strict)
        oracle = SingleCopyOracle.attach(runtime)
        try:
            run = runtime.run()
            sr.simulated_ns = run.simulated_ns
            sr.messages = run.net.messages if run.net else 0
            sr.ft = run.ft
            sr.race = run.race
            sr.result_matches = run.result == reference.result
            sr.console_matches = sorted(run.console) == ref_console
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            if strict:
                raise
            sr.error = f"{type(exc).__name__}: {exc}"
        sr.rows = [sum(col) for col in
                   zip(*(w.dsm.row_hits for w in runtime.workers))]
        monitor.finalize()
        if sr.error is None:
            # A crashed run leaves the heap mid-protocol; skip the
            # convergence scan and report the crash itself.
            oracle.finalize()
        sr.violations = list(monitor.violations) + list(oracle.violations)
        sr.installs_checked = oracle.checked_installs
        sr.finals_checked = oracle.checked_final
        if injector is not None:
            sr.faults = injector.stats
        report.results.append(sr)
        if progress is not None:
            progress(sr)
    return report


# ---------------------------------------------------------------------------
# Racy-program sweeps (``python -m repro race``)
# ---------------------------------------------------------------------------

@dataclass
class RaceSeedResult:
    """Outcome of one seeded detector run over a racy program."""

    seed: int
    races: int = 0
    suppressed: int = 0
    reports: List[Dict[str, Any]] = field(default_factory=list)
    events: int = 0
    simulated_ns: int = 0
    error: Optional[str] = None

    def ok(self, expect: str) -> bool:
        if self.error is not None:
            return False
        return self.races == 0 if expect == "free" else self.races >= 1


@dataclass
class RaceSweepReport:
    """One ``repro race`` sweep: the detector's verdict over N seeds."""

    name: str
    expect: str                  # "race" or "free"
    nodes: int
    mode: str = "both"
    results: List[RaceSeedResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok(self.expect) for r in self.results)

    @property
    def failed_seeds(self) -> List[int]:
        return [r.seed for r in self.results if not r.ok(self.expect)]

    def summary(self) -> str:
        n = len(self.results)
        races = sum(r.races for r in self.results)
        suppressed = sum(r.suppressed for r in self.results)
        events = sum(r.events for r in self.results)
        lines = [
            f"race: {self.name} nodes={self.nodes} mode={self.mode} "
            f"expect={self.expect}",
            f"  seeds run           : {n}",
            f"  race reports        : {races} "
            f"({suppressed} suppressed as benign)",
            f"  access events       : {events}",
        ]
        if self.ok:
            what = ("no races reported" if self.expect == "free"
                    else "seeded race caught on every seed")
            lines.append(f"  verdict             : OK ({what})")
        else:
            what = ("unexpected race report" if self.expect == "free"
                    else "missed seeded race")
            lines.append(f"  verdict             : FAILED "
                         f"({what}, seeds {self.failed_seeds})")
            for r in self.results:
                if r.error:
                    lines.append(f"  seed {r.seed}: error: {r.error}")
        return "\n".join(lines)


def run_race_check(
    source: str,
    name: str = "program",
    seeds: int = 8,
    mode: str = "both",
    expect: str = "race",
    suppress: "tuple[str, ...]" = (),
    progress: Optional[Callable[[RaceSeedResult], None]] = None,
    **options: Any,
) -> RaceSweepReport:
    """Sweep ``seeds`` seeded schedules of one program under the race
    detector alone.

    ``expect="race"`` (the positive-control mode for the deliberately-
    racy examples) fails any seed with zero reports — a missed seeded
    race; ``expect="free"`` fails any seed with a report.  Unlike
    :func:`run_check`, no consistency oracle or invariant monitor is
    attached: a racy program is outside the data-race-free contract the
    single-copy oracle assumes, so its heap may legitimately diverge.
    ``options`` are run options by flag name, as for :func:`run_check`.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1 (a 0-seed sweep proves nothing)")
    if expect not in ("race", "free"):
        raise ValueError(f"expect must be 'race' or 'free', not {expect!r}")
    program: Any = source
    report = RaceSweepReport(name=name, expect=expect,
                             nodes=option(options, "nodes"), mode=mode)
    first_seed = option(options, "seed")
    for seed in range(first_seed, first_seed + seeds):
        config = config_from(
            options,
            seed=seed,
            net_jitter_ns=DEFAULT_JITTER_NS,
            race_detect=True,
            race_mode=mode,
            race_suppress=suppress,
        )
        runtime = build_runtime(program, config,
                                option(options, "check_elim"))
        program = runtime.rewritten  # rewrite once, reuse for every seed
        sr = RaceSeedResult(seed=seed)
        try:
            run = runtime.run()
            assert run.race is not None
            sr.races = run.race["races"]
            sr.suppressed = run.race["suppressed"]
            sr.reports = run.race["reports"]
            sr.events = run.race["events_observed"]
            sr.simulated_ns = run.simulated_ns
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            sr.error = f"{type(exc).__name__}: {exc}"
        report.results.append(sr)
        if progress is not None:
            progress(sr)
    return report
