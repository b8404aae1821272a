"""Churn orchestration: scenario scripts over the serving workload.

A :class:`Scenario` composes everything the paper says a run must
survive — heterogeneous brands, workers joining mid-run (§2 "during
execution, new workers can join the system"), workers dying mid-run
(§6 fault tolerance), several tenant programs co-located on one
cluster, and load whose hot set shifts between phases so the adaptive
locality/coherence machinery has to keep migrating.

Every scenario runs under the single-copy oracle and the invariant
monitor, and its program result is compared against a single-JVM
reference execution fed the *identical* arrival schedule — churn may
cost throughput, never consistency.  Under a kill the exact result is
not required (fault tolerance restarts the dead node's threads from
scratch, so non-idempotent in-flight requests are legitimately lost,
same contract as tsp in ``repro check --kill``), but the run must
still complete oracle-clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..check.faults import FaultInjector, FaultPlan
from ..check.monitor import InvariantMonitor
from ..check.oracle import SingleCopyOracle
from ..check.runner import DEFAULT_JITTER_NS, parse_kill
from ..lang import compile_source
from ..runtime.config import RuntimeConfig, config_from, option
from ..runtime.javasplit import RunReport, build_runtime, run_original
from ..sim.engine import NS_PER_MS
from .app import make_source
from .loadgen import Arrival, LoadGenerator, PhaseSpec
from .manager import LoadFeed, ServeManager
from .slo import build_slo


@dataclass(frozen=True)
class Scenario:
    """One churn script: cluster shape + workload + disruption plan."""

    name: str
    description: str
    nodes: int
    brands: Tuple[str, ...]
    tenants: int
    workers: int                       # serve workers per tenant
    sessions: int
    stripes: int
    work_scale: int
    phases: Tuple[PhaseSpec, ...]
    #: Mid-run joins: (simulated time ns, brand of the new worker).
    joins: Tuple[Tuple[int, str], ...] = ()
    #: ``--kill``-style spec (``"random"`` or ``"NODE@TIME"``), or None.
    kill: Optional[str] = None
    #: ``--locality`` / ``--policy`` specs ("" = subsystem off).
    locality: str = ""
    policy: str = ""
    #: Tier hot methods (repro.jit); observables are unchanged, only
    #: the wall clock moves — see the jit differential tests.
    jit: bool = False

    def config(self, seed: int = 0, backend: str = "sim",
               **options: Any) -> RuntimeConfig:
        """The config of one run of this script.  The script's own run
        options (cluster size, locality/policy specs, jit) are defaults
        under ``options``; its per-node brand list stands unless
        ``brand`` is among them."""
        options = {"nodes": self.nodes, "locality": self.locality,
                   "policy": self.policy, "jit": self.jit,
                   "seed": seed, "backend": backend, **options}
        killing = self.kill is not None
        fields: Dict[str, Any] = dict(
            net_jitter_ns=DEFAULT_JITTER_NS,
            reliable_transport=killing,
            ft_enabled=killing,
            obs_metrics=True,
        )
        if "brand" not in options:
            fields["brands"] = self.brands
        return config_from(options, **fields)


#: The scenario library.  "churn" is the acceptance scenario: open-loop
#: load on mixed sun/ibm brands, two tenant programs, one worker joining
#: mid-run and one random worker killed mid-run — all under the oracle.
PRESETS: Dict[str, Scenario] = {
    "steady": Scenario(
        name="steady",
        description="baseline: constant load, fixed homogeneous cluster",
        nodes=3, brands=("sun",),
        tenants=2, workers=2, sessions=32, stripes=4, work_scale=6,
        phases=(PhaseSpec(duration_ms=4, rate_per_ms=5),
                PhaseSpec(duration_ms=4, rate_per_ms=5)),
    ),
    "churn": Scenario(
        name="churn",
        description=("mixed sun/ibm brands, ibm worker joins at 6ms, "
                     "random worker killed, two tenants"),
        nodes=3, brands=("sun", "ibm", "sun"),
        tenants=2, workers=2, sessions=32, stripes=4, work_scale=6,
        phases=(PhaseSpec(duration_ms=5, rate_per_ms=4),
                PhaseSpec(duration_ms=5, rate_per_ms=4),
                PhaseSpec(duration_ms=5, rate_per_ms=4)),
        joins=((6 * NS_PER_MS, "ibm"),),
        kill="random",
    ),
    "hotset": Scenario(
        name="hotset",
        description=("phase-shifted hot key ranges under full adaptive "
                     "locality + coherence policies"),
        nodes=3, brands=("sun", "ibm", "sun"),
        tenants=2, workers=2, sessions=32, stripes=4, work_scale=6,
        phases=(
            PhaseSpec(duration_ms=4, rate_per_ms=6,
                      hot_lo=0, hot_hi=8, hot_frac=0.8),
            PhaseSpec(duration_ms=4, rate_per_ms=6,
                      hot_lo=12, hot_hi=20, hot_frac=0.8),
            PhaseSpec(duration_ms=4, rate_per_ms=6,
                      hot_lo=24, hot_hi=32, hot_frac=0.8),
        ),
        locality="all",
        policy="all",
    ),
}


def run_serve_reference(classfiles: List[Any],
                        schedules: List[List[Arrival]]) -> RunReport:
    """Single-JVM reference run (:func:`~repro.runtime.javasplit.
    run_original`) fed the identical arrival schedule: the load feed the
    ``Serve`` natives need is installed before main starts."""
    def install_feed(jvm: Any) -> None:
        jvm.serve_feed = LoadFeed(jvm.node.engine, schedules)

    return run_original(classfiles=classfiles, prepare=install_feed)


def run_scenario(scenario: Scenario, seed: int = 0,
                 backend: str = "sim",
                 config_overrides: Optional[Dict[str, Any]] = None,
                 on_runtime: Optional[Any] = None,
                 **options: Any) -> Dict[str, Any]:
    """Execute one scenario under full checking; return the JSON doc.

    ``options`` are run options by flag name (the ``RUN_FLAGS`` table);
    they override what the scenario itself selects.
    ``config_overrides`` patches RuntimeConfig fields after that (e.g.
    ``{"obs_live_stats": True}`` for live telemetry);
    ``on_runtime(runtime)`` is called once the runtime exists but before
    the run starts — the ``repro stats --live`` hook point.
    """
    config = scenario.config(seed, backend, **options)
    for name, value in (config_overrides or {}).items():
        setattr(config, name, value)
    config.validate()  # reject options the script cannot honour up front
    gen = LoadGenerator(scenario.phases, scenario.sessions, seed=seed)
    schedules = gen.schedules(scenario.tenants)
    injected_by_phase = LoadGenerator.injected_by_phase(schedules)
    source = make_source(
        tenants=scenario.tenants, workers=scenario.workers,
        sessions=scenario.sessions, stripes=scenario.stripes,
        work_scale=scenario.work_scale)
    classfiles = compile_source(source)
    reference = run_serve_reference(classfiles, schedules)

    killing = scenario.kill is not None
    runtime = build_runtime(classfiles, config, option(options, "check_elim"))
    manager = ServeManager.attach(runtime, schedules)
    if on_runtime is not None:
        on_runtime(runtime)
    for at_ns, brand in scenario.joins:
        runtime.schedule_join(at_ns, brand)
    injector = None
    if killing:
        plan = FaultPlan(seed=seed)
        plan.detach_node, plan.detach_at_ns = parse_kill(
            scenario.kill, seed=seed, nodes=config.num_nodes)
        injector = FaultInjector.attach(runtime, plan)
    monitor = InvariantMonitor.attach(runtime)
    oracle = SingleCopyOracle.attach(runtime)

    error: Optional[str] = None
    run = None
    try:
        run = runtime.run()
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        error = f"{type(exc).__name__}: {exc}"
    monitor.finalize()
    if error is None:
        oracle.finalize()
    violations = [str(v) for v in
                  list(monitor.violations) + list(oracle.violations)]

    result = run.result if run is not None else None
    result_matches = run is not None and result == reference.result
    # Same contract as tsp under --kill: fault tolerance restarts the
    # dead node's threads from scratch, so in-flight requests are
    # legitimately lost and the commutative score may differ.
    result_required = not killing
    ok = (error is None and not violations
          and (result_matches or not result_required))

    brands = [config.brand_of(i) for i in range(config.num_nodes)]
    doc: Dict[str, Any] = {
        "scenario": scenario.name,
        "description": scenario.description,
        "backend": backend,
        "seed": seed,
        "cluster": {
            "nodes": config.num_nodes,
            "brands": brands,
            "cpus_per_node": config.cpus_per_node,
            "backend": backend,
            "joins": [{"at_ms": at / NS_PER_MS, "brand": b}
                      for at, b in scenario.joins],
            "kill": scenario.kill,
            "tenants": scenario.tenants,
        },
        "requests": manager.report(),
        "result": {
            "value": result,
            "reference": reference.result,
            "matches": result_matches,
            "required": result_required,
        },
        "oracle": {
            "violations": violations,
            "installs_checked": oracle.checked_installs,
            "finals_checked": oracle.checked_final,
        },
        "ok": ok,
    }
    if error is not None:
        doc["error"] = error
    if injector is not None:
        doc["faults"] = {
            "killed": list(injector.stats.detached),
        }
    if run is not None:
        doc["simulated_ms"] = round(run.simulated_ns / NS_PER_MS, 3)
        doc["threads_run"] = run.threads_run
        if run.ft is not None:
            doc["ft"] = {"recoveries": len(run.ft["recoveries"])}
    metrics = runtime.obs.metrics if runtime.obs is not None else None
    if metrics is not None:
        doc["slo"] = build_slo(metrics, gen.phase_bounds(),
                               injected_by_phase)
    return doc


def run_scenario_sweep(scenario: Scenario, seeds: int,
                       backend: str = "sim", seed: int = 0,
                       **options: Any) -> Dict[str, Any]:
    """Run one scenario over ``seeds`` consecutive seeds from ``seed``
    up (the CI churn sweep)."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    runs = [run_scenario(scenario, seed=s, backend=backend, **options)
            for s in range(seed, seed + seeds)]
    return {
        "bench": "serve-sweep",
        "schema": 1,
        "scenario": scenario.name,
        "backend": backend,
        "seeds": runs,
        "ok": all(r["ok"] for r in runs),
        "failed_seeds": [r["seed"] for r in runs if not r["ok"]],
    }
