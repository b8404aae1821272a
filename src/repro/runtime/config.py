"""Runtime configuration: the :class:`RuntimeConfig` dataclass and the
one table (:data:`RUN_FLAGS`) that declares every user-settable run
option — its command-line spelling, its default, and the
``RuntimeConfig`` keyword(s) it sets.  Every cluster-running CLI verb
takes its flags from :func:`add_run_flags`, and every harness entry
point (``run_check``, ``run_race_check``, ``run_scenario``, the JSON
benches) turns the same named options into a config with
:func:`config_from`, so equal options always mean equal configs."""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..dsm import engine_class
from ..dsm.protocol import SCALAR, DsmConfig
from ..sim.cost_model import PROFILE_APP, PROFILE_MICRO
from ..sim.node import DEFAULT_QUANTUM_NS
from .scheduler import SCHEDULERS


@dataclass
class RuntimeConfig:
    """Cluster + protocol configuration for one JavaSplit execution.

    Defaults model the paper's testbed: dual-processor nodes on a
    100 Mbit network (the bandwidth lives in the brand cost models).
    ``brands`` may name one brand for all nodes or one per node — the
    paper explicitly mixes JVM brands in a single execution (§6).
    """

    num_nodes: int = 1
    cpus_per_node: int = 2
    brands: Sequence[str] = ("sun",)
    dsm: DsmConfig = field(default_factory=DsmConfig)
    scheduler: str = "least-loaded"
    quantum_ns: int = DEFAULT_QUANTUM_NS
    net_jitter_ns: int = 0
    # TCP-like ARQ on every transport endpoint (acks + retransmission).
    # Required when the fault injector drops or duplicates raw frames;
    # off by default so clean runs keep exact message accounting.
    reliable_transport: bool = False
    seed: int = 0
    # Instruction-cost time dilation (see CostModel.scaled): lets small
    # simulated inputs reproduce the compute:communication ratio of the
    # paper's full-size workloads.
    time_dilation: int = 1
    # Cost calibration: "app" (default; §6.2 application-level slowdowns)
    # or "micro" (Table 1/2 repeated-access microbenchmark numbers).
    cost_profile: str = "app"
    # ----- transport backend (src/repro/net) ---------------------------
    # "sim" (default): in-process simulated network — deterministic, the
    # oracle/differential reference.  "proc": one OS process per node
    # with every frame relayed over real sockets (see net/procnet.py);
    # same schedule and message counts, but payloads genuinely cross a
    # wire-format encode/decode and node kills map to SIGKILL of the
    # worker process.
    transport_backend: str = "sim"
    # Socket family for the proc backend: "unix" (default) or "tcp"
    # (127.0.0.1, ephemeral ports).
    proc_socket_kind: str = "unix"
    # ----- fault tolerance (src/repro/ft) ------------------------------
    # Survive the loss of a single (non-master) worker: heartbeat failure
    # detection, buddy replication of home state, and node-failure
    # recovery.  Off by default — fault-free runs with ft_enabled=False
    # are byte-identical to a build without the subsystem.
    ft_enabled: bool = False
    # ----- adaptive locality (src/repro/locality) ----------------------
    # Observe per-unit access patterns and adapt the protocol: re-home
    # units to their dominant writer, prefetch invalidated units in bulk
    # on acquire, and coalesce same-destination flush traffic at release.
    # All three default off — with every knob off, runs are byte-identical
    # to a build without the subsystem.
    locality_migration: bool = False
    locality_prefetch: bool = False
    locality_aggregation: bool = False
    # ----- adaptive coherence policies (src/repro/policy) --------------
    # Classify each coherency unit's sharing pattern online (from the
    # same home-side fetch/diff signal the locality profiler sees) and
    # switch its coherence protocol per unit at runtime.  Each policy is
    # an independent knob; all default off — with every knob off no
    # agent is attached and runs are byte-identical to a build without
    # the subsystem.
    #
    # write-update: the home of a producer-consumer unit pushes fresh
    # copies eagerly to its stable reader set, so the readers' write
    # notices become no-ops instead of forcing re-fetches.
    policy_update: bool = False
    # migratory single-writer: ownership of a lock-protected unit
    # travels with the lock token, so the current holder writes its own
    # master (no twin, no diff, no fetch — the §4.4 fast path applies).
    policy_migratory: bool = False
    # read-mostly broadcast: a version-stamped full copy of a unit that
    # is read everywhere and written rarely is broadcast on the rare
    # write; reads stay free everywhere.
    policy_broadcast: bool = False
    # ----- data-race detection (src/repro/race) ------------------------
    # Online distributed detector over the access checks: vector-clock
    # happens-before with FastTrack-style epoch compression, plus an
    # Eraser-style lockset engine.  Off by default — with race_detect
    # False no agent is attached, no payload field is added, and runs
    # are byte-identical to a build without the subsystem.
    race_detect: bool = False
    # "hb", "lockset", or "both" (HB verdicts annotated with the lockset
    # diagnosis, plus lockset-only findings).
    race_mode: str = "both"
    # Benign-race suppression patterns ("Class.field" or "Class[]"), in
    # the spirit of a ThreadSanitizer suppression file.  Suppressed
    # findings are counted but not reported.
    race_suppress: Sequence[str] = ()
    # ----- tiered JIT (src/repro/jit) ----------------------------------
    # Tier-1 compilation: hot rewritten methods are translated to
    # specialized Python functions (codegen + exec) with the per-
    # instruction simulated costs pre-summed per straight-line run and
    # the §4.4 local-lock fast path inlined.  Off by default — with
    # jit_enable False no manager is attached and runs are byte-identical
    # to a build without the subsystem; with it on, results, protocol
    # traffic, and simulated time are still byte-identical (the compiler
    # only changes wall-clock speed), which the differential suite
    # verifies.
    jit_enable: bool = False
    # Invocations (plus one bump per scheduling quantum spent in a
    # method) before a method is promoted from tier 0 to tier 1.
    jit_threshold: int = 10
    # ----- telemetry (src/repro/obs) -----------------------------------
    # Metrics registry: per-node counters/gauges/histograms sampled into
    # sim-time-bucketed series.  Traffic-passive.
    obs_metrics: bool = False
    # Causal span tracing: protocol transactions become span trees whose
    # ids piggyback on protocol payloads (the one obs knob that adds
    # wire bytes), exportable as Perfetto JSON / speedscope stacks.
    obs_spans: bool = False
    # Stall-attribution profiler: every thread wait charged to the
    # blocking bytecode site and coherency unit.  Traffic-passive.
    obs_profile: bool = False
    # Wall-clock telemetry: monotonic-clock histograms for socket RTT,
    # wire encode/decode, worker event-loop lag, and JIT compile/quantum
    # time.  Passive: never adds payload bytes or sim events.
    obs_wallclock: bool = False
    # Per-worker flight recorder: bounded ring of recent protocol / jit /
    # serve events with paired (wall, sim) timestamps, dumped to JSON on
    # SIGKILL detection, oracle/monitor violation, or WireError.
    obs_flight_recorder: bool = False
    # Directory for flight dumps (None -> a fresh temp directory).
    obs_flight_dir: Optional[str] = None
    # Live stats streaming: proc workers ship compact metric deltas to
    # the master on a wall-clock cadence (``repro stats --live``).
    obs_live_stats: bool = False
    # Wall-clock period between live delta shipments.
    obs_live_period_s: float = 0.25

    @property
    def obs_enabled(self) -> bool:
        """True when any telemetry collector is switched on."""
        return (self.obs_metrics or self.obs_spans or self.obs_profile
                or self.obs_wallclock or self.obs_flight_recorder
                or self.obs_live_stats)

    @property
    def locality_enabled(self) -> bool:
        """True when any adaptive-locality component is switched on."""
        return (self.locality_migration or self.locality_prefetch
                or self.locality_aggregation)

    @property
    def policy_enabled(self) -> bool:
        """True when any adaptive coherence policy is switched on."""
        return (self.policy_update or self.policy_migratory
                or self.policy_broadcast)

    def brand_of(self, node_id: int) -> str:
        """JVM brand name for one node (single- or per-node list)."""
        if len(self.brands) == 1:
            return self.brands[0]
        if len(self.brands) != self.num_nodes:
            raise ValueError(
                f"brands must have 1 or num_nodes entries, got "
                f"{len(self.brands)} for {self.num_nodes} nodes"
            )
        return self.brands[node_id]

    def validate(self) -> None:
        """Reject inconsistent configurations early."""
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")
        if self.quantum_ns < 1:
            raise ValueError(
                "quantum_ns must be >= 1 (a zero quantum never advances)")
        if self.net_jitter_ns < 0:
            raise ValueError("net_jitter_ns must be >= 0")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} "
                f"(expected one of {sorted(SCHEDULERS)})")
        if self.cost_profile not in (PROFILE_APP, PROFILE_MICRO):
            raise ValueError(
                f"unknown cost_profile {self.cost_profile!r} "
                f"(expected {PROFILE_APP!r} or {PROFILE_MICRO!r})")
        for i in range(self.num_nodes):
            self.brand_of(i)  # raises on mismatch
        if self.transport_backend not in ("sim", "proc"):
            raise ValueError(
                f"unknown transport_backend {self.transport_backend!r} "
                "(expected 'sim' or 'proc')"
            )
        if self.proc_socket_kind not in ("unix", "tcp"):
            raise ValueError(
                f"unknown proc_socket_kind {self.proc_socket_kind!r} "
                "(expected 'unix' or 'tcp')"
            )
        if self.ft_enabled:
            if self.num_nodes < 2:
                raise ValueError(
                    "ft_enabled requires num_nodes >= 2 (a buddy node)"
                )
            if not self.reliable_transport:
                raise ValueError(
                    "ft_enabled requires reliable_transport=True (the "
                    "failure detector rides on the ARQ layer)"
                )
        region_elems = self.dsm.array_region_elems
        if region_elems is not None and region_elems < 1:
            raise ValueError(
                "dsm.array_region_elems (--region-elems) must be >= 1")
        engine_class(self.dsm.timestamp_mode)  # an unknown mode raises
        if self.dsm.timestamp_mode != SCALAR:
            # Everything beyond the base protocol is built on MTS-HLRC.
            for knob, on in (("ft_enabled", self.ft_enabled),
                             ("locality_*", self.locality_enabled),
                             ("policy_*", self.policy_enabled),
                             ("race_detect", self.race_detect)):
                if on:
                    raise ValueError(
                        f"{knob} supports only the scalar (MTS-HLRC) "
                        "timestamp mode")
        if self.race_detect and self.race_mode not in (
                "hb", "lockset", "both"):
            raise ValueError(
                f"unknown race_mode {self.race_mode!r} "
                "(expected 'hb', 'lockset' or 'both')"
            )
        if self.jit_enable and self.jit_threshold < 1:
            raise ValueError("jit_threshold must be >= 1")
        if self.obs_enabled and self.obs_live_period_s <= 0:
            raise ValueError("obs_live_period_s must be positive")


# ---------------------------------------------------------------------------
# Run options: declared once, used by every verb and every harness
# ---------------------------------------------------------------------------

def _component_parser(prefix: str, what: str,
                      names: Tuple[str, ...]) -> Callable[[str], Dict[str, bool]]:
    """Parser for a comma-separated subset of ``names`` (or ``all``;
    ``""`` = subsystem off) into the ``<prefix>_<name>`` config knobs."""
    def parse(spec: str) -> Dict[str, bool]:
        chosen = {part.strip() for part in spec.split(",")} - {""}
        unknown = sorted(chosen - set(names) - {"all"})
        if unknown:
            raise ValueError(
                f"unknown {what} {unknown[0]!r} (choose from "
                f"{', '.join(names)} or 'all')")
        return {f"{prefix}_{name}": "all" in chosen or name in chosen
                for name in names}
    return parse


#: ``--locality`` / ``--policy`` spec parsers.
parse_locality = _component_parser(
    "locality", "locality component",
    ("migration", "prefetch", "aggregation"))
parse_policy = _component_parser(
    "policy", "coherence policy", ("update", "migratory", "broadcast"))


@dataclass(frozen=True)
class RunFlag:
    """One run option.  ``sets`` is the ``RuntimeConfig`` keyword the
    value is stored under (``dsm.<field>`` for a ``DsmConfig`` field), a
    function from the value to such keywords, or None for an option that
    is consumed before a runtime exists (the rewrite's check-elimination
    level).  A bool default makes a ``store_true`` flag; otherwise the
    argparse type is the default's type unless ``argparse`` names one."""

    flag: str
    default: Any
    help: str
    sets: Union[str, Callable[[Any], Dict[str, Any]], None]
    argparse: Mapping[str, Any] = field(default_factory=dict)

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def keywords(self, value: Any) -> Dict[str, Any]:
        if self.sets is None:
            return {}
        return self.sets(value) if callable(self.sets) else {self.sets: value}


RUN_FLAGS: Tuple[RunFlag, ...] = (
    RunFlag("--nodes", 3, "worker nodes (default 3; run/trace: 2)",
            "num_nodes"),
    RunFlag("--cpus", 2, "CPUs per node", "cpus_per_node"),
    RunFlag("--brand", "sun", "JVM brand cost model",
            lambda brand: {"brands": (brand,)},
            {"choices": ("sun", "ibm")}),
    RunFlag("--dilation", 1, "instruction-cost time dilation",
            "time_dilation"),
    RunFlag("--scheduler", "least-loaded", "spawn placement policy",
            "scheduler", {"choices": tuple(SCHEDULERS)}),
    RunFlag("--seed", 0,
            "run seed (drives network jitter, the random scheduler, serve "
            "arrivals and random kills); a sweep runs SEED..SEED+N-1",
            "seed"),
    RunFlag("--region-elems", None,
            "array-region coherency units (§4.3 extension)",
            "dsm.array_region_elems", {"type": int}),
    RunFlag("--vector-timestamps", False,
            "use the HLRC vector-timestamp baseline mode",
            lambda on: {"dsm.timestamp_mode": "vector" if on else "scalar"}),
    RunFlag("--locality", "",
            "adaptive-locality components to enable: comma-separated "
            "migration,prefetch,aggregation or 'all' (default: off)",
            parse_locality, {"metavar": "COMPONENTS"}),
    RunFlag("--policy", "",
            "adaptive coherence policies to enable: comma-separated "
            "update,migratory,broadcast or 'all' (default: off — plain "
            "invalidate)",
            parse_policy, {"metavar": "POLICIES"}),
    RunFlag("--backend", "sim",
            "transport backend: 'sim' (in-process simulated network, "
            "deterministic reference) or 'proc' (one OS process per node, "
            "every frame over real sockets; same schedule, genuine "
            "process kills)",
            "transport_backend", {"choices": ("sim", "proc")}),
    RunFlag("--socket", "unix",
            "socket family for --backend proc (default: unix-domain)",
            "proc_socket_kind", {"choices": ("unix", "tcp")}),
    RunFlag("--jit", False,
            "tier hot methods to compiled Python (bit-identical "
            "observables, faster wall clock)", "jit_enable"),
    RunFlag("--jit-threshold", 10,
            "invocations before a method is compiled (default 10)",
            "jit_threshold", {"metavar": "N"}),
    RunFlag("--check-elim", 0,
            "check-elimination level of the rewrite: 0=off, 1=straight-"
            "line (§6.2), 2=region dataflow + loop hoisting",
            None, {"choices": (0, 1, 2), "metavar": "LEVEL"}),
    RunFlag("--race", False,
            "run with the data-race detector on", "race_detect"),
    RunFlag("--obs", False,
            "run with the metrics, span and stall-profiling telemetry on",
            lambda on: {"obs_metrics": on, "obs_spans": on,
                        "obs_profile": on}),
    RunFlag("--wallclock", False,
            "record monotonic-clock metrics alongside sim time",
            "obs_wallclock"),
)

_BY_DEST: Dict[str, RunFlag] = {f.dest: f for f in RUN_FLAGS}


def add_run_flags(parser: argparse.ArgumentParser, *dests: str) -> None:
    """Add the run flags (all of them, or just the named ones) to
    ``parser``.  An unset flag leaves no attribute on the namespace, so
    callers can tell what the user said from what the table defaults."""
    for f in (RUN_FLAGS if not dests else [_BY_DEST[d] for d in dests]):
        kwargs: Dict[str, Any] = {"help": f.help,
                                  "default": argparse.SUPPRESS}
        if isinstance(f.default, bool):
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = type(f.default)
            kwargs.update(f.argparse)
        parser.add_argument(f.flag, **kwargs)


RunOptions = Union[argparse.Namespace, Mapping[str, Any], None]


def run_options(source: RunOptions) -> Dict[str, Any]:
    """The run options ``source`` carries, by flag dest.  A parsed
    namespace also holds its verb's own arguments, which are skipped; a
    mapping must name run options only."""
    if source is None:
        return {}
    if isinstance(source, argparse.Namespace):
        return {k: v for k, v in vars(source).items() if k in _BY_DEST}
    for name in source:
        if name not in _BY_DEST:
            raise TypeError(
                f"unknown run option {name!r} (choose from "
                f"{', '.join(_BY_DEST)})")
    return dict(source)


def option(source: RunOptions, dest: str) -> Any:
    """One run option's value, or its declared default when unset."""
    return run_options(source).get(dest, _BY_DEST[dest].default)


def config_from(source: RunOptions = None, **fields: Any) -> RuntimeConfig:
    """The ``RuntimeConfig`` that run options select.  ``fields`` are
    ``RuntimeConfig`` keywords the calling harness fixes itself (a sweep's
    per-run seed and jitter, a kill's ft + ARQ switches); they win over
    what the options set."""
    options = run_options(source)
    keywords: Dict[str, Any] = {}
    for f in RUN_FLAGS:
        keywords.update(f.keywords(options.get(f.dest, f.default)))
    dsm = {k[len("dsm."):]: keywords.pop(k)
           for k in list(keywords) if k.startswith("dsm.")}
    return RuntimeConfig(**{"dsm": DsmConfig(**dsm), **keywords, **fields})
