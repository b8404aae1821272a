"""Runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..dsm.protocol import DsmConfig
from ..sim.cost_model import PROFILE_APP, PROFILE_MICRO
from ..sim.node import DEFAULT_QUANTUM_NS
from .scheduler import SCHEDULERS


class ConfigError(ValueError):
    """A runtime operation is invalid under the active configuration."""


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
    max_events: int = 200_000_000
    master_node: int = 0
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
    # Master-side deadline waiting for a physical frame copy before the
    # run is declared wedged (WireError).
    proc_wait_timeout_s: float = 30.0
    # Allow workers to join mid-run on the proc backend (a late OS
    # process is forked and handshaken on the still-open control
    # listener).  Off, ``schedule_join``/``add_worker`` raise a clear
    # ConfigError instead of silently assuming the sim backend.
    proc_late_spawn: bool = True
    # ----- fault tolerance (src/repro/ft) ------------------------------
    # Survive the loss of a single (non-master) worker: heartbeat failure
    # detection, buddy replication of home state, and node-failure
    # recovery.  Off by default — fault-free runs with ft_enabled=False
    # are byte-identical to a build without the subsystem.
    ft_enabled: bool = False
    # Heartbeat period (every worker pings the master node).
    ft_heartbeat_ns: int = 20_000_000  # 20 ms
    # Consecutive missed heartbeats before a worker is declared failed.
    # A transport-level ARQ give-up ("peer unreachable") lowers the bar
    # to max(1, ft_suspect_beats // 4) for the suspected peer.
    ft_suspect_beats: int = 3
    # ----- adaptive locality (src/repro/locality) ----------------------
    # Observe per-unit access patterns and adapt the protocol: re-home
    # units to their dominant writer, prefetch invalidated units in bulk
    # on acquire, and coalesce same-destination flush traffic at release.
    # All three default off — with every knob off, runs are byte-identical
    # to a build without the subsystem.
    locality_migration: bool = False
    locality_prefetch: bool = False
    locality_aggregation: bool = False
    # Remote diffs from a single dominant writer, within the window,
    # before the unit is re-homed to that writer.
    locality_migration_threshold: int = 3
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
    # Events of the defining kind within the window before a pattern is
    # recognized (diffs for producer-consumer/migratory, fetches for
    # read-mostly).  2 promotes early enough to pay off on check-scale
    # app instances; raise it on long-running workloads where a
    # mis-promotion is more expensive than a slow start.
    policy_threshold: int = 2
    # Consecutive identical classifications before a unit is promoted
    # to a policy (demotion back to invalidate is immediate).
    policy_hysteresis: int = 2
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
    # Cap on retained race reports (each race is reported once; the
    # overflow count is surfaced in the summary).
    race_max_reports: int = 50
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
    # Access-check elimination level consumed by compiled code:
    # 0 = none, 1 = the straight-line §6.2 pass (same as
    # ``rewrite_application(optimize_checks=True)``), 2 = adds the
    # region-based dataflow + null-safe loop hoisting pass.  Levels 1/2
    # legally change simulated time (fewer checked accesses), so the
    # byte-identical differential harness runs with level 0.
    jit_check_elim: int = 0
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
    # Time-series bucket width for the metrics registry.
    obs_metrics_bucket_ns: int = 1_000_000  # 1 ms
    # Span cap: once reached, further spans are counted as dropped.
    obs_max_spans: int = 200_000
    # Rows in the hot-site / hot-unit profile reports.
    obs_top_n: int = 10
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
        if not (0 <= self.master_node < self.num_nodes):
            raise ValueError("master_node out of range")
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
        if self.proc_wait_timeout_s <= 0:
            raise ValueError("proc_wait_timeout_s must be positive")
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
            if self.dsm.timestamp_mode != "scalar":
                raise ValueError(
                    "ft_enabled supports only the scalar (MTS-HLRC) "
                    "timestamp mode"
                )
            if self.ft_heartbeat_ns <= 0 or self.ft_suspect_beats < 1:
                raise ValueError(
                    "ft_heartbeat_ns must be positive and "
                    "ft_suspect_beats >= 1"
                )
        if self.locality_enabled:
            if self.dsm.timestamp_mode != "scalar":
                raise ValueError(
                    "locality_* knobs support only the scalar (MTS-HLRC) "
                    "timestamp mode"
                )
            if self.locality_migration_threshold < 1:
                raise ValueError(
                    "locality_migration_threshold must be >= 1")
        if self.policy_enabled:
            if self.dsm.timestamp_mode != "scalar":
                raise ValueError(
                    "policy_* knobs support only the scalar (MTS-HLRC) "
                    "timestamp mode"
                )
            if self.policy_threshold < 1:
                raise ValueError("policy_threshold must be >= 1")
            if self.policy_hysteresis < 1:
                raise ValueError("policy_hysteresis must be >= 1")
        if self.race_detect:
            if self.dsm.timestamp_mode != "scalar":
                raise ValueError(
                    "race_detect supports only the scalar (MTS-HLRC) "
                    "timestamp mode"
                )
            if self.race_mode not in ("hb", "lockset", "both"):
                raise ValueError(
                    f"unknown race_mode {self.race_mode!r} "
                    "(expected 'hb', 'lockset' or 'both')"
                )
            if self.race_max_reports < 1:
                raise ValueError("race_max_reports must be >= 1")
        if self.jit_enable:
            if self.jit_threshold < 1:
                raise ValueError("jit_threshold must be >= 1")
        if self.jit_check_elim not in (0, 1, 2):
            raise ValueError("jit_check_elim must be 0, 1 or 2")
        if self.obs_enabled:
            if self.obs_metrics_bucket_ns < 1:
                raise ValueError("obs_metrics_bucket_ns must be >= 1")
            if self.obs_max_spans < 1:
                raise ValueError("obs_max_spans must be >= 1")
            if self.obs_top_n < 1:
                raise ValueError("obs_top_n must be >= 1")
            if self.obs_live_period_s <= 0:
                raise ValueError("obs_live_period_s must be positive")
