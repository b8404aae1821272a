"""The JavaSplit runtime: public API for distributed execution.

Typical use::

    from repro.lang import compile_source
    from repro.rewriter import rewrite_application
    from repro.runtime import JavaSplitRuntime, RuntimeConfig

    classes = compile_source(SOURCE)              # "javac"
    rewritten = rewrite_application(classes)      # bytecode rewriter
    rt = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=4))
    report = rt.run()
    print(report.simulated_seconds, report.console)

or the one-shot helpers :func:`run_distributed` /
:func:`run_original` (the un-instrumented single-JVM baseline used for
the paper's speedup numbers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..dsm.protocol import DsmStats
from ..jvm.classfile import ClassFile
from ..jvm.intrinsics import bootstrap_classfiles
from ..jvm.jvm import JThread, JVM
from ..lang import compile_source
from ..net.simnet import SimNetwork
from ..net.stats import NetStats
from ..rewriter.rewriter import RewriteResult, rewrite_application
from ..sim.cost_model import get_brand
from ..sim.engine import NS_PER_SEC, SimEngine
from ..sim.node import Node, StreamState
from .classreg import ClassRegistry
from .config import ConfigError, RuntimeConfig
from .scheduler import PlacementTracker, make_scheduler
from .worker import WorkerNode, build_worker


class DeadlockError(RuntimeError):
    """The simulation quiesced with threads still blocked."""


@dataclass
class RunReport:
    """Everything a benchmark needs from one execution."""

    simulated_ns: int
    console: List[str]
    result: Any
    threads_run: int
    net: Optional[NetStats] = None
    dsm_stats: List[DsmStats] = field(default_factory=list)
    placements: Dict[int, int] = field(default_factory=dict)
    class_bytes: int = 0
    node_busy_ns: Dict[int, int] = field(default_factory=dict)
    events: int = 0
    # Fault-tolerance summary (None unless RuntimeConfig.ft_enabled):
    # failures detected, dead nodes, per-recovery repair counts.
    ft: Optional[Dict[str, Any]] = None
    # Adaptive-locality summary (None unless a locality_* knob is on):
    # migrated units, forwarded diffs, prefetch and aggregation counts.
    locality: Optional[Dict[str, Any]] = None
    # Adaptive-coherence summary (None unless a policy_* knob is on):
    # per-policy unit counts, promotions/demotions, push/broadcast/grant
    # traffic and install counts.
    policy: Optional[Dict[str, Any]] = None
    # Race-detector summary (None unless RuntimeConfig.race_detect):
    # mode, reports (with both access sites each), suppressed count,
    # event/promotion statistics.
    race: Optional[Dict[str, Any]] = None
    # Telemetry summary (None unless an obs_* knob is on): metrics
    # export, span counts, stall-attribution profile.
    obs: Optional[Dict[str, Any]] = None
    # Tiered-JIT summary (None unless RuntimeConfig.jit_enable): per-
    # method compile tier, exit/deopt reason histograms, blacklist.
    jit: Optional[Dict[str, Any]] = None
    # Which transport backend carried the run, its wall-clock duration,
    # and (proc backend only) the wire-plane summary: frame/byte counts
    # and per-worker relay statistics.
    backend: str = "sim"
    wall_seconds: float = 0.0
    proc: Optional[Dict[str, Any]] = None
    # Paths of flight-recorder postmortems written during the run
    # (empty unless obs_flight_recorder caught a death/violation/error).
    flight_dumps: List[str] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Execution time in simulated seconds."""
        return self.simulated_ns / NS_PER_SEC

    def total_dsm(self) -> DsmStats:
        """Sum of all nodes' DSM statistics."""
        agg = DsmStats()
        for s in self.dsm_stats:
            for name in vars(agg):
                setattr(agg, name, getattr(agg, name) + getattr(s, name))
        return agg


class JavaSplitRuntime:
    """A pool of simulated worker nodes executing one rewritten app."""

    def __init__(
        self,
        rewritten: RewriteResult,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.rewritten = rewritten
        self.config = config or RuntimeConfig()
        self.config.validate()
        self.engine = SimEngine()
        if self.config.transport_backend == "proc":
            from ..net.procnet import ProcNetwork
            self.network: SimNetwork = ProcNetwork(
                self.engine,
                jitter_ns=self.config.net_jitter_ns,
                seed=self.config.seed,
                socket_kind=self.config.proc_socket_kind,
                wait_timeout_s=self.config.proc_wait_timeout_s,
            )
            self.network.on_proc_death = self._proc_node_died
        else:
            self.network = SimNetwork(
                self.engine,
                jitter_ns=self.config.net_jitter_ns,
                seed=self.config.seed,
            )
        self.console: List[str] = []
        self.registry = ClassRegistry(rewritten.classfiles)
        self.scheduler = PlacementTracker(
            make_scheduler(self.config.scheduler)
        )
        self.workers: List[WorkerNode] = []
        # In-flight placements: a SPAWN decision raises a node's
        # effective load immediately, even though the shipped thread only
        # registers there after the message latency.  Without this, a
        # burst of spawns all lands on the same momentarily-idle node.
        self._pending_spawns: Dict[int, int] = {}
        choose = self._choose_spawn_node
        for i in range(self.config.num_nodes):
            self.workers.append(build_worker(
                engine=self.engine,
                network=self.network,
                registry=self.registry,
                node_id=i,
                brand=self.config.brand_of(i),
                cpus=self.config.cpus_per_node,
                quantum_ns=self.config.quantum_ns,
                specs=rewritten.specs,
                class_registry=rewritten.registry,
                dsm_config=self.config.dsm,
                choose_spawn_node=choose,
                static_gids=rewritten.static_gids,
                console=self.console,
                master_node=self.config.master_node,
                time_dilation=self.config.time_dilation,
                cost_profile=self.config.cost_profile,
                reliable_transport=self.config.reliable_transport,
            ))
        # Materialize the C_static holders on the master node; other
        # nodes fault them in on first access (§4.2).
        for w in self.workers:
            w.dsm.on_spawn_arrival = self._spawn_arrived
        master = self.workers[self.config.master_node]
        master.dsm.reserve_gids(rewritten.static_holder_count)
        for class_name, (gid, holder) in rewritten.static_gids.items():
            master.dsm.install_static_holder(class_name, gid, holder)
        self._main_thread: Optional[JThread] = None
        # Serving-workload manager (src/repro/serve); attached externally
        # like the oracle/fault injector, hooked here so late joiners get
        # the load feed too.
        self.serve = None
        # External attachments (oracle, invariant monitor, ...) register
        # here to instrument workers that join after they attached.
        self.worker_added_hooks: List[Any] = []
        # Subsystems subscribe to the workers' hook points as they
        # attach, so this order is the order their subscribers fire in.
        self.ft = None
        if self.config.ft_enabled:
            from ..ft import FtManager
            self.ft = FtManager(self)
            self.ft.attach()
        self.locality = None
        if self.config.locality_enabled:
            from ..locality import LocalityManager
            self.locality = LocalityManager(self)
            self.locality.attach()
        # Policies attach after locality: they reuse its substrate
        # (directory redirects, grant installs), creating a knobs-off
        # LocalityManager themselves when none is configured.
        self.policy = None
        if self.config.policy_enabled:
            from ..policy import PolicyManager
            self.policy = PolicyManager(self)
            self.policy.attach()
        self.race = None
        if self.config.race_detect:
            from ..race import RaceManager
            self.race = RaceManager(self)
            self.race.attach()
        # Telemetry last: it observes the other subsystems (ft recovery
        # spans need runtime.ft to exist before attach).
        self.obs = None
        if self.config.obs_enabled:
            from ..obs import ObsManager
            self.obs = ObsManager(self)
            self.obs.attach()
        # Tiered JIT attaches after obs so compile events hit metrics.
        self.jit = None
        if self.config.jit_enable:
            from ..jit import JitManager
            self.jit = JitManager(self)
            self.jit.attach()

    # ------------------------------------------------------------------
    def _choose_spawn_node(self) -> int:
        class _LoadView:
            __slots__ = ("node_id", "load")

            def __init__(self, node_id: int, load: int) -> None:
                self.node_id = node_id
                self.load = load

        views = [
            _LoadView(w.node_id,
                      w.node.load + self._pending_spawns.get(w.node_id, 0))
            for w in self.workers
            if not w.dead
        ]
        node_id = self.scheduler.choose(views)
        self._pending_spawns[node_id] = self._pending_spawns.get(node_id, 0) + 1
        return node_id

    def _spawn_arrived(self, node_id: int) -> None:
        pending = self._pending_spawns.get(node_id, 0)
        if pending > 0:
            self._pending_spawns[node_id] = pending - 1

    def _proc_node_died(self, node_id: int) -> None:
        """A worker OS process died externally (proc backend): fail-stop
        the node, exactly like the fault injector's ``detach`` — the
        heartbeat detector and recovery then take over."""
        if not self.network.is_attached(node_id):
            return
        self.network.detach(node_id)
        self.workers[node_id].node.halt()

    def worker(self, node_id: int) -> WorkerNode:
        """The WorkerNode with the given id."""
        return self.workers[node_id]

    # ------------------------------------------------------------------
    # Dynamic join (§2): "During execution, new workers can join the
    # system and execute newly created threads."  Any machine with a
    # standard JVM can enlist — it receives the rewritten classes and
    # starts taking spawn placements; existing state is untouched
    # (it faults in shared objects on demand like any other node).
    # ------------------------------------------------------------------
    def _check_late_join(self) -> None:
        """Reject joins the active transport cannot honor, with a clear
        error instead of a silent sim-backend assumption."""
        if (self.config.transport_backend == "proc"
                and not self.config.proc_late_spawn):
            raise ConfigError(
                "dynamic join on the proc backend needs a late-forked "
                "worker process; set proc_late_spawn=True (default) or "
                "use transport_backend='sim'")

    def add_worker(self, brand: Optional[str] = None) -> WorkerNode:
        self._check_late_join()
        node_id = len(self.workers)
        worker = build_worker(
            engine=self.engine,
            network=self.network,
            registry=self.registry,
            node_id=node_id,
            brand=brand or self.config.brand_of(0),
            cpus=self.config.cpus_per_node,
            quantum_ns=self.config.quantum_ns,
            specs=self.rewritten.specs,
            class_registry=self.rewritten.registry,
            dsm_config=self.config.dsm,
            choose_spawn_node=self._choose_spawn_node,
            static_gids=self.rewritten.static_gids,
            console=self.console,
            master_node=self.config.master_node,
            time_dilation=self.config.time_dilation,
            cost_profile=self.config.cost_profile,
            reliable_transport=self.config.reliable_transport,
        )
        worker.dsm.on_spawn_arrival = self._spawn_arrived
        self.workers.append(worker)
        for sub in (self.ft, self.locality, self.policy, self.race,
                    self.obs, self.jit, self.serve):
            if sub is not None:
                sub.on_worker_added(worker)
        for hook in self.worker_added_hooks:
            hook(worker)
        return worker

    def schedule_join(self, at_ns: int, brand: Optional[str] = None) -> None:
        """Have a new worker join at a future simulated time.

        On the proc backend the join forks a real worker process mid-run
        (``ProcNetwork.attach``); with ``proc_late_spawn=False`` this
        raises :class:`ConfigError` up front instead of failing inside
        the event loop."""
        self._check_late_join()
        self.engine.schedule_at(at_ns, lambda: self.add_worker(brand))

    @property
    def main_thread(self) -> Optional[JThread]:
        """The application's main JThread, once started."""
        return self._main_thread

    # ------------------------------------------------------------------
    def start_main(self, args: Optional[List[Any]] = None) -> JThread:
        """Place the static main method on the master node."""
        main_class = self.rewritten.main_class
        if main_class is None:
            raise ValueError("application has no static main method")
        master = self.workers[self.config.master_node]
        self._main_thread = master.jvm.start_main(main_class, args)
        return self._main_thread

    def run(
        self,
        args: Optional[List[Any]] = None,
        max_events: Optional[int] = None,
        allow_blocked: bool = False,
    ) -> RunReport:
        """Execute main to completion and return the report."""
        if self._main_thread is None:
            self.start_main(args)
        wall_start = time.perf_counter()
        try:
            events = self.engine.run_until_idle(
                max_events=max_events or self.config.max_events
            )
        finally:
            wall_seconds = time.perf_counter() - wall_start
            # Disarm the module-level wire-codec probe before teardown
            # so it cannot observe into a dead registry (or leak into
            # the next run in this process).
            if self.obs is not None:
                self.obs.release_wire_timer()
            # Tear down the physical plane (proc backend) even on
            # failure, so no worker processes outlive the run.
            proc_summary = self.network.stop()
        for w in self.workers:
            if not w.dead:
                w.jvm.check_no_failures()
        blocked = [
            (w.node_id, t.name, t.block_reason)
            for w in self.workers
            if not w.dead
            for t in w.jvm.threads
            if t.state is StreamState.BLOCKED
        ]
        if blocked and not allow_blocked:
            raise DeadlockError(
                f"simulation quiesced with blocked threads: {blocked}"
            )
        if self.race is not None:
            # Analyze events still buffered on the accessor side (a
            # thread's trailing accesses never reach a release point).
            self.race.finalize()
        if self.jit is not None:
            self.jit.finalize_metrics()
        if self.obs is not None:
            self.obs.finalize()
        assert self._main_thread is not None
        return RunReport(
            simulated_ns=self.engine.now,
            console=list(self.console),
            result=self._main_thread.result,
            threads_run=sum(len(w.jvm.threads) for w in self.workers),
            net=self.network.stats,
            dsm_stats=[w.dsm.stats for w in self.workers],
            placements=self.scheduler.per_node_counts(),
            class_bytes=self.registry.total_bytes,
            node_busy_ns={w.node_id: w.node.busy_ns for w in self.workers},
            events=events,
            ft=None if self.ft is None else self.ft.report(),
            locality=(None if self.locality is None
                      else self.locality.report()),
            policy=None if self.policy is None else self.policy.report(),
            race=None if self.race is None else self.race.report(),
            obs=None if self.obs is None else self.obs.report(),
            jit=None if self.jit is None else self.jit.report(),
            backend=self.config.transport_backend,
            wall_seconds=wall_seconds,
            proc=proc_summary,
            flight_dumps=([] if self.obs is None
                          else list(self.obs.flight_dumps)),
        )


# ---------------------------------------------------------------------------
# One-shot helpers
# ---------------------------------------------------------------------------

def run_distributed(
    source: Optional[str] = None,
    classfiles: Optional[Sequence[ClassFile]] = None,
    config: Optional[RuntimeConfig] = None,
    args: Optional[List[Any]] = None,
    **config_kwargs,
) -> RunReport:
    """Compile (if needed), rewrite, and run on a simulated cluster."""
    if (source is None) == (classfiles is None):
        raise ValueError("pass exactly one of source / classfiles")
    if source is not None:
        classfiles = compile_source(source)
    if config is None:
        config = RuntimeConfig(**config_kwargs)
    elif config_kwargs:
        raise ValueError("pass either config or kwargs, not both")
    rewritten = rewrite_application(
        list(classfiles), master_node=config.master_node
    )
    return JavaSplitRuntime(rewritten, config).run(args=args)


def run_original(
    source: Optional[str] = None,
    classfiles: Optional[Sequence[ClassFile]] = None,
    brand: str = "sun",
    cpus: int = 2,
    main_class: Optional[str] = None,
    args: Optional[List[Any]] = None,
    max_events: int = 200_000_000,
    time_dilation: int = 1,
    cost_profile: str = "app",
) -> RunReport:
    """Run the *original* (un-instrumented) application on one simulated
    JVM — the baseline all the paper's speedups divide by."""
    if (source is None) == (classfiles is None):
        raise ValueError("pass exactly one of source / classfiles")
    if source is not None:
        classfiles = compile_source(source)
    classfiles = list(classfiles)
    engine = SimEngine()
    node = Node(
        engine, 0,
        get_brand(brand, cost_profile).scaled(time_dilation),
        num_cpus=cpus,
    )
    jvm = JVM(node)
    jvm.load_classes(bootstrap_classfiles())
    jvm.load_classes(classfiles)
    if main_class is None:
        for cf in classfiles:
            m = cf.methods.get("main")
            if m is not None and m.is_static:
                main_class = cf.name
                break
        if main_class is None:
            raise ValueError("no static main method found")
    thread = jvm.start_main(main_class, args)
    events = engine.run_until_idle(max_events=max_events)
    jvm.check_no_failures()
    blocked = [
        t for t in jvm.threads if t.state is StreamState.BLOCKED
    ]
    if blocked:
        raise DeadlockError(
            f"blocked threads remain: {[t.name for t in blocked]}"
        )
    return RunReport(
        simulated_ns=engine.now,
        console=list(jvm.output),
        result=thread.result,
        threads_run=len(jvm.threads),
        node_busy_ns={0: node.busy_ns},
        events=events,
    )
