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

:func:`build_runtime` is those three steps as one launch path (source,
class files or an existing rewrite in; runtime out);
:func:`run_distributed` runs it to completion, and :func:`run_original`
is the un-instrumented single-JVM baseline used for the paper's speedup
numbers.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..dsm.directory import MASTER_NODE, HomeDirectory
from ..dsm.protocol import DsmStats
from ..hooks import RuntimeHooks
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
from .config import RuntimeConfig
from .scheduler import PlacementTracker, make_scheduler
from .worker import WorkerNode, build_worker


#: Runaway guard: events one execution may fire before it is declared
#: non-quiescent.
MAX_EVENTS = 200_000_000

#: The optional subsystems, in attach order — which is the order their
#: hook subscribers fire in (see repro.hooks): runtime attribute (and
#: package, and RunReport field), the RuntimeConfig switch, the manager
#: class.  Policies come after locality because they reuse its substrate
#: (directory redirects, grant installs), creating a knobs-off
#: LocalityManager themselves when none is configured; telemetry comes
#: after the subsystems it observes (ft recovery spans need runtime.ft
#: at attach); the JIT comes after telemetry so compile events hit the
#: metrics.
SUBSYSTEMS = (
    ("ft", "ft_enabled", "FtManager"),
    ("locality", "locality_enabled", "LocalityManager"),
    ("policy", "policy_enabled", "PolicyManager"),
    ("race", "race_detect", "RaceManager"),
    ("obs", "obs_enabled", "ObsManager"),
    ("jit", "jit_enable", "JitManager"),
)


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

    @property
    def flight_dumps(self) -> List[str]:
        """Paths of flight-recorder postmortems written during the run
        (empty unless obs_flight_recorder caught a death/violation/error)."""
        return list((self.obs or {}).get("flight_dumps", ()))

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

    # One manager per SUBSYSTEMS row; None while its switch is off.
    ft = locality = policy = race = obs = jit = None

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
        for i in range(self.config.num_nodes):
            self._new_worker(self.config.brand_of(i))
        # Materialize the C_static holders on the master node; other
        # nodes fault them in on first access (§4.2).
        master = self.workers[MASTER_NODE]
        master.dsm.reserve_gids(rewritten.static_holder_count)
        for class_name, (gid, holder) in rewritten.static_gids.items():
            master.dsm.install_static_holder(class_name, gid, holder)
        self._main_thread: Optional[JThread] = None
        # Where every re-homed unit's master lives: written wherever a
        # master moves (a grant out, its install, a recovery), read by
        # recovery and the checkers, and a joiner's first view.
        self.homes = HomeDirectory()
        # How the subsystems, the serve manager, the checkers and the
        # tracer hear about one another (repro.hooks.RuntimeHooks): each
        # subscribes in its ``attach``, in attach order.
        self.hooks = RuntimeHooks()
        for name, switch, manager_class in SUBSYSTEMS:
            if getattr(self.config, switch):
                module = importlib.import_module(f"..{name}", __package__)
                manager = getattr(module, manager_class)(self)
                setattr(self, name, manager)
                manager.attach()

    def _new_worker(self, brand: str) -> WorkerNode:
        """Bring up the next worker (initial pool and dynamic join)."""
        worker = build_worker(
            self.engine, self.network, self.registry, len(self.workers),
            brand, self.rewritten, self.config, self._choose_spawn_node,
            self.console)
        worker.dsm.on_spawn_arrival = self._spawn_arrived
        self.workers.append(worker)
        return worker

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

    # ------------------------------------------------------------------
    # Dynamic join (§2): "During execution, new workers can join the
    # system and execute newly created threads."  Any machine with a
    # standard JVM can enlist — it receives the rewritten classes and
    # starts taking spawn placements; existing state is untouched
    # (it faults in shared objects on demand like any other node).
    # ------------------------------------------------------------------
    def add_worker(self, brand: Optional[str] = None) -> WorkerNode:
        worker = self._new_worker(brand or self.config.brand_of(0))
        for gid, (home, epoch) in self.homes.items():
            worker.dsm.homes.set(gid, home, epoch)
        for fn in self.hooks.worker_added:
            fn(worker)
        return worker

    def schedule_join(self, at_ns: int, brand: Optional[str] = None) -> None:
        """Have a new worker join at a future simulated time.  On the
        proc backend the join forks a real worker process mid-run
        (``ProcNetwork.attach``)."""
        self.engine.schedule_at(at_ns, lambda: self.add_worker(brand))

    # ------------------------------------------------------------------
    def start_main(self, args: Optional[List[Any]] = None) -> JThread:
        """Place the static main method on the master node."""
        main_class = self.rewritten.main_class
        if main_class is None:
            raise ValueError("application has no static main method")
        master = self.workers[MASTER_NODE]
        self._main_thread = master.jvm.start_main(main_class, args)
        return self._main_thread

    def run(
        self,
        args: Optional[List[Any]] = None,
        max_events: int = MAX_EVENTS,
        allow_blocked: bool = False,
    ) -> RunReport:
        """Execute main to completion and return the report."""
        if self._main_thread is None:
            self.start_main(args)
        wall_start = time.perf_counter()
        try:
            events = self.engine.run_until_idle(max_events=max_events)
        finally:
            wall_seconds = time.perf_counter() - wall_start
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
        for fn in self.hooks.finished:
            fn()
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
            **{name: (None if getattr(self, name) is None
                      else getattr(self, name).report())
               for name, _switch, _class in SUBSYSTEMS},
            backend=self.config.transport_backend,
            wall_seconds=wall_seconds,
            proc=proc_summary,
        )


# ---------------------------------------------------------------------------
# One-shot helpers
# ---------------------------------------------------------------------------

def build_runtime(
    program: Union[str, Sequence[ClassFile], RewriteResult],
    config: Optional[RuntimeConfig] = None,
    check_elim: int = 0,
) -> JavaSplitRuntime:
    """The one launch path: compile MiniJava source (if that is what
    ``program`` is), rewrite the class files at check-elimination level
    ``check_elim`` (unless ``program`` is already a rewrite, e.g. the
    ``.rewritten`` of an earlier runtime in a seed sweep), validate the
    config and bring up the worker pool."""
    if isinstance(program, str):
        program = compile_source(program)
    if not isinstance(program, RewriteResult):
        program = rewrite_application(list(program), check_elim=check_elim)
    return JavaSplitRuntime(program, config)


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
    if config is None:
        config = RuntimeConfig(**config_kwargs)
    elif config_kwargs:
        raise ValueError("pass either config or kwargs, not both")
    program = source if source is not None else classfiles
    return build_runtime(program, config).run(args=args)


def run_original(
    source: Optional[str] = None,
    classfiles: Optional[Sequence[ClassFile]] = None,
    brand: str = "sun",
    cpus: int = 2,
    main_class: Optional[str] = None,
    args: Optional[List[Any]] = None,
    max_events: int = MAX_EVENTS,
    time_dilation: int = 1,
    cost_profile: str = "app",
    prepare: Optional[Callable[[JVM], None]] = None,
) -> RunReport:
    """Run the *original* (un-instrumented) application on one simulated
    JVM — the baseline all the paper's speedups divide by.  ``prepare``
    sees the loaded JVM before main starts (the serve reference run
    installs its load feed there)."""
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
    if prepare is not None:
        prepare(jvm)
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
