"""FtManager: wires the fault-tolerance subsystem into a runtime.

One manager per :class:`~repro.runtime.javasplit.JavaSplitRuntime` (when
``RuntimeConfig.ft_enabled``).  It owns the per-node agents (replication
hooks + replica stores), the heartbeat/detector timers, the global
thread registry used to re-ship a dead node's threads, and the recovery
orchestrator.

The thread registry is harness-level bookkeeping (who shipped where,
who finished), mirroring what the paper's coordinator would track; the
actual repair traffic — replication, rediffs, notices, re-spawns — all
flows through the simulated network and is accounted like any other
protocol message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Set

from ..dsm.directory import MASTER_NODE
from ..dsm.protocol import M_SPAWN
from ..sim.node import StreamState
from .heartbeat import FailureDetector, HeartbeatAgent
from .recovery import RecoveryOrchestrator
from .replication import (
    M_FT_PING,
    M_FT_SUSPECT,
    FtNodeAgent,
    buddy_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.javasplit import JavaSplitRuntime
    from ..runtime.worker import WorkerNode


@dataclass
class ThreadRecord:
    """One spawned thread: enough to re-ship it after a node failure."""

    gid: int
    class_name: str
    priority: int
    target: int                 # where the spawn was sent
    node: Optional[int] = None  # where it actually started (None: in flight)
    thread: Any = None          # its JThread there

    @property
    def done(self) -> bool:
        return (self.thread is not None
                and self.thread.state is StreamState.FINISHED)


class FtManager:
    """Fault-tolerance subsystem root, attached to one runtime."""

    def __init__(self, runtime: "JavaSplitRuntime") -> None:
        self.runtime = runtime
        self.coordinator = MASTER_NODE
        self.agents: Dict[int, FtNodeAgent] = {}
        self.hb_agents: Dict[int, HeartbeatAgent] = {}
        self.detector: Optional[FailureDetector] = None
        self.orchestrator = RecoveryOrchestrator(self)
        self.dead_nodes: Set[int] = set()
        self.recovering: Set[int] = set()
        self.threads: Dict[int, ThreadRecord] = {}
        self.failures_detected = 0
        self.stopped = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        workers = self.runtime.workers
        coord = workers[self.coordinator]
        self.detector = FailureDetector(self, coord)
        coord.transport.on(M_FT_PING, self.detector.on_ping)
        coord.transport.on(M_FT_SUSPECT, self.detector.on_suspect)
        for w in workers:
            self._attach_worker(w, len(workers))
        # Sweep masters that predate the hooks (static holders).
        for node_id in sorted(self.agents):
            self.agents[node_id].publish_all()
        self.detector.start()
        for node_id in sorted(self.hb_agents):
            self.hb_agents[node_id].start()
        self.runtime.hooks.worker_added.append(self.on_worker_added)

    def _attach_worker(self, worker: "WorkerNode", num_nodes: int) -> None:
        agent = FtNodeAgent(
            self, worker,
            buddy_of(worker.node_id, num_nodes, self.dead_nodes),
        )
        agent.attach()
        for dead in self.dead_nodes:
            worker.transport.mark_dead(dead)
        hb = HeartbeatAgent(self, worker, self.coordinator)
        self.agents[worker.node_id] = agent
        self.hb_agents[worker.node_id] = hb
        assert self.detector is not None
        self.detector.watch(worker.node_id)

    def on_worker_added(self, worker: "WorkerNode") -> None:
        """Dynamic join (§2): enlist the new worker in heartbeats and
        re-form the replication ring around it."""
        self._attach_worker(worker, len(self.runtime.workers))
        self.hb_agents[worker.node_id].start()
        n = len(self.runtime.workers)
        for node_id in sorted(self.agents):
            if self.runtime.workers[node_id].dead:
                continue
            self.agents[node_id].set_buddy(
                buddy_of(node_id, n, self.dead_nodes))
        self.agents[worker.node_id].publish_all()

    # ------------------------------------------------------------------
    # Liveness: timers stop once nothing is running or recoverable,
    # letting run_until_idle quiesce.
    # ------------------------------------------------------------------
    def app_active(self) -> bool:
        for w in self.runtime.workers:
            if w.dead:
                continue
            for t in w.jvm.threads:
                if t.state is not StreamState.FINISHED:
                    return True
        for rec in self.threads.values():
            if rec.done:
                continue
            if rec.node is None:
                return True  # spawn in flight
            if self.runtime.workers[rec.node].dead:
                return True  # needs re-shipping
        return False

    def stop(self) -> None:
        self.stopped = True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def on_failure(self, node: int) -> None:
        """A failure was confirmed (detector or test harness)."""
        if self.stopped or node in self.dead_nodes or node in self.recovering:
            return
        self.failures_detected += 1
        self.recovering.add(node)
        self.orchestrator.begin(node)

    # ------------------------------------------------------------------
    # Thread registry (fed by the agents' spawn / thread_begin hooks)
    # ------------------------------------------------------------------
    def record_ship(self, gid: int, class_name: str, priority: int,
                    target: int) -> None:
        self.threads[gid] = ThreadRecord(gid, class_name, priority, target)

    def record_start(self, gid: int, node: int, jthread: Any) -> None:
        rec = self.threads.get(gid)
        if rec is not None:
            rec.node = node
            rec.thread = jthread

    def respawn_dead_threads(self, dead: int) -> int:
        """Re-ship every unfinished thread that died with (or was in
        flight to) the dead node, through the normal scheduler.  The
        re-spawn restarts the thread from its last lock-release-
        consistent state; exactly-once execution is not promised (a
        taken-but-unprocessed job queue entry dies with its worker)."""
        runtime = self.runtime
        master_dsm = runtime.workers[self.coordinator].dsm
        respawned = 0
        for gid in sorted(self.threads):
            rec = self.threads[gid]
            if rec.done:
                continue
            if rec.node != dead and not (
                    rec.node is None and rec.target == dead):
                continue
            target = runtime._choose_spawn_node()
            rec.target = target
            rec.node = rec.thread = None
            payload = {
                "gid": gid,
                "class_name": rec.class_name,
                "priority": rec.priority,
            }
            if target == self.coordinator:
                master_dsm.start_spawned(payload)
            else:
                master_dsm.transport.send(target, M_SPAWN, payload)
            respawned += 1
        return respawned

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """FT summary for RunReport."""
        return {
            "failures_detected": self.failures_detected,
            "dead_nodes": sorted(self.dead_nodes),
            "recoveries": list(self.orchestrator.records),
            "units_replicated": sum(
                a.units_replicated for a in self.agents.values()),
            "repl_messages": sum(
                a.repl_messages for a in self.agents.values()),
        }
