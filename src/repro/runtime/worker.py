"""Worker-node assembly: simulated node + JVM + transport + DSM engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..dsm import engine_class
from ..dsm.protocol import DsmEngine
from ..jvm.jvm import JVM
from ..net.simnet import SimNetwork
from ..net.transport import Transport
from ..rewriter.bootstrap import register_rewritten_natives
from ..rewriter.rewriter import RewriteResult
from ..sim.cost_model import get_brand
from ..sim.engine import SimEngine
from ..sim.node import Node
from .classreg import ClassRegistry
from .config import RuntimeConfig


@dataclass
class WorkerNode:
    """One participating workstation."""

    node_id: int
    node: Node
    jvm: JVM
    transport: Transport
    dsm: DsmEngine
    # Declared failed by the fault-tolerance subsystem; the runtime
    # excludes dead workers from placement, failure checks and reports.
    dead: bool = False


def build_worker(
    engine: SimEngine,
    network: SimNetwork,
    registry: ClassRegistry,
    node_id: int,
    brand: str,
    rewritten: RewriteResult,
    config: RuntimeConfig,
    choose_spawn_node: Callable[[], int],
    console: List[str],
) -> WorkerNode:
    """Bring up one worker: any machine with a standard JVM can join."""
    cost_model = get_brand(brand, config.cost_profile).scaled(
        config.time_dilation)
    node = Node(engine, node_id, cost_model, num_cpus=config.cpus_per_node,
                quantum_ns=config.quantum_ns)
    jvm = JVM(node)
    # The distributed execution runs only javasplit classes.
    jvm.object_class = "javasplit.Object"
    jvm.string_class = "javasplit.String"
    registry.install(jvm)
    register_rewritten_natives(jvm)
    transport = Transport(network, node_id, cost_model,
                          reliable=config.reliable_transport)
    dsm = engine_class(config.dsm.timestamp_mode)(
        jvm,
        transport,
        specs=rewritten.specs,
        class_registry=rewritten.registry,
        config=config.dsm,
        choose_spawn_node=choose_spawn_node,
        static_gids=rewritten.static_gids,
        console=console,
    )
    jvm.hooks = dsm
    return WorkerNode(node_id, node, jvm, transport, dsm)
