"""The JavaSplit runtime: worker pool, load balancing, class
distribution, and the public execution API."""

from .classreg import ClassRegistry, ClassShipment
from .config import (RUN_FLAGS, RuntimeConfig, add_run_flags, config_from,
                     option, run_options)
from .javasplit import (
    DeadlockError,
    JavaSplitRuntime,
    RunReport,
    build_runtime,
    run_distributed,
    run_original,
)
from .scheduler import (
    LeastLoadedScheduler,
    PinnedScheduler,
    PlacementTracker,
    RandomScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from .worker import WorkerNode, build_worker

__all__ = [
    "ClassRegistry", "ClassShipment",
    "RUN_FLAGS", "RuntimeConfig", "add_run_flags", "config_from", "option",
    "run_options",
    "DeadlockError", "JavaSplitRuntime", "RunReport",
    "build_runtime", "run_distributed", "run_original",
    "LeastLoadedScheduler", "PinnedScheduler", "PlacementTracker",
    "RandomScheduler", "RoundRobinScheduler", "make_scheduler",
    "WorkerNode", "build_worker",
]
