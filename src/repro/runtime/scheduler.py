"""Plug-in load balancing (§2).

"Each newly created application thread is placed for execution on one of
the worker nodes, according to a plug-in load balancing function.
Currently, we use the simplest load-balancing function, placing a new
thread on the least loaded worker."

Schedulers read node loads directly — a simulation shortcut for the load
reports a real deployment would gossip; the placement decisions are
identical as long as reports are fresh, and determinism is preserved.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Protocol, Sequence

from ..sim.node import Node
from ..sim.rng import PCG64


class Scheduler(Protocol):
    """Plug-in load-balancing interface: choose(nodes) -> node id."""
    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        ...


class LeastLoadedScheduler:
    """The paper's default: fewest live threads wins; ties go to the
    lowest node id (deterministic)."""

    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        best = min(nodes, key=lambda n: (n.load, n.node_id))
        return best.node_id


class RoundRobinScheduler:
    """Cycles through the nodes in order."""
    def __init__(self) -> None:
        self._next = 0

    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        node = nodes[self._next % len(nodes)]
        self._next += 1
        return node.node_id


class RandomScheduler:
    """Seeded random placement (useful as a load-balancing baseline)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = PCG64(seed)

    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        return nodes[self._rng.integers(0, len(nodes))].node_id


class PinnedScheduler:
    """Places every thread on a fixed node (testing / ablation)."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        return self.node_id


SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "least-loaded": LeastLoadedScheduler,
    "round-robin": RoundRobinScheduler,
    "random": RandomScheduler,
}


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}"
        ) from None
    return factory(**kwargs)


class PlacementTracker:
    """Wraps a scheduler to record where threads were placed."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.placements: List[int] = []

    def choose(self, nodes: Sequence[Node]) -> int:
        """Pick the node id to place a new thread on."""
        node_id = self.inner.choose(nodes)
        self.placements.append(node_id)
        return node_id

    def per_node_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for node_id in self.placements:
            counts[node_id] = counts.get(node_id, 0) + 1
        return counts
