"""Deterministic fault injection under the simulated network.

Layers seeded faults between :class:`~repro.net.simnet.SimNetwork` and
its endpoints.  The four per-frame kinds wrap ``network.send``; the
wrapper exists only when the plan asks for one of them
(:attr:`FaultPlan.per_frame`), so a detach-only plan — every ``--kill``
run — leaves the send path as it is and costs nothing per frame:

* **drop** — the frame silently disappears;
* **duplicate** — the frame is delivered twice (second copy after a
  random extra delay);
* **delay** — the frame is held back before entering the network;
* **reorder** — a short random extra delay, sized so adjacent frames on
  a link overtake each other (the jitter mode of ``SimNetwork`` applied
  per-frame, independent of the run's base configuration);
* **detach** — a node is unplugged mid-protocol at a chosen simulated
  time (its in-flight messages are dropped by the network).

All randomness comes from one :class:`~repro.sim.rng.PCG64` seeded by
:class:`FaultPlan.seed`, so a failing schedule replays exactly.  The
generator is the injector's own and only the filter draws from it, so a
plan with every rate at 0 draws nothing: no ``r < rate`` could be true.

Loopback frames (``src == dst``) are never faulted — a workstation does
not lose messages to itself — and drop/duplicate faults require the
endpoints to run the reliable transport (``reliable_transport=True`` in
:class:`~repro.runtime.config.RuntimeConfig`), whose ARQ layer masks
them; without it a dropped protocol message simply deadlocks the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple, TYPE_CHECKING

from ..net.message import Message
from ..net.simnet import SimNetwork
from ..sim.engine import NS_PER_MS
from ..sim.rng import PCG64

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.javasplit import JavaSplitRuntime

#: Fault kinds accepted by :class:`FaultPlan.from_spec`.
FAULT_KINDS = ("drop", "dup", "delay", "reorder", "detach")

_TIME_SUFFIXES = (("ns", 1), ("us", 1_000), ("ms", 1_000_000),
                  ("s", 1_000_000_000))


def parse_time_ns(text: str) -> int:
    """Parse a simulated-time literal like ``5ms``, ``250us``, ``1.5s``,
    or a bare nanosecond count."""
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if text.endswith(suffix) and text != suffix:
            return int(float(text[: -len(suffix)]) * scale)
    return int(text)


def parse_node_at(spec: str, nodes: Optional[int] = None,
                  master: int = 0) -> Tuple[int, int]:
    """``NODE@TIME`` (e.g. ``2@5ms``) as (node, simulated ns): the one
    parser behind ``--kill 2@5ms`` and ``--faults detach:2@5ms``.  Given
    ``nodes``, the node must be a non-master one of that many."""
    node_text, sep, time_text = spec.partition("@")
    if not sep or not node_text or not time_text:
        raise ValueError(
            f"bad kill spec {spec!r} (NODE@TIME, e.g. 2@5ms or "
            "detach:2@5ms; --kill also takes 'random')")
    node = int(node_text)
    if nodes is not None and not (0 <= node < nodes):
        raise ValueError(f"kill node {node} out of range for {nodes} nodes")
    if nodes is not None and node == master:
        raise ValueError(
            f"kill node {node} is the master; that is not survivable")
    return node, parse_time_ns(time_text)


@dataclass
class FaultPlan:
    """What to inject, how often, and with which seed."""

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ns: int = 8 * NS_PER_MS        # max held-back time
    reorder_rate: float = 0.0
    reorder_window_ns: int = 2 * NS_PER_MS
    detach_node: Optional[int] = None
    detach_at_ns: Optional[int] = None

    @classmethod
    def from_spec(cls, faults: str, seed: int = 0, rate: float = 0.05,
                  nodes: Optional[int] = None) -> "FaultPlan":
        """Build a plan from a comma-separated kind list, e.g.
        ``"drop,reorder,dup"`` (the CLI's ``--faults`` syntax).  A node
        kill is spelled ``detach:NODE@TIME``, e.g. ``detach:2@5ms``; given
        ``nodes``, it is checked as ``--kill`` is (:func:`parse_node_at`)."""
        plan = cls(seed=seed)
        for part in filter(None, (k.strip() for k in faults.split(","))):
            kind, _, arg = part.partition(":")
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} (choose from "
                    f"{', '.join(FAULT_KINDS)})")
            if kind != "detach" and arg:
                raise ValueError(f"fault kind {kind!r} takes no argument")
            if kind == "drop":
                plan.drop_rate = rate
            elif kind == "dup":
                plan.dup_rate = rate
            elif kind == "delay":
                plan.delay_rate = rate
            elif kind == "reorder":
                plan.reorder_rate = max(rate, 0.2)
            elif kind == "detach":
                plan.detach_node, plan.detach_at_ns = \
                    parse_node_at(arg, nodes)
        return plan

    @property
    def per_frame(self) -> bool:
        """True when the plan may touch a frame in flight (drop, dup,
        delay or reorder), so the injector must see every send."""
        return (self.drop_rate > 0 or self.dup_rate > 0
                or self.delay_rate > 0 or self.reorder_rate > 0)

    @property
    def lossy(self) -> bool:
        """True when the plan can lose or duplicate frames (needs ARQ)."""
        return (self.drop_rate > 0 or self.dup_rate > 0
                or self.detach_node is not None)


@dataclass
class FaultStats:
    """What the injector actually did.

    ``seen`` counts the frames the per-frame filter saw: 0 for a
    detach-only plan, which installs no filter.  ``held_lost`` counts
    frames the injector held back (delay, reorder, dup) whose source or
    destination was detached before they were due: the network never
    accepted them, so they are no :attr:`NetStats.dropped
    <repro.net.stats.NetStats.dropped>`, which counts frames the wire
    carried."""

    seen: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    held_lost: int = 0
    detached: List[int] = field(default_factory=list)


class FaultInjector:
    """Seeded faults on one :class:`SimNetwork`: a scheduled detach, and
    a wrap of its send path when the plan is per-frame."""

    def __init__(self, network: SimNetwork, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.stats = FaultStats()
        self._runtime: Optional["JavaSplitRuntime"] = None
        self._rng = PCG64(plan.seed)
        self._orig_send = network.send
        if plan.per_frame:
            network.send = self._send  # type: ignore[method-assign]
        if plan.detach_node is not None:
            at = plan.detach_at_ns if plan.detach_at_ns is not None else 0
            network.engine.schedule_at(
                max(at, network.engine.now),
                lambda: self._detach(plan.detach_node))

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, runtime: "JavaSplitRuntime",
               plan: FaultPlan) -> "FaultInjector":
        """Attach to a runtime's network; validates ARQ is on for lossy
        plans (a dropped frame without retransmission deadlocks)."""
        if plan.lossy and not runtime.config.reliable_transport:
            raise ValueError(
                "lossy fault plans (drop/dup/detach) require "
                "RuntimeConfig(reliable_transport=True)")
        injector = cls(runtime.network, plan)
        injector._runtime = runtime
        return injector

    def detach_now(self, node_id: int) -> None:
        """Unplug a node immediately (scriptable from tests)."""
        self._detach(node_id)

    def _detach(self, node_id: int) -> None:
        if self.network.is_attached(node_id):
            self.network.detach(node_id)
            self.stats.detached.append(node_id)
            # A detach models a crash, not a cable pull: when attached to
            # a runtime, halt the node's CPUs too (fail-stop), so the
            # "dead" node cannot keep computing — and locally completing
            # threads — during the failure-detection window.
            if self._runtime is not None:
                self._runtime.workers[node_id].node.halt()

    # ------------------------------------------------------------------
    def _send(self, msg: Message) -> None:
        if msg.src == msg.dst:
            self._orig_send(msg)
            return
        stats, p, rng = self.stats, self.plan, self._rng
        random = rng.random
        stats.seen += 1
        if random() < p.drop_rate:
            stats.dropped += 1
            return
        extra = 0
        if random() < p.delay_rate:
            stats.delayed += 1
            extra += rng.integers(1, max(2, p.delay_ns))
        if random() < p.reorder_rate:
            stats.reordered += 1
            extra += rng.integers(1, max(2, p.reorder_window_ns))
        self._dispatch(msg, extra)
        if random() < p.dup_rate:
            stats.duplicated += 1
            dup_extra = rng.integers(
                1, max(2, p.reorder_window_ns or p.delay_ns))
            self._dispatch(msg, extra + dup_extra)

    def _dispatch(self, msg: Message, extra_ns: int) -> None:
        if extra_ns <= 0:
            self._orig_send(msg)
            return
        def later() -> None:
            try:
                self._orig_send(msg)
            except KeyError:
                # Destination (or source) detached while held back: the
                # network never accepted the frame.
                self.stats.held_lost += 1
        self.network.engine.schedule(extra_ns, later)

    # ------------------------------------------------------------------
    def detach_injector(self) -> None:
        """Restore the network's original send path, if this injector
        wrapped it."""
        if self.network.send == self._send:
            self.network.send = self._orig_send  # type: ignore[method-assign]
