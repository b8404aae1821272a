"""Simulated worker-node CPU scheduling.

A :class:`Node` models one commodity workstation: ``num_cpus`` processors
(the paper uses dual-processor Xeons), a JVM "brand" cost model, and a set
of *execution streams* (application threads, in practice) that timeshare
the CPUs in round-robin quanta of simulated time.

The node knows nothing about bytecode: a stream is anything implementing
:class:`ExecStream`.  The JVM layer adapts interpreter threads to this
interface; DSM protocol handlers do **not** occupy a CPU — their cost is
modelled as a fixed delay on the message path (see ``net``), which keeps
the scheduler simple while preserving the compute/communication balance.
"""

from __future__ import annotations

import enum
from collections import deque
from functools import partial
from typing import Deque, Optional, Protocol, Set

from .cost_model import CostModel
from .engine import SimEngine


class StreamState(enum.Enum):
    """Lifecycle of an execution stream: runnable/blocked/finished."""
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


class ExecStream(Protocol):
    """Anything the node can schedule on a CPU."""

    def run_quantum(self, budget_ns: int) -> tuple[int, StreamState]:
        """Execute for up to ``budget_ns`` of simulated time.

        Returns ``(consumed_ns, state)``.  ``consumed_ns`` may exceed the
        budget by at most one instruction's cost.  A stream returning
        ``BLOCKED`` will not be rescheduled until :meth:`Node.wake` is
        called for it.
        """
        ...


DEFAULT_QUANTUM_NS = 50_000  # 50 µs


class Node:
    """One simulated workstation: CPUs + round-robin stream scheduling."""

    def __init__(
        self,
        engine: SimEngine,
        node_id: int,
        cost_model: CostModel,
        num_cpus: int = 2,
        quantum_ns: int = DEFAULT_QUANTUM_NS,
    ) -> None:
        if num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        self.engine = engine
        self.node_id = node_id
        self.cost_model = cost_model
        self.num_cpus = num_cpus
        self.quantum_ns = quantum_ns
        self._runnable: Deque[ExecStream] = deque()
        self._blocked: Set[int] = set()          # id(stream) of blocked streams
        self._idle_cpus: Set[int] = set(range(num_cpus))
        self._streams_alive = 0
        self.busy_ns = 0                         # total CPU-busy simulated time
        self.finished_streams = 0
        self.halted = False                      # failed node: CPUs stop

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def add_stream(self, stream: ExecStream) -> None:
        """Register a new runnable stream and kick an idle CPU."""
        self._runnable.append(stream)
        self._streams_alive += 1
        self._kick()

    def wake(self, stream: ExecStream) -> None:
        """Move a blocked stream back to the runnable queue."""
        if self.halted:
            return  # a failed workstation executes nothing further
        key = id(stream)
        if key not in self._blocked:
            raise RuntimeError("wake() on a stream that is not blocked")
        self._blocked.remove(key)
        self._runnable.append(stream)
        self._kick()

    def halt(self) -> None:
        """Model node failure: discard all streams and park every CPU.
        Already-scheduled CPU events become no-ops when they fire."""
        self.halted = True
        self._runnable.clear()
        self._blocked.clear()

    @property
    def load(self) -> int:
        """Number of live streams — the default load-balancing metric."""
        return self._streams_alive

    @property
    def idle(self) -> bool:
        """True when no stream is runnable and all CPUs are parked."""
        return len(self._idle_cpus) == self.num_cpus and not self._runnable

    # ------------------------------------------------------------------
    # CPU loop
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Dispatch idle CPUs onto the runnable queue."""
        while self._idle_cpus and self._runnable:
            cpu = self._idle_cpus.pop()
            self.engine.schedule(0, partial(self._cpu_loop, cpu))

    def _cpu_loop(self, cpu: int) -> None:
        if self.halted or not self._runnable:
            self._idle_cpus.add(cpu)
            return
        stream = self._runnable.popleft()
        consumed, state = stream.run_quantum(self.quantum_ns)
        if consumed < 0:
            raise RuntimeError("stream consumed negative time")
        self.busy_ns += consumed
        # The quantum occupies simulated time [now, now+consumed]; the
        # stream must not become runnable again before it ends, or a
        # second CPU would execute the same thread "in parallel with
        # itself" at the same instant.  Blocked/finished transitions are
        # registered synchronously so protocol wake-ups are never lost.
        delay = max(consumed, 1)
        if state is StreamState.RUNNABLE:
            self.engine.schedule(delay, partial(self._requeue, stream))
        elif state is StreamState.BLOCKED:
            self._blocked.add(id(stream))
        else:  # FINISHED
            self._streams_alive -= 1
            self.finished_streams += 1
        self.engine.schedule(delay, partial(self._cpu_loop, cpu))

    def _requeue(self, stream: ExecStream) -> None:
        if self.halted:
            return
        self._runnable.append(stream)
        self._kick()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node(id={self.node_id}, brand={self.cost_model.brand}, "
            f"cpus={self.num_cpus}, runnable={len(self._runnable)}, "
            f"blocked={len(self._blocked)})"
        )
