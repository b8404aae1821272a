"""Deterministic discrete-event simulation engine.

This is the clock substrate for the whole reproduction.  The paper runs on
real wall-clock time over a real cluster; we replace that with a single
event heap keyed by ``(time, sequence)`` so that every experiment is
exactly replayable.  Simulated time is kept in integer **nanoseconds** to
avoid floating-point drift in long runs.  A heap entry is the list
``[time, seq, callback]``: the key is unique, so ``heapq`` compares
entries in C and never looks at a callback; one loop (:meth:`SimEngine.run`)
pops and fires them.

The engine knows nothing about JVMs, networks or DSM protocols: those
layers schedule callbacks here.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class EventHandle(list):
    """One heap entry ``[time, seq, callback]``, returned by
    :meth:`SimEngine.schedule` as the handle that cancels it."""

    __slots__ = ()

    def cancel(self) -> None:
        """Cancel the event.  Cancelling an already-fired event is a no-op.
        The callback is dropped, so a cancelled timer pins nothing."""
        self[2] = None

    @property
    def cancelled(self) -> bool:
        """True once cancel() was called."""
        return self[2] is None

    @property
    def time(self) -> int:
        """Absolute simulated firing time of the event."""
        return self[0]


class SimEngine:
    """A minimal, deterministic event loop with an integer-ns clock.

    Events scheduled at the same timestamp fire in scheduling order
    (FIFO), which makes concurrent protocol interleavings deterministic.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[EventHandle] = []
        self._events_fired: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self._now / NS_PER_SEC

    @property
    def events_fired(self) -> int:
        """Total events executed so far."""
        return self._events_fired

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay_ns`` from now.

        ``delay_ns`` must be a non-negative integer; a zero delay fires
        after all events already queued for the current instant.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        event = EventHandle((self._now + int(delay_ns), self._seq, callback))
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} < now {self._now}"
            )
        return self.schedule(time_ns - self._now, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest pending event.

        Returns ``False`` when the heap is empty (nothing fired).
        """
        return self.run(max_events=1) == 1

    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run events until exhaustion or until a bound trips.

        Parameters
        ----------
        until_ns:
            Stop before firing any event with ``time > until_ns``; the
            clock is advanced to ``until_ns`` on a clean timeout (no
            event at or before it is left, and ``stop_when`` did not
            ask to stop).
        max_events:
            Fire at most this many events (a runaway-loop backstop).
        stop_when:
            Checked after each event; run stops once it returns True.

        Returns the number of events fired during this call.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = float("inf") if max_events is None else max_events
        fired = 0
        try:
            while heap and fired < limit:
                if until_ns is not None and heap[0][0] > until_ns:
                    break
                when, _, callback = pop(heap)
                if callback is None:
                    continue  # cancelled
                self._now = when
                fired += 1
                callback()
                if stop_when is not None and stop_when():
                    return fired
        finally:
            self._events_fired += fired
        if until_ns is not None and (not heap or heap[0][0] > until_ns):
            self._now = max(self._now, until_ns)
        return fired

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain.  ``max_events`` guards runaways."""
        fired = self.run(max_events=max_events)
        if self._heap and fired >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return fired

    @property
    def pending(self) -> int:
        """Number of queued events, cancelled ones excluded."""
        return sum(1 for e in self._heap if e[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimEngine(now={self._now}ns, pending={self.pending})"
