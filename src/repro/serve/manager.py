"""Runtime side of the serving subsystem.

:class:`LoadFeed` turns a precomputed arrival schedule into the blocking
``Serve.next`` / ``Serve.done`` native protocol: a frontend thread asking
for the next request either gets it immediately (already due), parks via
the interpreter's complete-style block until the engine timer for the
next arrival fires, or gets ``-1`` when the schedule is exhausted.  All
of this rides on the deterministic event engine, so the delivery order
is identical on both transport backends and on the single-JVM reference.

:class:`ServeManager` attaches a feed to a distributed runtime: it
installs the feed on every worker JVM (including late joiners), skips
waiters whose node has been fail-stopped (fault tolerance restarts
those frontends, which simply call ``Serve.next`` again), and records
per-phase completion counters and latency histograms into the obs
metrics registry for the SLO report.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..jvm.interpreter import BLOCK
from ..sim.node import StreamState
from .loadgen import KEY_SPACE, Arrival


class _TenantStream:
    """Mutable per-tenant delivery state over an immutable schedule."""

    __slots__ = ("arrivals", "cursor", "waiters", "timer_armed", "done")

    def __init__(self, arrivals: List[Arrival]) -> None:
        self.arrivals = arrivals
        self.cursor = 0
        self.waiters: Deque[Any] = deque()
        self.timer_armed = False
        self.done: set = set()


class LoadFeed:
    """Deliver scheduled arrivals to ``Serve.next`` callers.

    Encoding: ``Serve.next(tenant)`` returns ``(seq + 1) * KEY_SPACE +
    key`` (always > 0 so the app can use 0 as its queue poison pill), or
    ``-1`` once the tenant's schedule is exhausted.  ``Serve.done(tenant,
    seq)`` closes the request; latency is engine-now minus the scheduled
    arrival time, so queueing delay inside the program is included —
    the open-loop property the SLO report depends on.
    """

    def __init__(
        self,
        engine: Any,
        schedules: List[List[Arrival]],
        on_done: Optional[Callable[[int, int, int, int, int], None]] = None,
        thread_ok: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.engine = engine
        self._streams = [_TenantStream(s) for s in schedules]
        #: Called as (tenant, seq, phase, latency_ns, node_id) per done.
        self.on_done = on_done
        #: Liveness filter for parked waiters (dead-node threads are
        #: skipped without consuming an arrival).
        self.thread_ok = thread_ok
        self.injected = sum(len(s) for s in schedules)
        self.delivered = 0
        self.completed = 0
        self.completed_by_phase: Dict[int, int] = {}
        self.duplicate_done = 0

    # -- native protocol ------------------------------------------------
    def next(self, thread: Any, tenant: int) -> Any:
        """Value for ``Serve.next``: encoded request, -1, or BLOCK."""
        st = self._stream(tenant)
        if st.cursor >= len(st.arrivals):
            return -1
        t_arr, key, _phase = st.arrivals[st.cursor]
        if t_arr <= self.engine.now:
            return self._deliver(st)
        st.waiters.append(thread)
        self._arm(st, t_arr)
        return BLOCK

    def done(self, thread: Any, tenant: int, seq: int) -> None:
        """Record completion of request ``seq`` (latency + phase tally)."""
        st = self._stream(tenant)
        if not (0 <= seq < st.cursor) or seq in st.done:
            # A restarted worker replaying a request already finished
            # before the kill, or a bad seq: count, don't double-record.
            self.duplicate_done += 1
            return
        st.done.add(seq)
        t_arr, _key, phase = st.arrivals[seq]
        latency_ns = self.engine.now - t_arr
        self.completed += 1
        self.completed_by_phase[phase] = (
            self.completed_by_phase.get(phase, 0) + 1)
        if self.on_done is not None:
            self.on_done(tenant, seq, phase, latency_ns,
                         thread.jvm.node.node_id)

    # -- internals ------------------------------------------------------
    def _stream(self, tenant: int) -> _TenantStream:
        if not (0 <= tenant < len(self._streams)):
            raise ValueError(f"unknown tenant {tenant}")
        return self._streams[tenant]

    def _deliver(self, st: _TenantStream) -> int:
        seq = st.cursor
        _t, key, _phase = st.arrivals[seq]
        st.cursor += 1
        self.delivered += 1
        return (seq + 1) * KEY_SPACE + key

    def _arm(self, st: _TenantStream, at_ns: int) -> None:
        if st.timer_armed:
            return
        st.timer_armed = True
        self.engine.schedule_at(at_ns, lambda: self._fire(st))

    def _fire(self, st: _TenantStream) -> None:
        """Timer callback: hand every due arrival to a live waiter."""
        st.timer_armed = False
        while st.waiters:
            if st.cursor >= len(st.arrivals):
                # Exhausted: release remaining waiters with -1 so their
                # frontends can enqueue poison pills and exit.
                thread = st.waiters.popleft()
                if self._waiter_ok(thread):
                    thread.complete(-1)
                continue
            t_arr, _key, _phase = st.arrivals[st.cursor]
            if t_arr > self.engine.now:
                self._arm(st, t_arr)
                return
            thread = st.waiters.popleft()
            if not self._waiter_ok(thread):
                # Dead waiter: drop it WITHOUT consuming the arrival —
                # the restarted frontend will pick the request up.
                continue
            thread.complete(self._deliver(st))

    def _waiter_ok(self, thread: Any) -> bool:
        if thread.state is not StreamState.BLOCKED:
            return False
        return self.thread_ok is None or self.thread_ok(thread)


class ServeManager:
    """Glue between a :class:`LoadFeed` and a JavaSplit runtime."""

    def __init__(self, runtime: Any, schedules: List[List[Arrival]]) -> None:
        self.runtime = runtime
        self.feed = LoadFeed(
            runtime.engine, schedules,
            on_done=self._record, thread_ok=self._thread_ok)

    @classmethod
    def attach(cls, runtime: Any,
               schedules: List[List[Arrival]]) -> "ServeManager":
        """Install the feed on the runtime and all current workers."""
        mgr = cls(runtime, schedules)
        for worker in runtime.workers:
            mgr.on_worker_added(worker)
        runtime.hooks.worker_added.append(mgr.on_worker_added)
        return mgr

    def on_worker_added(self, worker: Any) -> None:
        """Every worker, late joiners included, serves requests."""
        worker.jvm.serve_feed = self.feed

    # -- callbacks ------------------------------------------------------
    def _thread_ok(self, thread: Any) -> bool:
        node_id = thread.jvm.node.node_id
        workers = self.runtime.workers
        return node_id < len(workers) and not workers[node_id].dead

    def _record(self, tenant: int, seq: int, phase: int,
                latency_ns: int, node_id: int) -> None:
        obs = self.runtime.obs
        if obs is None:
            return
        metrics = obs.metrics
        if metrics is not None:
            metrics.inc("serve.completed", node_id)
            metrics.inc(f"serve.completed.p{phase}", node_id)
            metrics.inc(f"serve.completed.t{tenant}", node_id)
            metrics.observe("serve.latency_ns", node_id, latency_ns)
            metrics.observe(f"serve.latency_ns.p{phase}", node_id,
                            latency_ns)
        obs.flight_record(node_id, "serve.done", tenant=tenant, seq=seq,
                          phase=phase, latency_ns=latency_ns)

    # -- reporting ------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        feed = self.feed
        return {
            "injected": feed.injected,
            "delivered": feed.delivered,
            "completed": feed.completed,
            "completed_by_phase": {
                str(k): v
                for k, v in sorted(feed.completed_by_phase.items())},
            "duplicate_done": feed.duplicate_done,
        }
