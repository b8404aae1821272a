"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimEngine, SimulationError


def test_clock_starts_at_zero():
    eng = SimEngine()
    assert eng.now == 0
    assert eng.now_seconds == 0.0


def test_events_fire_in_time_order():
    eng = SimEngine()
    fired = []
    eng.schedule(30, lambda: fired.append("c"))
    eng.schedule(10, lambda: fired.append("a"))
    eng.schedule(20, lambda: fired.append("b"))
    eng.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert eng.now == 30


def test_same_time_events_fire_fifo():
    eng = SimEngine()
    fired = []
    for i in range(10):
        eng.schedule(5, lambda i=i: fired.append(i))
    eng.run_until_idle()
    assert fired == list(range(10))


def test_zero_delay_fires_after_current_instant_queue():
    eng = SimEngine()
    fired = []
    eng.schedule(0, lambda: fired.append(1))
    eng.schedule(0, lambda: (fired.append(2), eng.schedule(0, lambda: fired.append(3))))
    eng.run_until_idle()
    assert fired == [1, 2, 3]


def test_negative_delay_rejected():
    eng = SimEngine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    eng = SimEngine()
    seen = []
    eng.schedule_at(100, lambda: seen.append(eng.now))
    eng.run_until_idle()
    assert seen == [100]
    with pytest.raises(SimulationError):
        eng.schedule_at(50, lambda: None)


def test_cancellation():
    eng = SimEngine()
    fired = []
    h = eng.schedule(10, lambda: fired.append("x"))
    eng.schedule(5, lambda: h.cancel())
    eng.run_until_idle()
    assert fired == []
    assert h.cancelled


def test_run_until_bound_advances_clock():
    eng = SimEngine()
    fired = []
    eng.schedule(10, lambda: fired.append(1))
    eng.schedule(100, lambda: fired.append(2))
    n = eng.run(until_ns=50)
    assert n == 1
    assert fired == [1]
    assert eng.now == 50
    eng.run_until_idle()
    assert fired == [1, 2]
    assert eng.now == 100


def test_run_until_bound_advances_clock_when_the_heap_drains_first():
    eng = SimEngine()
    eng.schedule(10, lambda: None)
    assert eng.run(until_ns=50) == 1
    assert eng.now == 50
    # ... but not past events a bound left behind, nor after stop_when.
    eng.schedule(10, lambda: None)
    eng.schedule(20, lambda: None)
    assert eng.run(until_ns=100, max_events=1) == 1 and eng.now == 60
    assert eng.run(until_ns=100, stop_when=lambda: True) == 1
    assert eng.now == 70


def test_run_max_events():
    eng = SimEngine()
    count = [0]

    def recur():
        count[0] += 1
        eng.schedule(1, recur)

    eng.schedule(1, recur)
    eng.run(max_events=100)
    assert count[0] == 100


def test_run_until_idle_guards_runaway():
    eng = SimEngine()

    def recur():
        eng.schedule(1, recur)

    eng.schedule(1, recur)
    with pytest.raises(SimulationError):
        eng.run_until_idle(max_events=1000)


def test_stop_when_predicate():
    eng = SimEngine()
    fired = []
    for i in range(10):
        eng.schedule(i + 1, lambda i=i: fired.append(i))
    eng.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_events_fired_counter():
    eng = SimEngine()
    for i in range(5):
        eng.schedule(i, lambda: None)
    eng.run_until_idle()
    assert eng.events_fired == 5


def test_nested_scheduling_during_callback():
    eng = SimEngine()
    times = []

    def outer():
        times.append(eng.now)
        eng.schedule(7, inner)

    def inner():
        times.append(eng.now)

    eng.schedule(3, outer)
    eng.run_until_idle()
    assert times == [3, 10]


def test_pending_count_excludes_cancelled():
    eng = SimEngine()
    h1 = eng.schedule(10, lambda: None)
    eng.schedule(20, lambda: None)
    assert eng.pending == 2
    h1.cancel()
    assert eng.pending == 1
