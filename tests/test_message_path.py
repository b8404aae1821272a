"""The message path's observables, pinned.

A change to the per-message path (event heap, wire sizes, link latency,
transport, DSM handlers) that is meant to move wall-clock only must
leave every number here alone.  The literals were recorded on the
commit *before* the event heap, ``estimate_size``, ``Message``, the link
cost cache and the DSM cost look-ups were rewritten for speed (PR 22).
"""

import hashlib
import os
import weakref

import pytest
from test_procnet import heap_fingerprint

from repro.check import FaultInjector
from repro.check import runner as check_runner
from repro.dsm import DsmConfig
from repro.lang import compile_source
from repro.net import Message, SimNetwork
from repro.net.message import HEADER_BYTES, M_LOCK_FWD, estimate_size
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.serve import PRESETS, run_scenario
from repro.serve import scenario as serve_scenario
from repro.sim import IBM, SUN, SimEngine
from repro.sim.cost_model import COMM_FIXED_NS, COMM_PER_BYTE_NS
from repro.sim.rng import PCG64

_LOCKS_MJ = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "e2e", "programs", "locks.mj")

# locks.mj, 4 threads x 50 hand-overs, 3 nodes x 2 CPUs, keyed by
# (timestamp mode, brands).
GOLDEN = {
    ("scalar", ("sun",)): dict(
        result=200, simulated_ns=313324570, events_fired=1648,
        messages=736, bytes=76849,
        by_type={"dsm.diff": (153, 10710), "dsm.diff_ack": (153, 14994),
                 "dsm.fetch_reply": (104, 7596), "dsm.fetch_req": (104, 9360),
                 "dsm.lock_fwd": (2, 296), "dsm.lock_req": (6, 774),
                 "dsm.owner_update": (104, 7904), "dsm.spawn": (3, 351),
                 "dsm.token": (107, 24864)},
        by_link={(0, 1): (162, 14968), (0, 2): (104, 9022),
                 (1, 0): (214, 16942), (1, 2): (50, 11717),
                 (2, 0): (156, 12538), (2, 1): (50, 11662)},
        instructions=[[288, 1127], [1178, 1129], [1178]]),
    # Mixed brands: other link latencies, so another schedule (and one
    # loopback frame, which no brand prices).
    ("scalar", ("sun", "ibm", "sun")): dict(
        result=200, simulated_ns=9052605, events_fired=657,
        messages=342, bytes=30398,
        by_type={"dsm.diff": (153, 10710), "dsm.diff_ack": (153, 14994),
                 "dsm.fetch_reply": (5, 468), "dsm.fetch_req": (5, 450),
                 "dsm.lock_fwd": (3, 444), "dsm.lock_req": (7, 903),
                 "dsm.owner_update": (5, 380), "dsm.spawn": (3, 351),
                 "dsm.token": (8, 1698)},
        by_link={(0, 0): (1, 129), (0, 1): (113, 11497), (0, 2): (55, 5494),
                 (1, 0): (114, 8642), (1, 2): (1, 232), (2, 0): (58, 4404)},
        instructions=[[281, 1127], [1129, 1128], [1129]]),
    # The HLRC baseline (ablations A1/A2): no fence, fetches and tokens
    # carry per-writer intervals.  Recorded before it left DsmEngine.
    ("vector", ("sun",)): dict(
        result=200, simulated_ns=193210590, events_fired=1946,
        messages=1034, bytes=124969,
        by_type={"dsm.diff": (153, 10710), "dsm.diff_ack": (153, 14994),
                 "dsm.fetch_reply": (104, 7596), "dsm.fetch_req": (104, 12128),
                 "dsm.lock_fwd": (200, 29600), "dsm.lock_req": (106, 13674),
                 "dsm.owner_update": (104, 7904), "dsm.spawn": (3, 351),
                 "dsm.token": (107, 28012)},
        by_link={(0, 0): (2, 258), (0, 1): (212, 22517),
                 (0, 2): (154, 16479), (1, 0): (263, 24963),
                 (1, 2): (99, 20214), (2, 0): (205, 20367),
                 (2, 1): (99, 20171)},
        instructions=[[274, 1127], [1130, 1177], [1178]]),
    ("vector", ("sun", "ibm", "sun")): dict(
        result=200, simulated_ns=7204702, events_fired=657,
        messages=342, bytes=30866,
        by_type={"dsm.diff": (153, 10710), "dsm.diff_ack": (153, 14994),
                 "dsm.fetch_reply": (5, 468), "dsm.fetch_req": (5, 446),
                 "dsm.lock_fwd": (3, 444), "dsm.lock_req": (7, 903),
                 "dsm.owner_update": (5, 380), "dsm.spawn": (3, 351),
                 "dsm.token": (8, 2170)},
        by_link={(0, 0): (1, 129), (0, 1): (113, 11553), (0, 2): (55, 5598),
                 (1, 0): (114, 8754), (1, 2): (1, 252), (2, 0): (58, 4580)},
        instructions=[[281, 1127], [1129, 1128], [1129]]),
}


def _locks_observables(brands, seed, timestamp_mode, tap=None):
    with open(_LOCKS_MJ) as fh:
        source = fh.read().replace("@THREADS@", "4").replace("@ITERS@", "50")
    rt = JavaSplitRuntime(
        rewrite_application(list(compile_source(source))),
        RuntimeConfig(num_nodes=3, cpus_per_node=2, brands=brands, seed=seed,
                      dsm=DsmConfig(timestamp_mode=timestamp_mode)))
    if tap is not None:
        for worker in rt.workers:
            tap(worker.transport)
    report = rt.run()
    net = rt.network.stats
    return dict(
        result=report.result, simulated_ns=report.simulated_ns,
        events_fired=rt.engine.events_fired,
        messages=net.messages, bytes=net.bytes,
        by_type=net.by_type, by_link=net.by_link,
        instructions=[[t.instructions for t in w.jvm.threads]
                      for w in rt.workers],
    )


def _brands(mode):
    return sorted(brands for m, brands in GOLDEN if m == mode)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("brands", _brands("scalar"))
def test_locks_observables_are_the_recorded_ones(brands, seed):
    assert _locks_observables(brands, seed, "scalar") \
        == GOLDEN["scalar", brands]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("brands", _brands("vector"))
def test_hlrc_locks_observables_are_the_recorded_ones(brands, seed):
    assert _locks_observables(brands, seed, "vector") \
        == GOLDEN["vector", brands]


def _idle_taps(transport):
    """A deliver tap and an outbound filter that do nothing: they only
    move every frame off the inline path onto ``_dispatch``."""
    transport.hooks.deliver.append(lambda msg: None)
    transport.hooks.outbound.append(lambda msg: False)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode,brands", sorted(GOLDEN))
def test_tapped_and_untapped_paths_agree(mode, brands, seed):
    assert _locks_observables(brands, seed, mode, tap=_idle_taps) \
        == GOLDEN[mode, brands]


@pytest.mark.xfail(strict=True, reason=(
    "_on_lock_req/_on_lock_fwd forward dict(msg.payload): the received "
    "frame's __seq__ (19 bytes) is billed again"))
def test_a_forwarded_lock_request_bills_only_protocol_fields():
    forwarded = []

    def watch(transport):
        transport.hooks.outbound.append(
            lambda msg: msg.msg_type == M_LOCK_FWD and forwarded.append(msg))

    _locks_observables(("sun",), 0, "scalar", tap=watch)
    assert forwarded
    for msg in forwarded:
        fields = {k: v for k, v in msg.payload.items()
                  if not k.startswith("__")}
        assert msg.size_bytes == HEADER_BYTES + estimate_size(fields), \
            sorted(msg.payload)


# ---------------------------------------------------------------------------
# Kill path: a node killed mid-run, over the reliable transport
# ---------------------------------------------------------------------------
#: The two sweeps that kill a node: ``repro serve --preset churn --seeds
#: 2`` and ``repro check --app tsp --kill random --nodes 4 --seeds 3``.
KILL_SWEEPS = {
    "serve churn": lambda: [run_scenario(PRESETS["churn"], seed=seed)
                            for seed in (0, 1)],
    "check tsp kill": lambda: check_runner.run_check(
        app="tsp", seeds=3, kill="random", nodes=4),
}

#: Per seed of each sweep: the result, simulated ns, messages and bytes
#: (in total and per type), frames the wire carried to a dead node, the
#: killed node, the recovery records and a digest of the master heap.
#: Recorded before the kill path stopped filtering every frame.
GOLDEN_KILL = {
    "check tsp kill": [
        dict(result=2511, simulated_ns=240000000, messages=642, bytes=79008,
             dropped=8,
             by_type={"dsm.diff": (29, 2514), "dsm.diff_ack": (29, 3122),
                      "dsm.fetch_reply": (40, 4744),
                      "dsm.fetch_req": (40, 3600), "dsm.lock_fwd": (29, 4901),
                      "dsm.lock_req": (33, 4257),
                      "dsm.owner_update": (23, 1748), "dsm.spawn": (3, 348),
                      "dsm.token": (41, 19950), "ft.ping": (23, 92),
                      "ft.repl": (82, 17532), "transport.ack": (270, 16200)},
             killed=[1],
             recoveries=[dict(dead=1, detected_ns=40000000, drain_ticks=0,
                              recovered_ns=40000000, buddy=2, units_adopted=0,
                              tokens_reissued=0, diffs_redirected=0,
                              fetches_reissued=0, lock_requests_reissued=1,
                              threads_respawned=1)],
             heap="d5722126b00ad230"),
        dict(result=2511, simulated_ns=220000000, messages=655, bytes=79126,
             dropped=2,
             by_type={"dsm.diff": (29, 2424), "dsm.diff_ack": (29, 3062),
                      "dsm.fetch_reply": (41, 4820),
                      "dsm.fetch_req": (41, 3690), "dsm.lock_fwd": (29, 4901),
                      "dsm.lock_req": (30, 3870),
                      "dsm.owner_update": (24, 1824), "dsm.spawn": (3, 348),
                      "dsm.token": (39, 18671), "ft.ping": (20, 80),
                      "ft.repl": (90, 18636), "transport.ack": (280, 16800)},
             killed=[2],
             recoveries=[dict(dead=2, detected_ns=40000000, drain_ticks=1,
                              recovered_ns=41000000, buddy=3, units_adopted=0,
                              tokens_reissued=0, diffs_redirected=0,
                              fetches_reissued=0, lock_requests_reissued=0,
                              threads_respawned=1)],
             heap="59c8de3d013d4c73"),
        dict(result=2511, simulated_ns=280000000, messages=670, bytes=81003,
             dropped=0,
             by_type={"dsm.diff": (29, 2424), "dsm.diff_ack": (29, 3062),
                      "dsm.fetch_reply": (39, 4692),
                      "dsm.fetch_req": (39, 3510), "dsm.lock_fwd": (26, 4394),
                      "dsm.lock_req": (31, 3999),
                      "dsm.owner_update": (24, 1824), "dsm.spawn": (3, 348),
                      "dsm.token": (40, 20102), "ft.ping": (26, 104),
                      "ft.repl": (90, 18960), "ft.suspect": (1, 4),
                      "transport.ack": (293, 17580)},
             killed=[3],
             recoveries=[dict(dead=3, detected_ns=60000000, drain_ticks=0,
                              recovered_ns=60000000, buddy=0, units_adopted=0,
                              tokens_reissued=1, diffs_redirected=0,
                              fetches_reissued=0, lock_requests_reissued=2,
                              threads_respawned=1)],
             heap="1867a6b5ee37c1d5"),
    ],
    "serve churn": [
        dict(result=8334, simulated_ns=966000000, messages=3494, bytes=598035,
             dropped=22,
             by_type={"dsm.diff": (141, 15384), "dsm.diff_ack": (143, 16634),
                      "dsm.fetch_reply": (286, 42384),
                      "dsm.fetch_req": (287, 25830),
                      "dsm.lock_fwd": (134, 22646),
                      "dsm.lock_req": (143, 18447),
                      "dsm.owner_update": (147, 11172), "dsm.spawn": (6, 696),
                      "dsm.token": (285, 276102), "ft.ping": (94, 376),
                      "ft.repl": (417, 83704), "transport.ack": (1411, 84660)},
             killed=[1],
             recoveries=[dict(dead=1, detected_ns=40000000, drain_ticks=0,
                              recovered_ns=40000000, buddy=2, units_adopted=0,
                              tokens_reissued=0, diffs_redirected=0,
                              fetches_reissued=0, lock_requests_reissued=2,
                              threads_respawned=2)],
             heap="c88b8313aa8e91b5"),
        dict(result=7368, simulated_ns=846000000, messages=2986, bytes=488289,
             dropped=2,
             by_type={"dsm.diff": (125, 13652), "dsm.diff_ack": (126, 14648),
                      "dsm.fetch_reply": (251, 37500),
                      "dsm.fetch_req": (252, 22680),
                      "dsm.lock_fwd": (116, 19604),
                      "dsm.lock_req": (129, 16641),
                      "dsm.owner_update": (125, 9500), "dsm.spawn": (6, 702),
                      "dsm.token": (247, 211738), "ft.ping": (83, 332),
                      "ft.repl": (371, 71992), "transport.ack": (1155, 69300)},
             killed=[2],
             recoveries=[dict(dead=2, detected_ns=40000000, drain_ticks=0,
                              recovered_ns=40000000, buddy=3, units_adopted=0,
                              tokens_reissued=2, diffs_redirected=0,
                              fetches_reissued=0, lock_requests_reissued=4,
                              threads_respawned=2)],
             heap="413a8535e7fe8b45"),
    ],
}


def _kill_runs(monkeypatch, sweep, filter_every_frame=False):
    """Run one kill sweep; return ``(runtime, report, injector)`` per
    seed.  ``filter_every_frame`` puts the injector's per-frame filter
    on the send path although the plan has no per-frame fault."""
    built, injectors = [], {}
    for module in (check_runner, serve_scenario):
        def build(*args, _real=module.build_runtime, **kwargs):
            rt = _real(*args, **kwargs)
            run = rt.run
            def run_and_keep():
                built.append((rt, run()))
                return built[-1][1]
            rt.run = run_and_keep
            return rt
        monkeypatch.setattr(module, "build_runtime", build)
    real_attach = FaultInjector.attach.__func__

    def attach(cls, runtime, plan):
        inj = real_attach(cls, runtime, plan)
        if filter_every_frame:
            inj.network.send = inj._send
        injectors[id(runtime)] = inj
        return inj
    monkeypatch.setattr(FaultInjector, "attach", classmethod(attach))
    KILL_SWEEPS[sweep]()
    monkeypatch.undo()
    return [(rt, report, injectors[id(rt)]) for rt, report in built]


def _kill_observables(rt, report, inj):
    net = rt.network.stats
    heap = repr(sorted(heap_fingerprint(rt).items())).encode()
    return dict(
        result=report.result, simulated_ns=report.simulated_ns,
        messages=net.messages, bytes=net.bytes, dropped=net.dropped,
        by_type=dict(sorted(net.by_type.items())),
        killed=list(inj.stats.detached),
        recoveries=report.ft["recoveries"],
        heap=hashlib.sha256(heap).hexdigest()[:16])


@pytest.mark.parametrize("sweep", sorted(KILL_SWEEPS))
def test_kill_path_observables_are_the_recorded_ones(monkeypatch, sweep):
    assert [_kill_observables(*run) for run in _kill_runs(monkeypatch, sweep)] \
        == GOLDEN_KILL[sweep]


@pytest.mark.parametrize("sweep", sorted(KILL_SWEEPS))
def test_a_detach_only_plan_pays_nothing_per_frame(monkeypatch, sweep):
    """The per-frame filter's draws were dead: forcing it onto the send
    path of a detach-only plan changes no observable, and without it the
    injector neither wraps ``network.send`` nor draws once."""
    filtered = _kill_runs(monkeypatch, sweep, filter_every_frame=True)
    plain = _kill_runs(monkeypatch, sweep)
    assert [_kill_observables(*run) for run in plain] \
        == [_kill_observables(*run) for run in filtered]
    for (_, _, forced), (rt, _, inj) in zip(filtered, plain):
        assert not inj.plan.per_frame and inj.stats.detached
        assert forced.stats.seen > 0 and inj.stats.seen == 0
        assert "send" not in vars(rt.network)
        fresh = PCG64(inj.plan.seed)
        assert (inj._rng._state, inj._rng._half) == (fresh._state, fresh._half)
        assert forced._rng._state != fresh._state


# ---------------------------------------------------------------------------
# Event heap
# ---------------------------------------------------------------------------
class _Unorderable:
    """A callback that raises if the heap ever compares it."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self):
        self.log.append(self.tag)

    def __lt__(self, other):
        raise AssertionError("heap compared two callbacks")

    __gt__ = __le__ = __ge__ = __lt__


def test_callbacks_at_one_timestamp_fire_fifo_and_are_never_compared():
    eng = SimEngine()
    log = []
    for tag in "abcdefgh":
        eng.schedule(5, _Unorderable(log, tag))
    eng.run_until_idle()
    assert log == list("abcdefgh")


def test_cancel_after_firing_is_a_noop():
    eng = SimEngine()
    log = []
    handle = eng.schedule(1, lambda: log.append(1))
    eng.schedule(2, lambda: log.append(2))
    assert eng.step() and not handle.cancelled
    handle.cancel()
    assert handle.cancelled
    assert eng.run_until_idle() == 1
    assert log == [1, 2] and eng.events_fired == 2


def test_cancelled_head_under_run_until():
    eng = SimEngine()
    log = []
    eng.schedule(10, lambda: log.append("head")).cancel()
    eng.schedule(20, lambda: log.append("live"))
    eng.schedule(90, lambda: log.append("late"))
    assert eng.run(until_ns=50) == 1
    assert log == ["live"] and eng.now == 50 and eng.pending == 1


def test_handle_reports_its_firing_time_and_pending_skips_cancelled():
    eng = SimEngine()
    eng.schedule(7, lambda: None)
    eng.run_until_idle()
    handle = eng.schedule(5, lambda: None)
    other = eng.schedule(9, lambda: None)
    assert handle.time == 12 and other.time == 16
    assert eng.pending == 2
    other.cancel()
    assert eng.pending == 1


def test_cancelled_timer_stops_pinning_its_callback():
    class Callback:
        def __call__(self):
            pass

    eng = SimEngine()
    callback = Callback()
    ref = weakref.ref(callback)
    eng.schedule(5, callback).cancel()
    del callback
    assert ref() is None and eng.pending == 0


# ---------------------------------------------------------------------------
# Link cost cache
# ---------------------------------------------------------------------------
def _latency(a, b, size):
    return ((a[COMM_FIXED_NS] + b[COMM_FIXED_NS]) // 2
            + size * max(a[COMM_PER_BYTE_NS], b[COMM_PER_BYTE_NS]))


def test_brand_attached_after_traffic_gets_its_own_latency():
    eng = SimEngine()
    net = SimNetwork(eng)
    arrivals = {}
    for node in (0, 1):
        net.attach(node, SUN, lambda m: arrivals.__setitem__(m.dst, eng.now))
    net.send(Message("t", 0, 1, size_bytes=100))
    eng.run_until_idle()
    assert arrivals[1] == _latency(SUN, SUN, 100)

    net.attach(2, IBM, lambda m: arrivals.__setitem__(m.dst, eng.now))
    t0 = eng.now
    net.send(Message("t", 0, 2, size_bytes=100))
    eng.run_until_idle()
    assert arrivals[2] - t0 == _latency(SUN, IBM, 100)
    assert _latency(SUN, IBM, 100) != _latency(SUN, SUN, 100)

    # The same node id under another brand: the old link cost is gone.
    net.detach(1)
    net.attach(1, IBM, lambda m: arrivals.__setitem__(m.dst, eng.now))
    t0 = eng.now
    net.send(Message("t", 0, 1, size_bytes=100))
    eng.run_until_idle()
    assert arrivals[1] - t0 == _latency(SUN, IBM, 100)
    assert net.latency_ns(1, 2, 100) == _latency(IBM, IBM, 100)
