"""The DSM engine driven without a JVM (``dsm_script``): each script pins
the messages one protocol exchange costs, per type, with the invariant
monitor attached and clean."""

from repro.check import InvariantMonitor

from dsm_script import ScriptRuntime

BOX = {"Box": ("v",)}


def _run(rt):
    monitor = InvariantMonitor.attach(rt)
    reads = rt.run()
    monitor.finalize()
    assert monitor.ok, monitor.summary()
    return reads, rt.messages()


def _total(rt, field):
    return sum(getattr(w.dsm.stats, field) for w in rt.workers)


def test_home_write_notice_then_remote_fetch():
    """Node 0 writes its own master under a lock it homes; the token
    carries the notice to node 1, whose read fetches the new copy."""
    rt = ScriptRuntime(2, BOX, {"x": ("Box", 0), "L": ("Box", 0)}, [
        (0, [("acquire", "L"), ("write", "x", "v", 1), ("release", "L")]),
        (1, [("acquire", "L"), ("read", "x", "v"), ("release", "L")]),
    ])
    reads, sent = _run(rt)
    assert reads["n1.t1"] == [1]
    assert sent == {"dsm.lock_req": 1, "dsm.token": 1,
                    "dsm.owner_update": 1, "dsm.fetch_req": 1,
                    "dsm.fetch_reply": 1}


def test_replica_write_diffs_home_and_fences_the_token():
    """Node 1 writes a replica under a lock it homes while node 0 waits
    for that lock: the release diffs to x's home, and the token waits
    for the ack (the §3.1 fence) exactly once."""
    rt = ScriptRuntime(2, BOX, {"x": ("Box", 0), "L": ("Box", 1)}, [
        (1, [("acquire", "L"), ("write", "x", "v", 1), ("release", "L")]),
        (0, [("acquire", "L"), ("read", "x", "v"), ("release", "L")]),
    ])
    reads, sent = _run(rt)
    assert reads["n0.t1"] == [1]
    assert sent == {"dsm.fetch_req": 1, "dsm.fetch_reply": 1,
                    "dsm.lock_req": 1, "dsm.diff": 1, "dsm.diff_ack": 1,
                    "dsm.token": 1, "dsm.owner_update": 1}
    assert _total(rt, "fence_waits") == 1


def test_cross_node_wait_notify_hand_off():
    """Node 0 waits on L; node 1 writes an array element and notifies.
    The waiter re-acquires through the token's wait queue and reads the
    element from its own master (no fetch on node 0)."""
    rt = ScriptRuntime(2, BOX, {"a": ("int[]", 0, 4), "L": ("Box", 0)}, [
        (0, [("acquire", "L"), ("wait", "L"), ("read", "a", 2),
             ("release", "L")]),
        (1, [("acquire", "L"), ("write", "a", 2, 5), ("notify", "L"),
             ("release", "L")]),
    ])
    reads, sent = _run(rt)
    assert reads["n0.t0"] == [5]
    assert sent == {"dsm.lock_req": 1, "dsm.token": 2,
                    "dsm.owner_update": 1, "dsm.fetch_req": 1,
                    "dsm.fetch_reply": 1, "dsm.diff": 1, "dsm.diff_ack": 1}
    assert _total(rt, "fence_waits") == 1


def test_spawn_to_the_other_node():
    """A spawn ships the Thread object's gid; the new thread's first read
    fetches the state its creator wrote before starting it."""
    rt = ScriptRuntime(2, {"T": ("v",)}, {"t": ("T", 0)}, [
        (0, [("write", "t", "v", 7), ("spawn", "t", 1)]),
    ], bodies={"T": [("read", "t", "v")]})
    begun = []
    rt.workers[1].dsm.hooks.thread_begin.append(
        lambda thread, payload: begun.append(thread.name))
    reads, sent = _run(rt)
    assert begun == ["T-1"] and reads["T-1"] == [7]
    assert sent == {"dsm.spawn": 1, "dsm.fetch_req": 1,
                    "dsm.fetch_reply": 1}
