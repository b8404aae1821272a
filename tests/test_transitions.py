"""The protocol as one transition table (``repro.dsm.transitions``).

Each unit arrival dispatches through its ``(event, state)`` row; these
tests drive the engine without a JVM (``dsm_script``) into the rows the
sweeps rarely or never reach, assert each outcome and its counter, and
check the table against the rest of the tree: the monitor judges the
engine by it, DESIGN.md prints it, and every row is named by some
test's coverage assertion.
"""

import re
from pathlib import Path

import pytest

from repro.check import InvariantMonitor
from repro.dsm import DsmConfig
from repro.dsm.diffs import compute_diff, make_twin
from repro.dsm.objectstate import ObjState
from repro.dsm.protocol import DsmStats, ProtocolError
from repro.dsm.transitions import (ACK_GRANT, BCAST, DIFF, NOTICE,
                                   PUSH, REGRANT, TABLE, TOKEN_GRANT, render,
                                   rows_by_pair)
from repro.net.message import (M_DIFF, M_FETCH_REPLY, M_FETCH_REQ,
                               M_LOC_BULK_FETCH)

from dsm_script import ScriptRuntime, ScriptThread, rows_hit

BOX = {"Box": ("v",)}
ROOT = Path(__file__).resolve().parents[1]
INSTALL = "fetch_reply INVALID*|VALID|VALID+fetching|ABSENT install_replica"


def _cluster(threads, nodes=2, objects=None, **kw):
    """Run a script to quiescence under the monitor; returns the runtime,
    the monitor and the gid of ``x``."""
    rt = ScriptRuntime(nodes, BOX, objects or {"x": ("Box", 0)}, threads,
                       **kw)
    monitor = InvariantMonitor.attach(rt)
    rt.run()
    assert monitor.ok, monitor.summary()
    return rt, monitor, rt.gids["x"][0]


def _diff(dsm, gid, value):
    """A diff that sets ``x.v`` to ``value``, built against ``dsm``'s copy."""
    obj = dsm.cache[gid]
    twin, old = make_twin(obj, 0, None), obj.fields[0]
    obj.fields[0] = value
    diff = compute_diff(obj, twin, dsm.specs["Box"], dsm, 0, None)
    obj.fields[0] = old
    return diff


def _hdr(rt, node, gid):
    return rt.workers[node].dsm.cache[gid].header


# ---------------------------------------------------------------------------
# Home-role messages at a replica: unlisted pairs, not silent accepts
# ---------------------------------------------------------------------------
def test_a_diff_at_a_replica_raises_naming_its_pair():
    """Node 1 holds a VALID copy of x; its home is node 0.  A diff batch
    delivered to node 1 was applied to the replica and acked, with the
    monitor reporting ok; (diff, VALID) has no row."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    replica = _hdr(rt, 1, gid)
    assert (replica.state, replica.version) == (ObjState.VALID, 1)
    home = rt.workers[0]
    home.transport.send(1, M_DIFF, {
        "entries": [(gid, _diff(home.dsm, gid, 42), None)], "ack_id": 0,
        "writer": 0, "interval": 1})
    with pytest.raises(ProtocolError, match=r"no row admits \(diff, VALID\)"):
        rt.engine.run_until_idle()
    assert replica.version == 1 and rt.workers[1].dsm.cache[gid].fields == [0]
    assert monitor.ok, monitor.summary()


def test_a_fetch_request_at_a_replica_raises_naming_its_pair():
    """A fetch request to a replica was answered from the replica."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    rt.workers[0].transport.send(1, M_FETCH_REQ, {
        "gid": gid, "region": None, "required": 1})
    with pytest.raises(ProtocolError,
                       match=r"no row admits \(fetch_req, VALID\)"):
        rt.engine.run_until_idle()
    assert rt.messages().get("dsm.fetch_reply") == 1  # node 1's own read
    assert monitor.ok, monitor.summary()


# ---------------------------------------------------------------------------
# Rows the sweeps barely reach: one script each, outcome and counter
# ---------------------------------------------------------------------------
def test_a_fetch_reply_over_the_master_is_dropped():
    """The reply to a fetch issued before this node became the home:
    the master is never older than a copy, so the copy is dropped."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    master = _hdr(rt, 0, gid)
    stale = dict(rt.workers[0].dsm.ship_unit(gid), version=0)
    rt.workers[1].transport.send(0, M_FETCH_REPLY, stale)
    rt.engine.run_until_idle()
    assert (master.state, master.version) == (ObjState.HOME, 1)
    assert rt.workers[0].dsm.stats.stale_installs == 1
    assert rows_hit(rt)["fetch_reply HOME drop"] == 1
    assert monitor.ok, monitor.summary()


def test_a_diff_at_a_grantee_whose_grant_is_in_flight_bounces():
    """Node 1's directory says it is x's home but no grant has landed:
    node 2's diff is bounced via the origin home, applied there, and
    acked once through the proxy."""
    rt, monitor, gid = _cluster([(2, [("read", "x", "v")])], nodes=3,
                                locality=True)
    writer = rt.workers[2].dsm
    for node in (1, 2):
        rt.workers[node].dsm.homes.set(gid, 1, 1)
    obj = writer.cache[gid]
    writer.write_check(None, obj, None)
    obj.fields[0] = 5
    writer._flush([gid], flush_home=False)       # to node 1, per its view
    rt.engine.run_until_idle()
    master = rt.workers[0].dsm.cache[gid]
    assert (master.header.version, master.fields) == (2, [5])
    assert rt.workers[1].dsm.stats.fwd_diffs == 1
    assert rt.workers[2].dsm._outstanding_acks == 0
    hits = rows_hit(rt)
    assert hits["diff VALID*|INVALID*|ABSENT bounce"] == 1
    assert hits["diff HOME apply_diff"] == 1
    assert monitor.ok, monitor.summary()
    with pytest.raises(ProtocolError, match=r"\(fetch_req, ABSENT\)"):
        # Node 1 holds no record of x and names itself its home: no row.
        rt.workers[2].transport.send(1, M_FETCH_REQ, {
            "gid": gid, "region": None, "required": 0})
        rt.engine.run_until_idle()


def _granted(rt, home, grantee, gid, event=ACK_GRANT):
    agents = rt.locality.agents
    assert agents[grantee].install_grant(
        agents[home].grant_out(gid, grantee), event)


def test_a_grant_over_a_twinned_replica_keeps_its_writes():
    """The grantee wrote its replica (a twin is present) when the
    master arrives: the write is merged back on top as a home write."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])], locality=True)
    dsm = rt.workers[1].dsm
    obj = dsm.cache[gid]
    dsm.write_check(None, obj, None)
    obj.fields[0] = 9
    assert obj.header.twin is not None
    _granted(rt, 0, 1, gid)
    assert (obj.header.state, obj.fields) == (ObjState.HOME, [9])
    assert gid in dsm._dirty_home and gid not in dsm._dirty
    assert dsm.stats.migrations_in == 1
    hits = rows_hit(rt)
    assert hits["grant.ack VALID*|INVALID*|ABSENT install_master"] == 1
    assert hits["grant_out HOME demote"] == 1
    rt.engine.run_until_idle()
    assert monitor.ok, monitor.summary()


def test_a_token_grant_installs_the_master():
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])], locality=True)
    _granted(rt, 0, 1, gid, TOKEN_GRANT)
    assert _hdr(rt, 1, gid).state == ObjState.HOME
    assert rt.workers[1].dsm.stats.pol_grant_installs == 1
    assert rows_hit(rt)[
        "grant.token VALID*|INVALID*|ABSENT install_master"] == 1
    assert monitor.ok, monitor.summary()


def test_a_grant_lost_with_its_grantee_goes_back_to_its_granter():
    """Recovery's re-grant: the granter, holding an invalid copy after
    its grant out, installs the grant it kept as the master again."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])], locality=True)
    dsm = rt.workers[0].dsm
    grant = rt.locality.agents[0].grant_out(gid, 1)
    assert _hdr(rt, 0, gid).state == ObjState.INVALID
    dsm.arrive(REGRANT, gid, grant)
    assert (_hdr(rt, 0, gid).state, _hdr(rt, 0, gid).version) == (
        ObjState.HOME, 1)
    assert rows_hit(rt)["regrant VALID*|INVALID*|ABSENT install_master"] == 1
    assert monitor.ok, monitor.summary()


@pytest.mark.parametrize("event", [PUSH, BCAST])
def test_pushes_over_invalid_fetching_and_valid_replicas(event):
    """A push is admitted over a clean replica it moves forward, with a
    prefetch in flight too; never with a demand waiter parked, nor over
    a twin."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    dsm = rt.workers[1].dsm
    hdr = dsm.cache[gid].header
    copy = rt.workers[0].dsm.ship_unit(gid)

    def push(version):
        return dsm.arrive(event, gid, dict(copy, version=version))

    assert push(2) and hdr.version == 2                       # VALID
    hdr.state = ObjState.INVALID
    assert push(3) and hdr.state == ObjState.VALID            # INVALID
    hdr.state = ObjState.INVALID
    dsm._fetch_targets[(gid, None)] = 0                       # prefetch
    assert push(4) and hdr.version == 4                       # +fetching
    hdr.state = ObjState.INVALID
    dsm._fetch_waiters[(gid, None)] = []                      # demand miss
    assert not push(5) and hdr.state == ObjState.INVALID
    del dsm._fetch_waiters[(gid, None)], dsm._fetch_targets[(gid, None)]
    hdr.state = ObjState.VALID
    dsm.write_check(None, dsm.cache[gid], None)
    assert not push(6) and hdr.version == 4                   # VALID+twin
    field = "pol_push_installs" if event == PUSH else "pol_bcast_installs"
    assert getattr(dsm.stats, field) == 3
    hits = rows_hit(rt)
    assert hits[f"{event} INVALID*|VALID|VALID+fetching install_replica"] == 3
    assert hits[f"{event} HOME|VALID*|INVALID*|ABSENT drop"] == 2
    assert monitor.ok, monitor.summary()


def test_a_fetch_at_the_old_home_is_forwarded():
    """After x moved to node 2, node 1 (whose view still says node 0)
    reads x: the old home forwards the fetch to the current home, which
    serves it."""
    rt, monitor, gid = _cluster([], nodes=3, locality=True)
    _granted(rt, 0, 2, gid)
    rt.workers[2].dsm.cache[gid].fields[0] = 3
    host = rt.workers[1]
    reader = ScriptThread(host, [("read", "x", "v")], "n1.late")
    host.start(reader)
    rt.engine.run_until_idle()
    assert reader.reads == [3]
    hits = rows_hit(rt)
    assert hits["fetch_req VALID*|INVALID*|ABSENT forward"] == 1
    assert hits["fetch_req HOME serve"] == 1
    assert monitor.ok, monitor.summary()


def test_a_grantees_own_flush_coming_back_is_folded():
    """Node 1 flushed a write of x and, before the diff reached node 0,
    was granted x with that flush folded in: the diff, forwarded back by
    the old home, is acked at the master's version, not re-applied."""
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])], locality=True)
    dsm = rt.workers[1].dsm
    obj = dsm.cache[gid]
    dsm.write_check(None, obj, None)
    obj.fields[0] = 4
    dsm._flush([gid], flush_home=False)          # the diff is on the wire
    _granted(rt, 0, 1, gid)
    assert obj.fields == [4]
    dsm.write_check(None, obj, None)
    obj.fields[0] = 6                            # a newer home write
    rt.engine.run_until_idle()
    assert obj.fields == [6] and dsm._outstanding_acks == 0
    hits = rows_hit(rt)
    assert hits["diff HOME fold"] == 1
    assert hits["diff VALID*|INVALID*|ABSENT forward"] == 1
    assert monitor.ok, monitor.summary()


def test_a_prefetched_unit_installs_when_fresh_and_drops_otherwise():
    """A bulk reply installs an invalid replica with the prefetch in
    flight; a unit already valid again (a push beat it) is dropped."""
    rt, monitor, gid = _cluster(
        [(1, [("read", "x", "v"), ("read", "y", "v")])],
        objects={"x": ("Box", 0), "y": ("Box", 0)}, locality=True)
    ygid = rt.gids["y"][0]
    dsm = rt.workers[1].dsm
    dsm.cache[gid].header.state = ObjState.INVALID
    for g in (gid, ygid):
        dsm._fetch_targets[(g, None)] = 0
    dsm.transport.send(0, M_LOC_BULK_FETCH, {"gids": [gid, ygid]})
    rt.engine.run_until_idle()
    assert dsm.cache[gid].header.state == ObjState.VALID
    assert dsm.stats.prefetch_units == 1 and not dsm._fetch_targets
    hits = rows_hit(rt)
    assert hits["bulk_unit INVALID* install_replica"] == 1
    assert hits["bulk_unit HOME|VALID*|INVALID*|ABSENT drop"] == 1
    assert monitor.ok, monitor.summary()


def test_common_rows_of_a_lock_hand_off():
    """Node 1 reads x, then takes the lock after node 0 wrote x under
    it: the token's notice invalidates the copy, and the re-read fetches
    the new value; a second writer's twinned copy is flushed first."""
    rt, monitor, gid = _cluster([
        (0, [("acquire", "L"), ("read", "y", "v"), ("read", "z", "v"),
             ("write", "x", "v", 1), ("release", "L")]),
        (1, [("read", "x", "v"), ("write", "x", "v", 2), ("acquire", "L"),
             ("read", "x", "v"), ("release", "L")]),
    ], objects={"x": ("Box", 0), "L": ("Box", 0), "y": ("Box", 1),
                "z": ("Box", 1)})
    hits = rows_hit(rt)
    assert hits["notice VALID+twin* flush_then_invalidate"] == 1
    assert hits[INSTALL] == 4
    assert rt.workers[1].dsm.stats.invalidations == 1
    assert rt.workers[0].dsm.cache[gid].fields == [2]  # the flushed write


def test_a_stale_clean_copy_is_invalidated():
    rt, monitor, gid = _cluster([
        (0, [("acquire", "L"), ("read", "y", "v"), ("write", "x", "v", 1),
             ("release", "L")]),
        (1, [("read", "x", "v"), ("acquire", "L"), ("release", "L")]),
    ], objects={"x": ("Box", 0), "L": ("Box", 0), "y": ("Box", 1)})
    assert rows_hit(rt)["notice VALID|VALID+fetching invalidate"] == 1
    assert _hdr(rt, 1, gid).state == ObjState.INVALID


def test_a_kill_sweep_adopts_and_reports_row_coverage():
    from repro.check import run_check
    report = run_check(app="tsp", seeds=1, kill="random", seed=2)
    assert report.ok, report.summary()
    reached = report.rows_reached
    assert reached["adopt VALID*|INVALID*|ABSENT install_master"] >= 1
    assert reached["notice HOME|VALID*|INVALID*|ABSENT drop"] >= 1
    assert reached["diff HOME apply_diff"] >= 1
    summary = report.summary()
    assert f"rows reached        : {len(reached)} of {len(TABLE)}" in summary
    assert "fetch_reply HOME drop" in summary  # unreached, named


# ---------------------------------------------------------------------------
# The monitor judges the engine by the table
# ---------------------------------------------------------------------------
def _admit(dsm, event, state, like):
    """Mutate one engine's dispatch (not the table): ``(event, state)``
    takes the rows of ``(event, like)``."""
    def code(s):
        return s[0] << 2 | s[1] << 1 | s[2]
    rows = list(dsm._rows[event])
    rows[code(state)] = rows[code(like)]
    dsm._rows = dict(dsm._rows, **{event: rows})


def test_monitor_flags_an_engine_that_pushes_over_a_twinned_replica():
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    dsm = rt.workers[1].dsm
    _admit(dsm, PUSH, (ObjState.VALID, True, False),
           (ObjState.VALID, False, False))
    dsm.write_check(None, dsm.cache[gid], None)
    copy = rt.workers[0].dsm.ship_unit(gid)
    assert dsm.arrive(PUSH, gid, dict(copy, version=2))
    assert [v.kind for v in monitor.violations] == ["transition"]
    assert "pol.push took" in monitor.violations[0].detail
    assert "from VALID+twin to VALID" in monitor.violations[0].detail


def test_monitor_flags_an_engine_that_installs_a_grant_over_home():
    rt, monitor, gid = _cluster([(1, [("read", "x", "v")])])
    dsm = rt.workers[0].dsm
    _admit(dsm, ACK_GRANT, (ObjState.HOME, False, False),
           (ObjState.VALID, False, False))
    dsm.arrive(ACK_GRANT, gid, dict(dsm.ship_unit(gid), epoch=1))
    assert "transition" in [v.kind for v in monitor.violations]
    assert any("from HOME to HOME" in v.detail for v in monitor.violations)


# ---------------------------------------------------------------------------
# The table against the tree
# ---------------------------------------------------------------------------
def test_rows_are_well_formed():
    names = [row.name for row in TABLE]
    assert len(names) == len(set(names))
    batched = {"apply_diff", "fold", "forward", "bounce", "invalidate",
               "flush_then_invalidate", "drop"}
    for row in TABLE:
        # Diff entries and notices run their effects at their site.
        assert row.event not in (DIFF, NOTICE) or row.effect in batched
        assert row.counter is None or hasattr(DsmStats(), row.counter)
    for pair, indices in rows_by_pair().items():
        # The last row a pair tries takes it whatever its guard says, or
        # every row is guarded (an unguarded miss is a ProtocolError).
        guarded = [TABLE[i].guard is not None for i in indices]
        assert guarded.count(False) <= 1 and (
            not guarded[-1] or all(guarded)), pair


@pytest.mark.parametrize("mode", ["scalar", "vector"])
def test_every_engine_binds_every_guard_and_effect(mode):
    """Every guard; every effect ``arrive`` runs (diff entries and
    notices batch at their sites).  Only HLRC defers a fetch."""
    rt = ScriptRuntime(1, BOX, {}, [], config=DsmConfig(timestamp_mode=mode))
    dsm = rt.workers[0].dsm
    for row in TABLE:
        assert row.guard is None or callable(getattr(dsm, row.guard))
        if row.event not in (DIFF, NOTICE):
            assert (hasattr(dsm, "_fx_" + row.effect)
                    or (row.effect == "defer" and mode == "scalar")), row.name


def test_design_md_prints_the_table():
    text = (ROOT / "DESIGN.md").read_text()
    m = re.search(r"<!-- transitions:begin -->\n(.*?)\n<!-- transitions:end -->",
                  text, re.S)
    assert m, "DESIGN.md lost its transition-table markers"
    assert m.group(1) == render(), \
        "DESIGN.md's table differs from repro.dsm.transitions.render()"


def test_every_row_is_named_by_a_coverage_assertion():
    text = "\n".join(p.read_text() for p in (ROOT / "tests").glob("test_*.py"))
    name = r"[A-Za-z*+|]+ [a-z_+]+"
    named = set(re.findall(rf'"([a-z_.]+ {name})"', text))
    named |= {n.replace("{event}", e) for n in re.findall(
        rf'f"(\{{event\}} {name})"', text) for e in (PUSH, BCAST)}
    missing = [row.name for row in TABLE if row.name not in named]
    assert not missing, f"rows no test names: {missing}"
