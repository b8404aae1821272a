"""Unit tests for the DSM building blocks (no protocol engine)."""

import pytest

from repro.dsm import (
    ClassIdRegistry,
    ClassSpec,
    GidAllocator,
    LockRequest,
    LockToken,
    Notice,
    NoticeTable,
    SerializationError,
    attach_header,
    home_of,
)
from repro.dsm.diffs import apply_diff, compute_diff, make_twin
from repro.dsm.objectstate import (DSMHeader, ObjState, RegionInfo, Unit,
                                   split_key, unit_key)
from repro.dsm.serialization import (
    K_DOUBLE,
    K_INT,
    K_REF,
    K_STR,
    deserialize_any,
    deserialize_array,
    deserialize_into,
    serialize_any,
    serialize_array,
    serialize_object,
)
from repro.dsm.hlrc import WriterNoticeTable, advance, covers
from repro.heap import ArrayObj


# ---------------------------------------------------------------------------
# Gids and homes
# ---------------------------------------------------------------------------
def test_gid_encodes_home():
    alloc = GidAllocator(5)
    gid = alloc.allocate()
    assert home_of(gid) == 5
    assert alloc.allocate() != gid


def test_gids_unique_across_nodes():
    a, b = GidAllocator(0), GidAllocator(1)
    gids = {a.allocate() for _ in range(100)} | {b.allocate() for _ in range(100)}
    assert len(gids) == 200


def test_home_of_rejects_null_gid():
    with pytest.raises(ValueError):
        home_of(0)


def test_class_id_registry_deterministic():
    r1 = ClassIdRegistry(["B", "A", "C"])
    r2 = ClassIdRegistry(["C", "A", "B"])
    for name in ("A", "B", "C"):
        assert r1.class_id_for(name) == r2.class_id_for(name)
    assert r1.class_name_for(r1.class_id_for("B")) == "B"


def test_class_id_registry_unknown_raises():
    reg = ClassIdRegistry(["A"])
    with pytest.raises(KeyError):
        reg.class_id_for("Nope")
    with pytest.raises(KeyError):
        reg.class_name_for(99)


# ---------------------------------------------------------------------------
# Vector clocks: the HLRC baseline's per-writer intervals (dsm.hlrc)
# ---------------------------------------------------------------------------
def test_vector_clock_tick_and_merge():
    a = {}
    advance(a, 1, 1); advance(a, 1, 2); advance(a, 2, 1)
    b = {}
    advance(b, 2, 1); advance(b, 2, 2); advance(b, 3, 1)
    for writer, interval in b.items():
        advance(a, writer, interval)
    assert a == {1: 2, 2: 2, 3: 1}


def test_vector_clock_dominates():
    a, b = {1: 2, 2: 1}, {1: 1}
    assert covers(a, b)
    assert not covers(b, a)
    assert covers(a, dict(a)) and covers(a, {})


def test_vector_clock_never_decreases():
    a = {1: 5}
    assert not advance(a, 1, 3)
    assert a == {1: 5}


def test_vector_clock_wire_size_grows_with_entries():
    """A token ships one notice per writer of a unit under HLRC."""
    many, one = WriterNoticeTable(), WriterNoticeTable()
    for writer in range(10):
        many.add(Notice(7, 1, writer))
    one.add(Notice(7, 1, 1))
    size = lambda t: sum(n.wire_size() for n in t.delta_since({}))
    assert size(many) == 10 * size(one) > 0


# ---------------------------------------------------------------------------
# Write notices
# ---------------------------------------------------------------------------
def test_bounded_table_keeps_latest_only():
    t = NoticeTable()
    assert t.add(Notice(7, 1))
    assert t.add(Notice(7, 3))
    assert not t.add(Notice(7, 2))  # stale
    assert t.required_scalar(7) == 3
    assert t.stored_notices == 1


def test_full_mode_log_grows_without_bound():
    """What HLRC's uncollected log would hold grows with every notice;
    the table itself keeps one per unit."""
    t = NoticeTable()
    for v in range(100):
        t.add(Notice(7, v + 1))
    t.add(Notice(7, 50))  # stale: still logged
    assert t.logged == 101 and t.logged_bytes == 101 * 12
    assert t.stored_notices == 1
    assert t.logged_bytes > t.storage_bytes() == 12


def test_delta_since_updates_snapshot():
    t = NoticeTable()
    t.add(Notice(1, 5))
    t.add(Notice(2, 2))
    seen = {}
    delta = t.delta_since(seen)
    assert {(n.gid, n.version) for n in delta} == {(1, 5), (2, 2)}
    # Second call sends nothing new.
    assert t.delta_since(seen) == []
    t.add(Notice(1, 6))
    delta = t.delta_since(seen)
    assert [(n.gid, n.version) for n in delta] == [(1, 6)]


def test_vector_notices_track_per_writer():
    t = WriterNoticeTable()
    t.add(Notice(1, 3, writer=0))
    t.add(Notice(1, 2, writer=1))
    assert t.required(1) == {0: 3, 1: 2}
    seen = {}
    delta = t.delta_since(seen)
    assert len(delta) == 2
    assert t.delta_since(seen) == []


# ---------------------------------------------------------------------------
# Lock tokens
# ---------------------------------------------------------------------------
def test_lock_queue_priority_then_fifo():
    token = LockToken(1)
    token.enqueue(LockRequest(0, 10, priority=5))
    token.enqueue(LockRequest(0, 11, priority=9))
    token.enqueue(LockRequest(0, 12, priority=5))
    order = [token.pop_next().thread_id for _ in range(3)]
    assert order == [11, 10, 12]


def test_lock_wait_notify_moves_entries():
    token = LockToken(1)
    token.park_waiter(LockRequest(0, 10, restore_count=3))
    token.park_waiter(LockRequest(1, 11))
    assert token.pop_next() is None
    assert token.notify_one()
    req = token.pop_next()
    assert req.thread_id == 10 and req.restore_count == 3
    token.notify_all()
    assert token.pop_next().thread_id == 11
    assert not token.notify_one()


def test_token_wire_size_tracks_queues():
    empty = LockToken(1).wire_size()
    token = LockToken(1)
    for i in range(5):
        token.enqueue(LockRequest(0, i))
    assert token.wire_size() > empty


# ---------------------------------------------------------------------------
# Serialization & diffs (with a fake resolver)
# ---------------------------------------------------------------------------
class FakeObj:
    """Stands in for a heap Obj: fields + class_name + header."""

    def __init__(self, class_name, fields):
        self.class_name = class_name
        self.fields = fields
        self.header = None


class FakeResolver:
    def __init__(self):
        self.registry = ClassIdRegistry(["Point", "Node", "int[]"])
        self.objects = {}
        self.next_gid = 1

    def gid_for(self, ref):
        hdr = attach_header(ref)
        if not hdr.gid:
            hdr.gid = (1 << 40) | self.next_gid
            self.next_gid += 1
            self.objects[hdr.gid] = ref
        return hdr.gid

    def class_id_for(self, name):
        return self.registry.class_id_for(name)

    def class_name_for(self, cid):
        return self.registry.class_name_for(cid)

    def replica_for(self, gid, class_name):
        obj = self.objects.get(gid)
        if obj is None:
            obj = FakeObj(class_name, [])
            self.objects[gid] = obj
        return obj


POINT_SPEC = ClassSpec("Point", (K_INT, K_DOUBLE, K_STR, K_REF))


def test_object_serialize_roundtrip():
    res = FakeResolver()
    other = FakeObj("Point", [1, 1.0, None, None])
    obj = FakeObj("Point", [42, 3.25, "hi", other])
    data = serialize_object(obj, POINT_SPEC, res)
    out = FakeObj("Point", [0, 0.0, None, None])
    deserialize_into(out, POINT_SPEC, data, res)
    assert out.fields[0] == 42
    assert out.fields[1] == 3.25
    assert out.fields[2] == "hi"
    assert out.fields[3] is other  # resolved through the gid


def test_serialize_null_ref_and_null_str():
    res = FakeResolver()
    obj = FakeObj("Point", [0, 0.0, None, None])
    data = serialize_object(obj, POINT_SPEC, res)
    out = FakeObj("Point", [9, 9.9, "x", obj])
    deserialize_into(out, POINT_SPEC, data, res)
    assert out.fields == [0, 0.0, None, None]


def test_serialize_layout_mismatch_rejected():
    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0])  # too few fields
    with pytest.raises(SerializationError):
        serialize_object(obj, POINT_SPEC, res)


# The slot ranges the array routines are run over: the whole object (the
# default) and an interior slice [lo, hi) — a §4.3 array region.
WHOLE = (0, None)


def test_int_array_roundtrip():
    res = FakeResolver()
    arr = ArrayObj("int", 5)
    arr.data = [1, -2, 3, 0, 7]
    data = serialize_array(arr, res)
    out = ArrayObj("int", 0)
    deserialize_any(out, None, data, res)
    assert out.data == [1, -2, 3, 0, 7]


@pytest.mark.parametrize("lo,hi", [WHOLE, (10, 20)], ids=["whole", "slice"])
def test_double_array_range_roundtrip(lo, hi):
    """A slice installs in place and touches nothing outside [lo, hi);
    the whole array is the same call with the default range."""
    res = FakeResolver()
    arr = ArrayObj("double", 50)
    arr.data = [float(i) for i in range(50)]
    data = serialize_any(arr, None, res, lo, hi)
    out = ArrayObj("double", 50)
    deserialize_any(out, None, data, res, lo)
    assert out.data[lo:hi] == arr.data[lo:hi]
    if (lo, hi) != WHOLE:
        assert out.data[10:20] == [float(i) for i in range(10, 20)]
        assert out.data[0] == 0.0 and out.data[20] == 0.0
    assert len(out.data) == 50


def test_ref_array_roundtrip_creates_stubs():
    res = FakeResolver()
    a = FakeObj("Point", [1, 1.0, None, None])
    arr = ArrayObj("Point", 2)
    arr.data = [a, None]
    data = serialize_array(arr, res)
    out = ArrayObj("Point", 0)
    deserialize_any(out, None, data, res)
    assert out.data[0] is a
    assert out.data[1] is None


def test_huge_int_rejected():
    res = FakeResolver()
    arr = ArrayObj("int", 1)
    arr.data = [1 << 70]
    with pytest.raises(SerializationError):
        serialize_array(arr, res)


# ---------------------------------------------------------------------------
# Twins & diffs
# ---------------------------------------------------------------------------
def test_diff_only_changed_fields():
    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0, "a", None])
    twin = make_twin(obj)
    obj.fields[0] = 99
    diff = compute_diff(obj, twin, POINT_SPEC, res)
    assert diff is not None
    master = FakeObj("Point", [1, 2.0, "a", None])
    n = apply_diff(master, POINT_SPEC, diff, res)
    assert n == 1
    assert master.fields == [99, 2.0, "a", None]


def test_no_change_yields_none():
    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0, "a", None])
    twin = make_twin(obj)
    assert compute_diff(obj, twin, POINT_SPEC, res) is None
    # Likewise a slot range whose only writes fall outside it.
    arr = ArrayObj("int", 64)
    twin = make_twin(arr, 0, 32)
    arr.data[40] = 7
    assert compute_diff(arr, twin, None, res, 0, 32) is None


def test_diff_multiple_writers_merge_disjoint_fields():
    res = FakeResolver()
    master = FakeObj("Point", [0, 0.0, None, None])
    # Writer A changes field 0; writer B changes field 1.
    wa = FakeObj("Point", [0, 0.0, None, None])
    ta = make_twin(wa); wa.fields[0] = 5
    wb = FakeObj("Point", [0, 0.0, None, None])
    tb = make_twin(wb); wb.fields[1] = 7.5
    apply_diff(master, POINT_SPEC, compute_diff(wa, ta, POINT_SPEC, res), res)
    apply_diff(master, POINT_SPEC, compute_diff(wb, tb, POINT_SPEC, res), res)
    assert master.fields == [5, 7.5, None, None]


@pytest.mark.parametrize("elem,n,lo,hi,writes,in_diff", [
    ("double", 4) + WHOLE + ({2: 9.5}, 1),
    ("int", 100, 32, 64, {40: 7, 63: 9, 10: 99}, 2),
], ids=["whole", "slice"])
def test_array_diff_roundtrip(elem, n, lo, hi, writes, in_diff):
    """Diff indices are relative to ``lo``; a write outside [lo, hi) is
    not in the diff of that range."""
    res = FakeResolver()
    arr = ArrayObj(elem, n)
    twin = make_twin(arr, lo, hi)
    for i, value in writes.items():
        arr.data[i] = value
    diff = compute_diff(arr, twin, None, res, lo, hi)
    master = ArrayObj(elem, n)
    assert apply_diff(master, None, diff, res, lo, hi) == in_diff
    expected = ArrayObj(elem, n).data
    for i, value in writes.items():
        if lo <= i < (n if hi is None else hi):
            expected[i] = value
    assert master.data == expected


def test_diff_ref_field_ships_gid():
    res = FakeResolver()
    target = FakeObj("Point", [3, 0.0, None, None])
    obj = FakeObj("Point", [0, 0.0, None, None])
    twin = make_twin(obj)
    obj.fields[3] = target
    diff = compute_diff(obj, twin, POINT_SPEC, res)
    master = FakeObj("Point", [0, 0.0, None, None])
    apply_diff(master, POINT_SPEC, diff, res)
    assert master.fields[3] is target
    assert target.header.gid != 0  # got promoted during serialization


def test_twin_length_mismatch_rejected():
    res = FakeResolver()
    arr = ArrayObj("int", 3)
    twin = make_twin(arr)
    arr.data.append(5)  # illegal resize
    with pytest.raises(SerializationError):
        compute_diff(arr, twin, None, res)


def test_object_stale_twin_rejected():
    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0, "a", None])
    stale = make_twin(obj)[:-1]  # a twin from a different layout
    with pytest.raises(SerializationError, match="twin length mismatch"):
        compute_diff(obj, stale, POINT_SPEC, res)


def test_write_then_revert_yields_empty_diff():
    """A slot written and written back equals its twin: no diff at all
    (write traffic scales with *net* modifications)."""
    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0, "a", None])
    twin = make_twin(obj)
    obj.fields[0] = 99
    obj.fields[0] = 1  # reverted before the release
    assert compute_diff(obj, twin, POINT_SPEC, res) is None


def test_diff_entry_count_matches_encoding():
    from repro.dsm.diffs import diff_entry_count

    res = FakeResolver()
    obj = FakeObj("Point", [1, 2.0, "a", None])
    twin = make_twin(obj)
    obj.fields[0] = 5
    obj.fields[1] = 6.5
    diff = compute_diff(obj, twin, POINT_SPEC, res)
    assert diff_entry_count(diff) == 2


def test_overlapping_diffs_apply_in_timestamp_order():
    """Two writers racing on the SAME slot: the home applies diffs in
    arrival (timestamp) order, so the later diff wins — and reversing
    the order reverses the winner.  This is exactly the LRC guarantee:
    racy writes are ordered by the home's serialization, nothing more."""
    res = FakeResolver()
    wa = FakeObj("Point", [0, 0.0, None, None])
    ta = make_twin(wa); wa.fields[0] = 5
    wb = FakeObj("Point", [0, 0.0, None, None])
    tb = make_twin(wb); wb.fields[0] = 9
    da = compute_diff(wa, ta, POINT_SPEC, res)
    db = compute_diff(wb, tb, POINT_SPEC, res)

    m1 = FakeObj("Point", [0, 0.0, None, None])
    apply_diff(m1, POINT_SPEC, da, res)
    apply_diff(m1, POINT_SPEC, db, res)
    assert m1.fields[0] == 9

    m2 = FakeObj("Point", [0, 0.0, None, None])
    apply_diff(m2, POINT_SPEC, db, res)
    apply_diff(m2, POINT_SPEC, da, res)
    assert m2.fields[0] == 5


@pytest.mark.parametrize("lo,hi,short", [
    WHOLE + (40,), (32, 64, 40), (32, 48, 64)],
    ids=["whole", "slice", "past-hi"])
def test_diff_index_out_of_range_rejected(lo, hi, short):
    """A diff may name no slot past the master's end, nor past ``hi``."""
    res = FakeResolver()
    big = ArrayObj("int", 64)
    twin = make_twin(big, lo, 64)
    big.data[60] = 1
    diff = compute_diff(big, twin, None, res, lo, 64)
    master = ArrayObj("int", short)  # shorter than the diff expects
    with pytest.raises(SerializationError, match="out of range"):
        apply_diff(master, None, diff, res, lo, hi)


def _malformed_cases():
    """(label, fresh target, install(target, data), good payload) for every
    payload decoder: bulk int/double arrays, per-element ref arrays,
    instances, diffs."""
    res = FakeResolver()
    other = FakeObj("Point", [1, 1.0, None, None])
    obj = FakeObj("Point", [42, 3.25, "hi", other])
    blank = lambda: FakeObj("Point", [0, 0.0, None, None])
    cases = []
    for elem, values in (("int", [1, -2, 3]), ("double", [0.5, 2.0]),
                         ("Point", [other, None])):
        arr = ArrayObj(elem, 0)
        arr.data = list(values)
        cases.append((f"{elem}[]", lambda elem=elem, n=len(values): ArrayObj(elem, n),
                      lambda out, data: deserialize_array(out, data, res),
                      serialize_array(arr, res)))
    cases.append(("instance", blank,
                  lambda out, data: deserialize_into(out, POINT_SPEC, data, res),
                  serialize_object(obj, POINT_SPEC, res)))
    twin = make_twin(obj)
    obj.fields[0], obj.fields[2] = 7, "changed"
    cases.append(("diff", blank,
                  lambda out, data: apply_diff(out, POINT_SPEC, data, res),
                  compute_diff(obj, twin, POINT_SPEC, res)))
    return cases


_MALFORMED = _malformed_cases()


@pytest.mark.parametrize("label,fresh,install,good", _MALFORMED,
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_payloads_fail_typed_and_install_nothing(
        label, fresh, install, good):
    """Short input raises SerializationError (never a raw struct.error or
    IndexError) at every cut point, trailing bytes are not ignored, and a
    rejected payload leaves its target as it was."""
    def slots(out):
        return list(out.data if isinstance(out, ArrayObj) else out.fields)

    out = fresh()
    untouched = slots(out)
    install(out, good)
    assert slots(out) != untouched          # the good payload does install
    for bad, why in [(good[:cut], "truncated") for cut in range(len(good))] \
            + [(good + b"xx", "after end of payload")]:
        out = fresh()
        with pytest.raises(SerializationError, match=why):
            install(out, bad)
        assert slots(out) == untouched


# ---------------------------------------------------------------------------
# Coherency units: one record, one key (§4.3 extension)
# ---------------------------------------------------------------------------
def test_unit_keys_pack_and_unpack():
    assert unit_key(7) == 7 and split_key(7) == (7, None)
    assert unit_key(7, 0) == (7, 0) and split_key((7, 0)) == (7, 0)
    assert split_key(unit_key(9, 3)) == (9, 3)


def test_header_and_region_records_are_one_kind_of_record():
    hdr = DSMHeader("Point")
    reg = RegionInfo(100, 32, ObjState.INVALID, 0)
    for rec in (hdr, reg.units[0]):
        assert isinstance(rec, Unit)
        assert rec.twin is None and rec.version == 0
        rec.state, rec.version, rec.twin = ObjState.VALID, 4, [1]
    assert hdr.state == reg.units[0].state == ObjState.VALID
    assert reg.units[1].state == ObjState.INVALID  # one record per region


def test_region_info_bounds_and_mapping():
    reg = RegionInfo(100, 32, ObjState.INVALID, 0)
    assert len(reg.units) == 4
    assert reg.region_of(0) == 0
    assert reg.region_of(31) == 0
    assert reg.region_of(32) == 1
    assert reg.region_of(127) == 3
    assert reg.region_of(128) is None and reg.region_of(-1) is None
    assert reg.bounds(0, 100) == (0, 32)
    assert reg.bounds(3, 100) == (96, 100)  # trailing partial region


# ---------------------------------------------------------------------------
# Format pins: the bytes on the wire, fixed across refactors
# ---------------------------------------------------------------------------
def _pinned_heap():
    res = FakeResolver()
    other = FakeObj("Point", [1, 1.0, None, None])
    obj = FakeObj("Point", [42, 3.25, "hi", other])
    ints = ArrayObj("int", 6)
    ints.data = [1, -2, 3, 0, 7, 1 << 40]
    refs = ArrayObj("Point", 3)
    refs.data = [other, None, obj]
    return res, other, obj, ints, refs


def test_serialization_bytes_pinned():
    res, _other, obj, ints, refs = _pinned_heap()
    assert serialize_any(obj, POINT_SPEC, res).hex() == (
        "000000000000002a" "400a000000000000" "01000000026869"
        "000001000000000100000002")
    assert serialize_any(ints, None, res).hex() == (
        "00000006" "0000000000000001" "fffffffffffffffe" "0000000000000003"
        "0000000000000000" "0000000000000007" "0000010000000000")
    assert serialize_any(refs, None, res).hex() == (
        "00000003" "000001000000000100000002" "000000000000000000000000"
        "000001000000000200000002")
    assert serialize_any(ints, None, res, 2, 5).hex() == (
        "00000003" "0000000000000003" "0000000000000000" "0000000000000007")


def test_diff_bytes_pinned():
    res, other, obj, ints, refs = _pinned_heap()
    res.gid_for(other)
    res.gid_for(obj)
    twin = make_twin(obj)
    obj.fields[0] = 7
    obj.fields[2] = None
    obj.fields[3] = None
    assert compute_diff(obj, twin, POINT_SPEC, res).hex() == (
        "00000003" "00000000" "0000000000000007" "00000002" "00"
        "00000003" "000000000000000000000000")
    twin = make_twin(ints)
    ints.data[1] = 5
    ints.data[4] = -1
    assert compute_diff(ints, twin, None, res).hex() == (
        "00000002" "00000001" "0000000000000005"
        "00000004" "ffffffffffffffff")
    twin = make_twin(refs)
    refs.data[1] = other
    refs.data[0] = None
    assert compute_diff(refs, twin, None, res).hex() == (
        "00000002" "00000000" "000000000000000000000000"
        "00000001" "000001000000000100000002")
    # An interior slice: indices are relative to lo, and the write at
    # [1] (outside [2, 5)) is not in it.
    _res, _other, _obj, ints, _refs = _pinned_heap()
    twin = make_twin(ints, 2, 5)
    ints.data[1] = 5
    ints.data[4] = -1
    ints.data[2] = 9
    assert compute_diff(ints, twin, None, res, 2, 5).hex() == (
        "00000002" "00000000" "0000000000000009"
        "00000002" "ffffffffffffffff")


def test_whole_array_is_the_slice_zero_to_len():
    """A whole array and its slice [0, len) encode identically — which
    is what lets one serializer and one differ serve both unit kinds."""
    res, _other, _obj, ints, refs = _pinned_heap()
    for arr in (ints, refs):
        n = len(arr.data)
        assert serialize_any(arr, None, res) \
            == serialize_any(arr, None, res, 0, n)
        twin = make_twin(arr)
        assert twin == make_twin(arr, 0, n)
        arr.data[1], arr.data[2] = arr.data[2], arr.data[0]
        assert compute_diff(arr, twin, None, res) \
            == compute_diff(arr, twin, None, res, 0, n) is not None
