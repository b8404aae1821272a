"""Property-based tests (hypothesis) on core data structures and the
end-to-end coherence guarantee."""

import collections
import math
import operator
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings, strategies as st

# Wall-clock varies a lot on shared CI machines (and these tests run a
# whole simulated cluster); keep hypothesis focused on inputs, not time.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

import struct
from unittest import mock

import pytest

from repro.dsm import ClassSpec, LockRequest, LockToken, Notice, NoticeTable
from repro.dsm.hlrc import WriterNoticeTable, advance, covers
from repro.dsm import diffs, serialization
from repro.dsm.diffs import apply_diff, compute_diff, make_twin
from repro.dsm.serialization import (
    K_DOUBLE, K_INT, K_REF, K_STR, SerializationError, Writer, deserialize_array,
    deserialize_into, kind_of_type, serialize_array, serialize_object,
    write_value,
)
from repro.heap import ArrayObj, Obj
from repro.jvm.bytecode import BRANCHES, Instr, Op, branch_target, retarget
from repro.jvm.cfg import branch_targets, invoke_effect, stack_depths
from repro.jvm.interpreter import java_ddiv, java_idiv, java_irem

# ---------------------------------------------------------------------------
# Java arithmetic semantics
# ---------------------------------------------------------------------------
ints = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)


@given(a=ints, b=ints.filter(lambda x: x != 0))
def test_java_division_identity(a, b):
    q = java_idiv(a, b)
    r = java_irem(a, b)
    assert q * b + r == a
    assert abs(r) < abs(b)
    # Remainder sign follows the dividend (JLS 15.17.3).
    assert r == 0 or (r > 0) == (a > 0)


@given(a=ints, b=ints.filter(lambda x: x != 0))
def test_java_division_truncates_toward_zero(a, b):
    assert java_idiv(a, b) == int(a / b) if abs(a) < 2**52 else True


@given(a=st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_java_ddiv_by_zero_never_raises(a):
    out = java_ddiv(a, 0.0)
    assert math.isnan(out) or math.isinf(out)


@given(a=st.one_of(ints, st.floats()), b=st.one_of(ints, st.floats()))
def test_java_ddiv_converts_a_mixed_operand_like_float(a, b):
    """DIV hands ``_ddiv`` its operands as they are; until the semantics
    table it passed ``float(x), float(y)``."""
    got, want = java_ddiv(a, b), java_ddiv(float(a), float(b))
    assert (got == want and math.copysign(1, got) == math.copysign(1, want)
            ) or (got != got and want != want)


# ---------------------------------------------------------------------------
# Vector clocks: the HLRC baseline's per-writer intervals (dsm.hlrc)
# ---------------------------------------------------------------------------
clock_entries = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=100),
    max_size=6,
)


def _merged(*vectors):
    """Pointwise max, the way a home's applied intervals accumulate."""
    out = {}
    for vector in vectors:
        for writer, interval in vector.items():
            advance(out, writer, interval)
    return out


@given(a=clock_entries, b=clock_entries)
def test_vector_clock_merge_commutative(a, b):
    assert _merged(a, b) == _merged(b, a)


@given(a=clock_entries)
def test_vector_clock_merge_idempotent(a):
    assert _merged(a, a) == _merged(a) == a


@given(a=clock_entries, b=clock_entries)
def test_vector_clock_merge_dominates_both(a, b):
    x = _merged(a, b)
    assert covers(x, a)
    assert covers(x, b)


@given(a=clock_entries, b=clock_entries, c=clock_entries)
def test_vector_clock_merge_associative(a, b, c):
    assert _merged(_merged(a, b), c) == _merged(a, _merged(b, c))


# ---------------------------------------------------------------------------
# Notice tables
# ---------------------------------------------------------------------------
@given(versions=st.lists(st.integers(min_value=1, max_value=1000),
                         min_size=1, max_size=50))
def test_bounded_notice_table_keeps_max(versions):
    t = NoticeTable()
    for v in versions:
        t.add(Notice(42, v))
    assert t.required_scalar(42) == max(versions)
    assert t.stored_notices == 1


@given(batch=st.lists(
    st.tuples(st.integers(min_value=1, max_value=5),
              st.integers(min_value=1, max_value=100)),
    min_size=1, max_size=40,
))
def test_notice_delta_never_resends(batch):
    t = NoticeTable()
    seen = {}
    sent = {}
    for gid, v in batch:
        t.add(Notice(gid, v))
        for n in t.delta_since(seen):
            # A delta entry must be strictly newer than anything
            # previously delivered for that gid.
            assert n.version > sent.get(n.gid, 0)
            sent[n.gid] = n.version
    # After draining, the snapshot equals the table.
    assert t.delta_since(seen) == []
    for gid, v in batch:
        assert seen[gid] == t.required_scalar(gid)


@given(a=clock_entries, b=clock_entries)
def test_vector_clock_dominance_antisymmetric(a, b):
    if covers(a, b) and covers(b, a):
        assert a == b


@given(a=clock_entries, ticks=st.lists(
    st.integers(min_value=0, max_value=8), max_size=20))
def test_vector_clock_tick_strictly_monotonic(a, ticks):
    """Each flush is a writer's next interval: its notice advances that
    writer's entry by one, and a node stores one notice per writer."""
    x = dict(a)
    t = WriterNoticeTable()
    for writer, interval in a.items():
        t.add(Notice(7, interval, writer))
    for tid in ticks:
        before = x.get(tid, 0)
        assert advance(x, tid, before + 1) and x[tid] == before + 1
        assert t.add(Notice(7, before + 1, tid))
    assert t.required(7) == x and t.stored_notices == len(x)


@given(a=clock_entries, tid=st.integers(min_value=0, max_value=8),
       value=st.integers(min_value=0, max_value=100))
def test_vector_clock_set_never_decreases(a, value, tid):
    x = dict(a)
    before = x.get(tid, 0)
    assert advance(x, tid, value) == (value > before)
    assert x.get(tid, 0) == max(before, value)


@given(batch=st.lists(
    st.tuples(st.integers(min_value=1, max_value=4),    # gid
              st.integers(min_value=0, max_value=3),    # writer
              st.integers(min_value=1, max_value=50)),  # interval
    min_size=1, max_size=40,
))
def test_bounded_vector_notices_one_per_gid_writer(batch):
    """HLRC's per-writer storage: at most one notice per (CU, writer)."""
    t = WriterNoticeTable()
    for gid, writer, interval in batch:
        t.add(Notice(gid, interval, writer))
    pairs = {(gid, w) for gid, w, _ in batch}
    assert t.stored_notices == len(pairs)
    for gid, writer in pairs:
        best = max(i for g, w, i in batch if (g, w) == (gid, writer))
        assert t.required(gid)[writer] == best


@given(batch=st.lists(
    st.tuples(st.integers(min_value=1, max_value=4),
              st.integers(min_value=1, max_value=50)),
    min_size=1, max_size=40,
))
def test_full_mode_log_grows_per_add(batch):
    """HLRC's uncollected log would hold every notice (the storage cost
    MTS's bounded table eliminates); the table counts it alongside."""
    t = NoticeTable()
    for gid, v in batch:
        t.add(Notice(gid, v))
    assert t.logged == len(batch)
    assert t.logged_bytes == len(batch) * Notice(0, 0).wire_size() > 0
    assert t.stored_notices == len({gid for gid, _ in batch})


@given(batch=st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=1, max_value=30)),
    min_size=1, max_size=30,
))
def test_vector_delta_never_resends(batch):
    t = WriterNoticeTable()
    seen = {}
    sent = {}
    for gid, writer, interval in batch:
        t.add(Notice(gid, interval, writer))
        for n in t.delta_since(seen):
            assert n.version > sent.get((n.gid, n.writer), 0)
            sent[(n.gid, n.writer)] = n.version
    assert t.delta_since(seen) == []


@given(versions=st.lists(st.integers(min_value=1, max_value=100),
                         min_size=1, max_size=30),
       gid=st.integers(min_value=1, max_value=3))
def test_add_all_returns_exactly_advancing_notices(versions, gid):
    t = NoticeTable()
    advanced = t.add_all(Notice(gid, v) for v in versions)
    best = 0
    expect = []
    for v in versions:
        if v > best:
            expect.append(v)
            best = v
    assert [n.version for n in advanced] == expect


# ---------------------------------------------------------------------------
# Lock queues
# ---------------------------------------------------------------------------
@given(reqs=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),   # node
              st.integers(min_value=1, max_value=10)), # priority
    min_size=1, max_size=20,
))
def test_lock_queue_priority_then_fifo_invariant(reqs):
    token = LockToken(1)
    for i, (node, prio) in enumerate(reqs):
        token.enqueue(LockRequest(node, thread_id=i, priority=prio))
    out = []
    while True:
        r = token.pop_next()
        if r is None:
            break
        out.append(r)
    # Priorities non-increasing; FIFO (by seq) within equal priority.
    for a, b in zip(out, out[1:]):
        assert a.priority > b.priority or (
            a.priority == b.priority and a.seq < b.seq
        )
    assert len(out) == len(reqs)


# ---------------------------------------------------------------------------
# Serialization and diffs
# ---------------------------------------------------------------------------
class _FakeObj:
    def __init__(self, fields):
        self.class_name = "T"
        self.fields = fields
        self.header = None


class _NullResolver:
    def gid_for(self, ref):  # pragma: no cover - no refs generated
        raise AssertionError

    def class_id_for(self, name):  # pragma: no cover
        raise AssertionError

    def class_name_for(self, cid):  # pragma: no cover
        raise AssertionError

    def replica_for(self, gid, name):  # pragma: no cover
        raise AssertionError


_value_for_kind = {
    K_INT: st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    K_DOUBLE: st.floats(allow_nan=False),
    K_STR: st.one_of(st.none(), st.text(max_size=30)),
}


@st.composite
def spec_and_fields(draw):
    kinds = draw(st.lists(
        st.sampled_from([K_INT, K_DOUBLE, K_STR]), min_size=1, max_size=8
    ))
    values = [draw(_value_for_kind[k]) for k in kinds]
    return ClassSpec("T", tuple(kinds)), values


@given(sf=spec_and_fields())
def test_serializer_roundtrip(sf):
    spec, values = sf
    obj = _FakeObj(list(values))
    data = serialize_object(obj, spec, _NullResolver())
    out = _FakeObj([None] * len(values))
    deserialize_into(out, spec, data, _NullResolver())
    assert out.fields == values


@given(sf=spec_and_fields(), data=st.data())
def test_diff_patch_roundtrip(sf, data):
    spec, values = sf
    obj = _FakeObj(list(values))
    twin = make_twin(obj)
    # Mutate a random subset of slots.
    for i, kind in enumerate(spec.kinds):
        if data.draw(st.booleans()):
            obj.fields[i] = data.draw(_value_for_kind[kind])
    diff = compute_diff(obj, twin, spec, _NullResolver())
    master = _FakeObj(list(values))
    if diff is not None:
        apply_diff(master, spec, diff, _NullResolver())
    assert master.fields == obj.fields


# ---------------------------------------------------------------------------
# Bulk array kernel == per-element reference loop
# ---------------------------------------------------------------------------
# ``serialize_array`` / ``deserialize_array`` pack an int or double slice
# with one ``struct`` call and keep the per-element loop as the reference.
# Emptying ``_BULK`` makes the module run that loop on the same input, so
# the two paths are compared inside the module, not against a copy of it.
def _loop_only():
    return mock.patch.dict(serialization._BULK, clear=True)


def _array(elem_type, values):
    arr = ArrayObj(elem_type, 0)
    arr.data = list(values)
    return arr


def _bits(values):
    """Slots as comparable facts: type and exact value (NaN, -0.0 too)."""
    return [(type(v).__name__, struct.pack(">d", v) if isinstance(v, float)
             else v) for v in values]


_I64_EDGES = [-(1 << 63), -(1 << 63) + 1, -1, 0, 1, (1 << 63) - 1]
_int_slots = st.lists(
    st.one_of(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
              st.sampled_from(_I64_EDGES), st.booleans()),
    max_size=7)
_double_slots = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -0.0, 0.0, 5e-324, 1.7976931348623157e308]),
              st.integers(min_value=-(1 << 53), max_value=1 << 53),
              st.booleans()),
    max_size=7)


def _check_kernel_matches_loop(elem_type, values):
    res = _NullResolver()
    n = len(values)
    for lo in range(n + 1):
        for hi in list(range(lo, n + 1)) + [None]:
            arr = _array(elem_type, values)
            fast = serialize_array(arr, res, lo, hi)
            with _loop_only():
                slow = serialize_array(arr, res, lo, hi)
            assert fast == slow
            count = len(values[lo:hi])
            assert len(fast) == 4 + 8 * count
            # Install into a differently sized array, at an offset, and
            # into an empty stub (which grows): same slots either way.
            for size, at in ((n + 3, 2), (0, 0)):
                a = _array(elem_type, [7] * size)
                b = _array(elem_type, [7] * size)
                deserialize_array(a, fast, res, at)
                with _loop_only():
                    deserialize_array(b, fast, res, at)
                assert _bits(a.data) == _bits(b.data)
                assert len(a.data) == max(size, at + count)


@given(values=_int_slots, elem=st.sampled_from(["int", "boolean"]))
@example(values=_I64_EDGES + [True, False], elem="int")
@example(values=[], elem="int")
def test_bulk_int_array_kernel_matches_loop(values, elem):
    _check_kernel_matches_loop(elem, values)


@given(values=_double_slots)
@example(values=[float("nan"), -0.0, float("inf"), float("-inf"), 3, True])
def test_bulk_double_array_kernel_matches_loop(values):
    _check_kernel_matches_loop("double", values)


def test_bulk_kernel_leaves_coercions_and_range_errors_to_the_loop():
    res = _NullResolver()
    # A float in an int array is truncated by the loop's int(), not
    # rejected by struct; a numeric string in a double array is float()ed.
    assert serialize_array(_array("int", [1, 2.9, True]), res) \
        == serialize_array(_array("int", [1, 2, 1]), res)
    assert serialize_array(_array("double", [1, "2.5"]), res) \
        == serialize_array(_array("double", [1.0, 2.5]), res)
    for values in ([1 << 70], [0, 1, -(1 << 63) - 1, 2], [(1 << 63)]):
        with pytest.raises(SerializationError, match="exceeds 64 bits"):
            serialize_array(_array("int", values), res)
        with _loop_only(), pytest.raises(SerializationError,
                                         match="exceeds 64 bits"):
            serialize_array(_array("int", values), res)


# ---------------------------------------------------------------------------
# Per-class codec == per-field reference loop
# ---------------------------------------------------------------------------
# A ClassSpec whose kinds are all int/double packs an instance with one
# cached ``struct.Struct`` (``spec.packer``); the per-field
# ``write_value`` loop is the reference it must match byte for byte.
def _field_loop(spec, values):
    w = Writer()
    for kind, value in zip(spec.kinds, values):
        write_value(w, kind, value, _NullResolver())
    return w.getvalue()


_numeric_field = {
    K_INT: st.one_of(
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        st.sampled_from(_I64_EDGES), st.booleans()),
    K_DOUBLE: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), -0.0, 5e-324]),
        st.integers(min_value=-(1 << 53), max_value=1 << 53), st.booleans()),
}


@st.composite
def numeric_spec_and_fields(draw):
    kinds = draw(st.lists(st.sampled_from([K_INT, K_DOUBLE]), max_size=8))
    return (ClassSpec("T", tuple(kinds)),
            [draw(_numeric_field[k]) for k in kinds])


@given(sf=numeric_spec_and_fields())
@example(sf=(ClassSpec("T", ()), []))
@example(sf=(ClassSpec("T", (K_INT, K_DOUBLE, K_INT)), [True, False, -1]))
def test_class_codec_matches_the_field_loop(sf):
    spec, values = sf
    assert spec.packer is not None
    data = serialize_object(_FakeObj(list(values)), spec, _NullResolver())
    assert data == _field_loop(spec, values)
    out = _FakeObj([None] * len(values))
    deserialize_into(out, spec, data, _NullResolver())
    assert _bits(out.fields) == _bits(
        [int(v) if k == K_INT else float(v)
         for k, v in zip(spec.kinds, values)])


def test_class_codec_named_cases():
    res = _NullResolver()
    ints = ClassSpec("T", (K_INT, K_INT))
    # A bool in an int slot packs as the int it is.
    assert serialize_object(_FakeObj([True, 5]), ints, res) \
        == _field_loop(ints, [1, 5])
    # A float in an int slot: struct refuses it, the loop truncates it.
    with pytest.raises(struct.error):
        ints.packer.pack(2.9, 5)
    assert serialize_object(_FakeObj([2.9, 5]), ints, res) \
        == _field_loop(ints, [2, 5])
    # Past 64 bits: the loop's error, not struct's.
    with pytest.raises(SerializationError, match="exceeds 64 bits"):
        serialize_object(_FakeObj([1 << 70, 0]), ints, res)
    # An int no double holds: the loop's float() raises.
    doubles = ClassSpec("T", (K_DOUBLE,))
    with pytest.raises(OverflowError):
        serialize_object(_FakeObj([1 << 2000]), doubles, res)
    # Short and long payloads: the loop's errors, and nothing installed.
    data = serialize_object(_FakeObj([3, 4]), ints, res)
    for bad, match in ((data[:-1], "truncated"), (data[:3], "truncated"),
                       (data + b"\0", "after end of payload")):
        out = _FakeObj([7, 7])
        with pytest.raises(SerializationError, match=match):
            deserialize_into(out, ints, bad, res)
        assert out.fields == [7, 7]


@pytest.mark.parametrize("kinds", [(K_INT, K_STR), (K_REF,),
                                   (K_DOUBLE, K_REF, K_INT)])
def test_a_str_or_ref_kind_never_takes_the_struct_path(kinds):
    spec = ClassSpec("T", kinds)
    assert spec.packer is None
    values = [{K_INT: 3, K_DOUBLE: 1.5, K_STR: "x", K_REF: None}[k]
              for k in kinds]
    assert serialize_object(_FakeObj(values), spec, _NullResolver()) \
        == _field_loop(spec, values)


class _RefResolver(_NullResolver):
    """Refs as (gid = 1 + position in ``pool``, class id 1)."""

    def __init__(self, pool):
        self.pool = pool

    def gid_for(self, ref):
        return 1 + next(i for i, o in enumerate(self.pool) if o is ref)

    def class_id_for(self, name):
        return 1


def _full_scan_diff(arr, twin, res, lo, hi):
    """The differ before chunk narrowing: every slot visited in Python."""
    slots = arr.data[lo:hi]
    changed = [i for i, (a, b) in enumerate(zip(slots, twin))
               if a is not b and a != b]
    if not changed:
        return None
    kind = kind_of_type(arr.elem_type)
    w = Writer()
    w.u32(len(changed))
    for i in changed:
        w.u32(i)
        write_value(w, kind, slots[i], res)
    return w.getvalue()


_NAN = float("nan")
_POOL = [_FakeObj([]) for _ in range(3)]
_slot_values = {
    "int": st.integers(min_value=-3, max_value=3),
    # One shared NaN object (unchanged when it stays put) and fresh ones
    # (NaN != NaN: a changed slot), as the VM would produce either.
    "double": st.one_of(st.sampled_from([_NAN, 0.0, -0.0, 1.5]),
                        st.just("fresh-nan")),
    "T": st.sampled_from(_POOL + [None]),
}


@given(elem=st.sampled_from(["int", "double", "T"]), data=st.data(),
       n=st.integers(min_value=0, max_value=19),
       chunk=st.sampled_from([1, 4, 5, 256]))
def test_chunk_narrowed_diff_matches_full_scan(elem, data, n, chunk):
    def draw_slot():
        v = data.draw(_slot_values[elem])
        return float("nan") if v == "fresh-nan" else v

    values = [draw_slot() for _ in range(n)]
    arr = _array(elem, values)
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    twin = make_twin(arr, lo, hi)
    for i in data.draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)),
                                max_size=4)):
        if i < n:
            arr.data[i] = draw_slot()
    res = _RefResolver(_POOL)
    with mock.patch.object(diffs, "_CHUNK", chunk):
        got = compute_diff(arr, twin, None, res, lo, hi)
    assert got == _full_scan_diff(arr, twin, res, lo, hi)


def test_chunked_diff_sees_a_change_in_the_last_partial_chunk():
    n = 2 * diffs._CHUNK + 88            # two full chunks and a partial one
    arr = _array("int", range(n))
    twin = make_twin(arr)
    assert compute_diff(arr, twin, None, _NullResolver()) is None
    arr.data[n - 1] = -1
    arr.data[diffs._CHUNK] = -2          # first slot of the second chunk
    diff = compute_diff(arr, twin, None, _NullResolver())
    assert diff == _full_scan_diff(arr, twin, _NullResolver(), 0, None)
    master = _array("int", range(n))
    assert apply_diff(master, None, diff, _NullResolver()) == 2
    assert master.data == arr.data


# ---------------------------------------------------------------------------
# End-to-end LRC coherence on randomized workloads
# ---------------------------------------------------------------------------
_COHERENCE_SRC = """
class Cell {{ int v; }}
class W extends Thread {{
    Cell[] cells;
    int reps;
    int salt;
    W(Cell[] cells, int reps, int salt) {{
        this.cells = cells; this.reps = reps; this.salt = salt;
    }}
    void run() {{
        for (int i = 0; i < reps; i++) {{
            Cell c = cells[(i + salt) % cells.length];
            synchronized (c) {{ c.v += 1; }}
        }}
    }}
}}
class Main {{
    static int main() {{
        int ncells = {ncells};
        int k = {threads};
        Cell[] cells = new Cell[ncells];
        for (int i = 0; i < ncells; i++) {{ cells[i] = new Cell(); }}
        W[] ts = new W[k];
        for (int i = 0; i < k; i++) {{
            ts[i] = new W(cells, {reps}, i);
            ts[i].start();
        }}
        for (int i = 0; i < k; i++) {{ ts[i].join(); }}
        int total = 0;
        for (int i = 0; i < ncells; i++) {{ total += cells[i].v; }}
        return total;
    }}
}}
"""


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ncells=st.integers(min_value=1, max_value=5),
    threads=st.integers(min_value=1, max_value=6),
    reps=st.integers(min_value=1, max_value=25),
    nodes=st.integers(min_value=1, max_value=4),
)
def test_lrc_counter_coherence(ncells, threads, reps, nodes):
    """No increment is ever lost, for any cluster layout: every write of
    a releaser's happens-before past is visible to the next acquirer."""
    from repro.runtime import run_distributed

    src = _COHERENCE_SRC.format(ncells=ncells, threads=threads, reps=reps)
    report = run_distributed(source=src, num_nodes=nodes)
    assert report.result == threads * reps


# ---------------------------------------------------------------------------
# Generated programs: tier 0 == tier 1 == direct evaluation of the tree
# (first slice of ROADMAP 4(a): decoding and compiling are bytecode
# transformations, so each must preserve semantics on programs nobody
# wrote by hand)
# ---------------------------------------------------------------------------
_GEN_SRC = """
class Box { int fi; double fd; }
class Gen {
    int run(Box box, Box other, int[] cells, int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
%s
        }
        for (int i = 0; i < cells.length; i = i + 1) { acc = acc + cells[i]; }
        return acc + box.fi + (int) box.fd;
    }
}
class Main {
    static int main() {
        Gen g = new Gen();
        Box box = new Box();
        Box other = new Box();
        int[] cells = new int[8];
        int total = 0;
        for (int round = 1; round <= 3; round = round + 1) {
            total = total + g.run(box, other, cells, 4 * round);
        }
        return total;
    }
}
"""


def _lit(values):
    return values.map(lambda v: ("lit", v))


def _bin(ops, left, right):
    return st.tuples(st.sampled_from(ops), left, right)


def _call(names, *args):
    """A call to one of the ``Math`` methods ``names``."""
    return st.tuples(st.just("math"), st.sampled_from(names), *args)


#: The ``Math`` methods a tree calls, evaluated directly.  Every argument
#: a generated program passes is finite (``sqrt``'s is an ``abs``), and
#: no zero's sign can reach a result, so Python's functions are Java's.
_MATH = {"abs": abs, "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
         "floor": lambda v: float(math.floor(v)),
         "ceil": lambda v: float(math.ceil(v)), "min": min, "max": max,
         "iabs": abs, "imin": min, "imax": max}

# Trees: ("lit", v) | ("var", name) | ("cell", k) | ("i2d", int tree)
# | ("d2i", double tree) | ("math", method, argument trees) | (operator,
# left, right).  Divisors are non-zero literals and every store is
# reduced modulo a constant, so no generated program can trap or
# overflow a double.
_int_core = st.recursive(
    st.one_of(_lit(st.integers(-9, 9)),
              st.sampled_from(["i", "acc", "box.fi"]).map(
                  lambda name: ("var", name)),
              st.integers(0, 7).map(lambda k: ("cell", k))),
    lambda kid: st.one_of(
        _bin("+-*", kid, kid),
        _bin("/%", kid, _lit(st.integers(1, 9).flatmap(
            lambda v: st.sampled_from([v, -v])))),
        _call(["iabs"], kid), _call(["imin", "imax"], kid, kid)),
    max_leaves=5)
_dbl_expr = st.recursive(
    st.one_of(_lit(st.sampled_from([0.5, 1.5, -2.25, 3.0])),
              st.just(("var", "box.fd")),
              _int_core.map(lambda e: ("i2d", e))),
    lambda kid: st.one_of(
        _bin("+-*", kid, kid),
        _bin("/", kid, _lit(st.sampled_from([0.5, -4.0, 3.0]))),
        _call(["abs", "floor", "ceil", "sin", "cos"], kid),
        _call(["sqrt"], _call(["abs"], kid)), _call(["min", "max"], kid, kid)),
    max_leaves=4)
_int_expr = st.one_of(
    _int_core, _dbl_expr.map(lambda e: ("d2i", e)),
    _bin("+-", _int_core, _dbl_expr.map(lambda e: ("d2i", e))))
_condition = st.one_of(
    _bin(["<", "<=", ">", ">=", "==", "!="], _int_expr, _int_expr),
    _bin(["<", ">="], _dbl_expr, _dbl_expr))
# Statements: ("set", target tree, value tree) | ("if", condition,
# then-statements, else-statements) | ("loop", variable, trips,
# statements) | ("sync", statements) | ("ret", condition) | ("alias",).
_set_int = st.tuples(st.just("set"), st.sampled_from(
    [("var", "acc"), ("var", "box.fi")]), _int_expr)
_set_dbl = st.tuples(st.just("set"), st.just(("var", "box.fd")), _dbl_expr)
_set_cell = st.tuples(st.just("set"), st.integers(0, 7).map(
    lambda k: ("cell", k)), _int_expr)
_statement = st.recursive(
    st.one_of(_set_int, _set_dbl, _set_cell),
    lambda kid: st.tuples(st.just("if"), _condition,
                          st.lists(kid, min_size=1, max_size=2),
                          st.lists(kid, max_size=2)),
    max_leaves=4)
# Shapes that put control flow where the tier-1 dispatch ladder has to
# get it right: a nested loop (a back edge into the middle of the
# ladder, and a trace that closes on its own head); an early return out
# of the loop nest; an if/else whose untaken side jumps over three
# checked stores (>= 3 arms); an if over a check-free body, whose taken
# target is the textually next arm; `synchronized` on an object that
# never left its thread (the inlined local-lock path); and `box` and
# `other` swapped between two field reads (what a check proved about
# the old `box` says nothing about the new one).
_check_free = st.recursive(
    st.one_of(_lit(st.integers(-9, 9)),
              st.sampled_from(["i", "acc"]).map(lambda n: ("var", n))),
    lambda kid: _bin("+-*", kid, kid), max_leaves=3)
_shape = st.one_of(
    st.tuples(st.just("loop"), st.just("j"), st.integers(1, 3),
              st.lists(_statement, min_size=1, max_size=2)),
    st.tuples(st.just("ret"), _condition),
    st.tuples(st.just("if"), _condition,
              st.tuples(_set_int, _set_cell, _set_dbl).map(list),
              st.lists(_statement, max_size=1)),
    st.tuples(st.just("if"), _condition,
              st.tuples(st.just("set"), st.just(("var", "acc")),
                        _check_free).map(lambda stmt: [stmt]),
              st.just([])),
    st.tuples(st.just("sync"),
              st.lists(st.one_of(_set_int, _set_cell), min_size=1,
                       max_size=2)),
    st.just(("alias",)))


def _modulus(target):
    """The literal that bounds what a store to ``target`` keeps."""
    return ("lit", {("var", "acc"): 100003, ("var", "box.fi"): 1009,
                    ("var", "box.fd"): 1000.0}.get(target, 997))


def _java(tree) -> str:
    """A tree as MiniJava source."""
    kind = tree[0]
    if kind == "lit":
        return f"({tree[1]})"
    if kind == "var":
        return tree[1]
    if kind == "cell":
        return f"cells[(i + {tree[1]}) % 8]"
    if kind == "i2d":
        return f"({_java(tree[1])} * 1.0)"
    if kind == "d2i":
        return f"((int) {_java(tree[1])})"
    if kind == "math":
        return f"Math.{tree[1]}({', '.join(map(_java, tree[2:]))})"
    if kind == "if":
        then = " ".join(map(_java, tree[2]))
        other = " ".join(map(_java, tree[3]))
        cond = f"{_java(tree[1][1])} {tree[1][0]} {_java(tree[1][2])}"
        return f"if ({cond}) {{ {then} }} else {{ {other} }}"
    if kind == "set":
        stored = ("%", tree[2], _modulus(tree[1]))
        return f"{_java(tree[1])} = {_java(stored)};"
    if kind == "loop":
        var, trips, inner = tree[1], tree[2], " ".join(map(_java, tree[3]))
        return (f"for (int {var} = 0; {var} < {trips}; {var} = {var} + 1) "
                f"{{ {inner} }}")
    if kind == "sync":
        return f"synchronized (box) {{ {' '.join(map(_java, tree[1]))} }}"
    if kind == "ret":
        cond = f"{_java(tree[1][1])} {tree[1][0]} {_java(tree[1][2])}"
        return f"if ({cond}) {{ return acc; }}"
    if kind == "alias":
        return "{ Box swap = box; box = other; other = swap; }"
    return f"({_java(tree[1])} {kind} {_java(tree[2])})"


def _int_div(a: int, b: int) -> int:
    return int(Fraction(a, b))  # exact, truncates toward zero like Java


_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _value(tree, env):
    """A tree evaluated directly, with Java's arithmetic."""
    kind = tree[0]
    if kind == "lit":
        return tree[1]
    if kind == "var":
        return env[tree[1]]
    if kind == "cell":
        return env["cells"][(env["i"] + tree[1]) % 8]
    if kind == "i2d":
        return float(_value(tree[1], env))
    if kind == "d2i":
        return int(_value(tree[1], env))
    if kind == "math":
        return _MATH[tree[1]](*(_value(arg, env) for arg in tree[2:]))
    left, right = _value(tree[1], env), _value(tree[2], env)
    if kind in "/%" and isinstance(left, int):
        quotient = _int_div(left, right)
        return quotient if kind == "/" else left - right * quotient
    if kind in "/%":
        return left / right if kind == "/" else math.fmod(left, right)
    return _OPERATORS[kind](left, right)


class _Return(Exception):
    """An early ``return acc;`` out of the generated loop nest."""


def _execute(stmt, env) -> None:
    kind = stmt[0]
    if kind == "ret":
        if _value(stmt[1], env):
            raise _Return
        return
    if kind == "alias":  # env holds the fields of whichever is `box`
        other = env["other"]
        env["other"] = {name: env[name] for name in other}
        env.update(other)
        env["swapped"] = not env["swapped"]
        return
    if kind in ("if", "loop", "sync"):
        if kind == "if":
            taken, trips = stmt[2] if _value(stmt[1], env) else stmt[3], 1
        elif kind == "loop":
            taken, trips = stmt[3], stmt[2]
        else:
            taken, trips = stmt[1], 1
        for _ in range(trips):
            for inner in taken:
                _execute(inner, env)
        return
    target, value = stmt[1], _value(("%", stmt[2], _modulus(stmt[1])), env)
    if target[0] == "cell":
        env["cells"][(env["i"] + target[1]) % 8] = value
    else:
        env[target[1]] = value


def _expected(body) -> int:
    """What ``Main.main`` of ``_GEN_SRC`` returns for this loop body."""
    env = {"box.fi": 0, "box.fd": 0.0, "cells": [0] * 8, "swapped": False,
           "other": {"box.fi": 0, "box.fd": 0.0}}
    total = 0
    for rounds in (1, 2, 3):
        if env["swapped"]:  # ``run``'s parameters start out unswapped
            _execute(("alias",), env)
        env["acc"] = 0
        try:
            for env["i"] in range(4 * rounds):
                for stmt in body:
                    _execute(stmt, env)
        except _Return:
            total += env["acc"]
            continue
        total += (env["acc"] + sum(env["cells"]) + env["box.fi"]
                  + int(env["box.fd"]))
    return total


def _fold_increments(method) -> int:
    """Rewrite ``x = x + c`` (LOAD x; CONST c; ADD; STORE x) into
    ``IINC x c`` — the compiler never emits IINC, so without this no
    program would run it — and renumber the branch targets."""
    code, out, new_pc = method.code, [], {}
    targets = branch_targets(code)
    pc = 0
    while pc < len(code):
        new_pc[pc] = len(out)
        run = code[pc:pc + 4]
        if ([i.op for i in run] == [Op.LOAD, Op.CONST, Op.ADD, Op.STORE]
                and run[0].a == run[3].a and type(run[1].a) is int
                and not targets & {pc + 1, pc + 2, pc + 3}):
            out.append(Instr(Op.IINC, run[0].a, run[1].a, line=run[0].line))
            pc += 4
        else:
            out.append(code[pc])
            pc += 1
    for instr in out:
        if instr.op in BRANCHES:
            retarget(instr, new_pc[branch_target(instr)])
    method.code[:] = out
    return sum(i.op is Op.IINC for i in out)


_ACC_PLUS_CELL = ("set", ("var", "acc"),
                  ("+", ("var", "acc"), ("cell", 1)))
_BUMP_CELL = ("set", ("cell", 0), ("+", ("cell", 0), ("var", "i")))
_I_IS_ODD = ("==", ("%", ("var", "i"), ("lit", 2)), ("lit", 1))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.lists(st.one_of(_statement, _shape), min_size=1, max_size=4))
# One pinned program per shape, so each runs on every invocation.
@example(body=[("loop", "j", 3, [_BUMP_CELL,
                                 ("loop", "k", 2, [_ACC_PLUS_CELL])])])
@example(body=[_BUMP_CELL, ("loop", "j", 2, [
    _ACC_PLUS_CELL, ("ret", (">", ("var", "acc"), ("lit", 40)))])])
@example(body=[("if", _I_IS_ODD,
                [("set", ("var", "box.fi"), ("var", "i")), _BUMP_CELL,
                 ("set", ("var", "box.fd"), ("i2d", ("var", "acc")))],
                [_ACC_PLUS_CELL])])
@example(body=[("if", _I_IS_ODD,
                [("set", ("var", "acc"), ("+", ("var", "acc"), ("lit", 3)))],
                []), _BUMP_CELL])
@example(body=[("sync", [_BUMP_CELL, ("set", ("var", "box.fi"),
                                      ("+", ("var", "box.fi"), ("lit", 1)))])])
@example(body=[("set", ("var", "box.fi"), ("+", ("var", "box.fi"), ("var", "i"))),
               ("alias",),
               ("set", ("var", "acc"), ("+", ("var", "acc"), ("var", "box.fi")))])
@example(body=[("loop", "j", 3, [("if", _I_IS_ODD, [_ACC_PLUS_CELL], [])])])
def test_generated_method_same_in_both_tiers_and_direct_evaluation(body):
    from repro.lang import compile_source
    from repro.rewriter import rewrite_application
    from repro.runtime import JavaSplitRuntime, RuntimeConfig

    source = _GEN_SRC % "\n".join(_java(stmt) for stmt in body)
    expected = _expected(body)
    # The default quantum and an odd one that ends quanta, and so
    # resumes compiled code, on arms all over the method.
    for quantum_ns in (50_000, 997):
        reports = {}
        for jit in (False, True):
            classfiles = compile_source(source)
            gen = next(cf for cf in classfiles if cf.name == "Gen")
            assert _fold_increments(gen.methods["run"]) >= 2
            runtime = JavaSplitRuntime(
                rewrite_application(classfiles),
                RuntimeConfig(num_nodes=2, seed=0, jit_enable=jit,
                              jit_threshold=1, quantum_ns=quantum_ns))
            reports[jit] = runtime.run(), sum(
                t.instructions for w in runtime.workers
                for t in w.jvm.threads)
        (base, base_count), (compiled, compiled_count) = \
            reports[False], reports[True]
        assert base.result == expected
        assert compiled.result == base.result
        assert compiled.simulated_ns == base.simulated_ns
        assert compiled_count == base_count
        assert "javasplit.Gen.run" in compiled.jit["compiled_methods"]
        assert not compiled.jit["blacklisted"]


# ---------------------------------------------------------------------------
# One SEMANTICS row, two generators: the tier-0 handler and the tier-1
# text of a row agree on any operands
# ---------------------------------------------------------------------------
_numbers = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.sampled_from([0, -1, 1 << 1100, -(1 << 1100), 0.0, -0.0,
                     math.nan, math.inf, -math.inf]))
_refs = st.sampled_from([None, "", "s", "Base", "Sub", "Other", "int[]"])
_classes = st.sampled_from(["Object", "String", "Base", "Sub", "Other",
                            "int[]", "Missing"])
#: What the operands of a row are drawn from; numbers unless said here.
_OPERANDS = {
    Op.CONCAT: st.one_of(_numbers, _refs), Op.ARRAYLENGTH: _refs,
    Op.INSTANCEOF: _refs, Op.CHECKCAST: _refs,
    Op.NEWARRAY: st.integers(-3, 8),
    **{op: st.one_of(_numbers, _refs) for op in (
        Op.LOAD, Op.STORE, Op.POP, Op.DUP, Op.DUP_X1, Op.SWAP, Op.PUTSTATIC)},
}


@st.composite
def _row_case(draw):
    from repro.jvm.bytecode import MATH, SEMANTICS, STACK_EFFECT
    op = draw(st.sampled_from(sorted(SEMANTICS) + sorted(MATH)))
    spare = draw(st.integers(0, 2))  # operands the op must leave alone
    if op in MATH:  # a call that is a MATH row
        return Op.INVOKESTATIC, draw(st.lists(
            _numbers, min_size=MATH[op].arity + spare,
            max_size=MATH[op].arity + spare)), "Math", op
    operands = draw(st.lists(_OPERANDS.get(op, _numbers),
                             min_size=STACK_EFFECT[op][0] + spare,
                             max_size=STACK_EFFECT[op][0] + spare))
    a = b = None
    if op in (Op.LOAD, Op.STORE, Op.IINC):
        operands = operands or [draw(_numbers)]
        a, b = draw(st.integers(0, len(operands) - 1)), draw(
            st.integers(-9, 9))
    elif op in (Op.SHL, Op.SHR, Op.USHR):
        operands[-1] = draw(st.integers(-2, 130))  # 1 << 2**40 is a TiB
    elif op is Op.CONST:
        a = draw(st.one_of(_numbers, st.sampled_from([None, "it's"])))
    elif op in (Op.GETSTATIC, Op.PUTSTATIC):
        a, b = "Base", "n"
    elif op is Op.NEWARRAY:
        a = draw(st.sampled_from(["int", "double", "Base"]))
    elif op in (Op.NEW, Op.INSTANCEOF, Op.CHECKCAST):
        a = draw(_classes)
    return op, operands, a, b


@settings(max_examples=400, deadline=None)
@given(case=_row_case())
def test_row_same_as_handler_and_as_compiled_text(case):
    from test_semantics import _heap, _same, row_jvm, run_row

    op, operands, a, b = case
    jvm = row_jvm()
    operands = _heap(jvm, operands)
    outcomes = []
    for tier in (0, 1):
        jvm.classes["Base"].statics["n"] = 5
        try:
            out = run_row(jvm, tier, op, operands, a, b)
        except Exception as exc:  # a raw Python error leaks from both
            out = exc
        outcomes.append((out, jvm.classes["Base"].statics["n"]))
    (base, base_static), (compiled, compiled_static) = outcomes
    if isinstance(base, Exception):
        assert (type(compiled), str(compiled)) == (type(base), str(base))
        return
    assert not isinstance(compiled, Exception), compiled
    assert base[2] == compiled[2]                      # simulated cost
    for mine, theirs in zip(base[:2], compiled[:2]):   # stack, locals
        assert len(mine) == len(theirs)
        for x, y in zip(mine, theirs):
            if isinstance(x, (Obj, ArrayObj)) and x not in operands:
                assert type(y) is type(x) and y.class_name == x.class_name
                assert isinstance(x, Obj) or len(x) == len(y)   # allocated
            else:
                assert x is y or _same(y, x), (x, y)
    assert base_static is compiled_static or _same(compiled_static,
                                                   base_static)


def _depth_checked(handler, depth, where, executed):
    """A decoded handler that first holds the operand stack it finds
    against the depth the static walk computed for its pc."""
    def check(thread, frame):
        assert len(frame.stack) == depth, (where, len(frame.stack), depth)
        executed[where] += 1
        return handler(thread, frame)
    return check


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.lists(st.one_of(_statement, _shape), min_size=1, max_size=4))
@example(body=[_BUMP_CELL, ("loop", "j", 2, [
    _ACC_PLUS_CELL, ("ret", (">", ("var", "acc"), ("lit", 40)))])])
@example(body=[("sync", [_BUMP_CELL, ("set", ("var", "box.fi"),
                                      ("+", ("var", "box.fi"), ("lit", 1)))])])
def test_stack_depths_are_the_interpreters_operand_stack(body):
    """The one depth dataflow (``jvm.cfg.stack_depths``, under the one
    ``STACK_EFFECT`` table) against what executing the code does: at
    every pc a rewritten generated program executes, on every node, the
    frame's operand stack is as deep as the walk says.  And the two
    callers agree: what the verifier accepted, ``jit.analysis.analyze``
    accepts too, with the same depths (it resolves invokes through the
    running JVM instead of the class files)."""
    from repro.jit.analysis import analyze
    from repro.jvm.classfile import resolve_method
    from repro.lang import compile_source
    from repro.rewriter import rewrite_application
    from repro.runtime import JavaSplitRuntime, RuntimeConfig

    source = _GEN_SRC % "\n".join(_java(stmt) for stmt in body)
    classfiles = compile_source(source)
    gen = next(cf for cf in classfiles if cf.name == "Gen")
    _fold_increments(gen.methods["run"])
    rewritten = rewrite_application(classfiles)  # verifies its output
    table = rewritten.classfiles
    # A 1 ns quantum is below any fused run's margin: every instruction
    # is dispatched on its own, through the handlers wrapped below.
    runtime = JavaSplitRuntime(rewritten, RuntimeConfig(
        num_nodes=2, seed=0, quantum_ns=1))
    executed = collections.Counter()
    for worker in runtime.workers:
        for cf in table.values():
            for method in cf.methods.values():
                if method.is_native:
                    continue
                depths = stack_depths(method, lambda pc, i: invoke_effect(
                    resolve_method(table, i.a, i.b)))
                assert analyze(method, worker.jvm).depth_at == depths
                handlers = worker.jvm.interpreter.decode(method)
                for pc, depth in enumerate(depths):
                    handlers[pc] = _depth_checked(
                        handlers[pc], depth, (cf.name, method.name, pc),
                        executed)
    assert runtime.run().result == _expected(body)
    assert sum(executed.values()) == sum(
        thread.instructions for worker in runtime.workers
        for thread in worker.jvm.threads)
    assert ("javasplit.Gen", "run", 0) in executed
    assert {klass for klass, _name, _pc in executed} >= {
        "javasplit.Main", "javasplit.Gen", "javasplit.Box"}


# ---------------------------------------------------------------------------
# Wire-size estimate: the type table agrees with the recursive definition
# ---------------------------------------------------------------------------
def _reference_size(value):
    """``estimate_size`` as it was before it dispatched on ``type(value)``:
    every simulated latency was computed from these sizes."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int) or isinstance(value, float):
        return 8
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(_reference_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(
            _reference_size(k) + _reference_size(v) for k, v in value.items()
        )
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    raise TypeError(f"cannot estimate wire size of {type(value).__name__}")


_hashable_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.binary(max_size=12),
              st.text(alphabet="abcXYZ_09 ", max_size=12),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.tuples(inner, inner), st.frozensets(inner, max_size=3)),
    max_leaves=6)
_payloads = st.recursive(
    _hashable_payloads,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.sets(_hashable_payloads, max_size=3),
        st.dictionaries(_hashable_payloads, inner, max_size=4)),
    max_leaves=12)


@given(value=_payloads)
@example(value={"gid": 7, "region": None, "ok": True, "w": 1.5, "d": b"\x00"})
@example(value=[True, 1, (False, 0), {"é": "ü"}])
def test_estimate_size_matches_reference(value):
    from repro.net.message import estimate_size
    assert estimate_size(value) == _reference_size(value)


def test_estimate_size_literals_off_the_exact_type_table():
    import enum
    from repro.net.message import estimate_size

    class Colour(enum.IntEnum):
        RED = 1

    class Payload(dict):
        pass

    class Sized:
        def wire_size(self):
            return 19

    assert estimate_size(Colour.RED) == 8          # an int, not a bool
    assert estimate_size(True) == 1 and estimate_size(1) == 8
    assert estimate_size(Payload(a=Colour.RED)) == 4 + 5 + 8
    assert estimate_size([Sized(), Sized()]) == 4 + 19 + 19
    assert estimate_size("naïve") == 4 + 6
    with pytest.raises(TypeError, match="cannot estimate wire size of object"):
        estimate_size({"x": object()})
