"""Compiled shapes against the generic codec (``net/wire.py``).

A payload skeleton the codec has seen once is packed and unpacked by
one ``struct`` call.  These tests hold that path to the generic tagged
codec, which stays the reference: the same bytes for every payload, the
same values (classes, dict order, NaN bits) for every frame, and every
corrupt frame the generic decoder's result or its own ``WireError``."""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import wire
from repro.net.message import Message
from repro.net.wire import (MAX_DEPTH, MAX_SHAPES, MAX_SLOTS, WireError,
                            decode_frame, encode_frame)

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro")

_GENERIC_ENCODE = wire._encode_generic
_GENERIC_DECODE = wire._decode_generic


def _clear():
    for cache in (wire._SHAPES, wire._ENCODE, wire._DECODE):
        cache.clear()


@pytest.fixture(autouse=True)
def cold_shapes():
    _clear()
    yield
    _clear()


@pytest.fixture
def generic_decodes(monkeypatch):
    """The frames that reached the generic decoder, in order."""
    seen = []

    def counted(data):
        seen.append(data)
        return _GENERIC_DECODE(data)
    monkeypatch.setattr(wire, "_decode_generic", counted)
    return seen


def _same(a, b):
    """Equal values of the same classes, dict and set order included;
    floats by their bits, so NaN is itself and -0.0 is not 0.0."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, float):
        assert struct.pack(">d", a) == struct.pack(">d", b)
    elif isinstance(a, dict):
        assert len(a) == len(b)
        for (ka, va), (kb, vb) in zip(a.items(), b.items()):
            _same(ka, kb)
            _same(va, vb)
    elif isinstance(a, (list, tuple, set, frozenset)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    else:
        assert a == b


def _same_message(a, b):
    assert (a.msg_type, a.src, a.dst, a.size_bytes, a.msg_id) == \
        (b.msg_type, b.src, b.dst, b.size_bytes, b.msg_id)
    _same(a.payload, b.payload)


def _compiles(payload):
    """Whether the codec compiles ``payload``'s skeleton: no bigint and
    at most MAX_SLOTS values that are no containers, dict keys included."""
    slots = 0

    def walk(value):
        nonlocal slots
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k)
                walk(v)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for v in value:
                walk(v)
        else:
            slots += 1
            if isinstance(value, int) and not isinstance(value, bool) \
                    and not -(1 << 63) <= value < (1 << 63):
                slots += MAX_SLOTS
    walk(payload)
    return slots <= MAX_SLOTS


# ---------------------------------------------------------------------------
# The protocol's value grammar
# ---------------------------------------------------------------------------
_INT64 = (-(1 << 63), (1 << 63) - 1)
_ints = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([_INT64[0], _INT64[0] + 1, _INT64[1] - 1, _INT64[1]]),
    st.sampled_from([_INT64[0] - 1, _INT64[1] + 1, 1 << 80, -(1 << 90)]),
    st.integers(min_value=-(1 << 70), max_value=1 << 70))
_floats = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, math.nan,
                                                  -math.nan, math.inf]))
_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                 max_size=8)
_hashable = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _texts, st.binary(max_size=6)),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=4)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _texts,
                     st.binary(max_size=12))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_hashable, max_size=3),
        st.frozensets(_hashable, max_size=3),
        st.dictionaries(st.one_of(_texts, _hashable), children, max_size=4)),
    max_leaves=24)


def _depth(value):
    """Containers open at ``value``'s deepest point, itself included."""
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return 1 + max(map(_depth, value), default=0)
    return 0


@st.composite
def _nested(draw):
    """A value under a chain of lists, tuples and dicts, as deep as the
    payload dict around it leaves MAX_DEPTH."""
    value = draw(_values)
    room = max(MAX_DEPTH - 1 - _depth(value), 0)
    for kind in draw(st.lists(st.sampled_from("ltm"), max_size=room)):
        value = [value] if kind == "l" else (value,) if kind == "t" \
            else {"k": value}
    return value


_payloads = st.dictionaries(st.one_of(_texts, _hashable),
                            st.one_of(_values, _nested()), max_size=5)


@given(payload=_payloads, msg_type=st.sampled_from(["dsm.token", "x.é"]))
def test_compiled_shapes_match_the_generic_codec(payload, msg_type):
    _clear()
    msg = Message(msg_type, 3, 4, payload, size_bytes=7, msg_id=9)
    frame = _GENERIC_ENCODE(msg)
    assert encode_frame(msg) == frame
    assert encode_frame(msg) == frame   # a compiled shape, if one was made
    compiled = _compiles(payload)
    assert bool(wire._ENCODE) == bool(wire._DECODE) == compiled
    expected = _GENERIC_DECODE(frame)
    for _ in range(2):
        _same_message(decode_frame(frame), expected)
    if compiled:
        encoders = wire._ENCODE[msg_type, tuple(payload)]
        assert wire._first(encoders, msg) == frame
        decoders = wire._DECODE[len(frame), msg_type.encode("utf-8")]
        _same_message(wire._first(decoders, frame), expected)


# ---------------------------------------------------------------------------
# Hostile input on the fast path
# ---------------------------------------------------------------------------
def _protocol_frames():
    """One frame each of the four hottest skeletons on locks_proc."""
    payloads = {
        "dsm.token": {"gid": 5, "grant": (1, 2, 3, 4),
                      "queue": [(1, 4, 5, 9, 0), (2, 4, 5, 9, 0)],
                      "waitq": [], "seen": {0: {3: 1, 4: 2}, 1: {3: 1}},
                      "delta": [(1, 2, 3)], "__seq__": 7},
        "dsm.diff": {"entries": [(17, b"\x00\x01" * 8, None)], "ack_id": 5,
                     "writer": 2, "interval": 7, "__seq__": 2},
        "dsm.fetch_reply": {"gid": 17, "region": None,
                            "class_name": "javasplit.Counter",
                            "data": b"\x00" * 8, "version": 3, "__seq__": 1},
        "dsm.owner_update": {"gid": 3, "owner": 2, "__seq__": 6},
    }
    return [encode_frame(Message(t, 1, 2, p, size_bytes=60, msg_id=77))
            for t, p in payloads.items()]


def _outcome(decode, frame):
    try:
        return decode(frame)
    except WireError as exc:
        return f"WireError: {exc}"


def test_every_single_byte_mutation_is_the_generic_decoders(generic_decodes):
    frames = _protocol_frames()
    for frame in frames:
        decode_frame(frame)
    assert not generic_decodes   # encoding compiled them for decoding too
    total = 0
    for frame in frames:
        for at in range(len(frame)):
            for byte in {0x00, 0x01, 0x7F, 0xFF, frame[at] ^ 0x01}:
                mutated = frame[:at] + bytes([byte]) + frame[at + 1:]
                expected = _outcome(_GENERIC_DECODE, mutated)
                got = _outcome(decode_frame, mutated)
                total += 1
                if isinstance(expected, str):
                    assert got == expected, (at, byte)
                else:
                    _same_message(got, expected)
    # Some mutations hit a value and stay on the fast path; the rest hit
    # a tag, a count, a length or a key and leave it.
    assert 0 < len(generic_decodes) < total
    assert len(wire._SHAPES) <= MAX_SHAPES


def test_a_renamed_key_of_the_same_length_takes_the_generic_path(
        generic_decodes):
    msg = Message("dsm.owner_update", 1, 2, {"gid": 3, "owner": 2}, 60, 1)
    renamed = Message("dsm.owner_update", 1, 2, {"gix": 3, "owner": 2}, 60, 1)
    encode_frame(msg)
    frame = _GENERIC_ENCODE(renamed)
    assert len(frame) == len(encode_frame(msg))
    _same_message(decode_frame(frame), renamed)
    assert generic_decodes == [frame]
    assert list(decode_frame(frame).payload) == ["gix", "owner"]
    assert generic_decodes == [frame]   # now a shape of its own


def test_caches_stay_at_their_bound():
    for n in range(MAX_SHAPES + 40):
        msg = Message("dsm.console", 1, 2, {"text": "x" * n}, 60, n)
        frame = encode_frame(msg)
        assert frame == _GENERIC_ENCODE(msg)
        assert decode_frame(frame).payload == {"text": "x" * n}
    assert len(wire._SHAPES) == MAX_SHAPES
    assert len(wire._DECODE) == MAX_SHAPES
    # One (type, keys): a few candidates, the newest first.
    assert [len(fns) for fns in wire._ENCODE.values()] == \
        [wire._CANDIDATES]


@pytest.mark.parametrize("item", [7, None])
@pytest.mark.parametrize("slots, compiled", [(MAX_SLOTS, True),
                                             (MAX_SLOTS + 1, False)])
def test_a_skeleton_over_the_slot_cap_is_never_compiled(slots, compiled,
                                                        item):
    """The cap counts every value that is no container, its key too."""
    msg = Message("loc.bulk_fetch", 1, 2, {"gids": [item] * (slots - 1)},
                  60, 1)
    for _ in range(3):
        frame = encode_frame(msg)
        assert frame == _GENERIC_ENCODE(msg)
        assert decode_frame(frame).payload == msg.payload
    assert len(wire._SHAPES) == len(wire._ENCODE) == len(wire._DECODE) \
        == compiled


def test_a_bigint_is_never_compiled_and_errors_are_the_generic_codecs():
    big = Message("dsm.diff_ack", 1, 2, {"ack_id": 1 << 64}, 60, 1)
    assert decode_frame(encode_frame(big)).payload == {"ack_id": 1 << 64}
    assert not wire._SHAPES
    small = Message("dsm.diff_ack", 1, 2, {"ack_id": 1}, 60, 1)
    encode_frame(small)
    # The compiled encoder declines a value past int64, a bool or a float
    # for an int, and an object the generic codec refuses.
    for value in (1 << 64, True, 2.0, object()):
        odd = Message("dsm.diff_ack", 1, 2, {"ack_id": value}, 60, 1)
        assert _outcome(encode_frame, odd) == _outcome(_GENERIC_ENCODE, odd)
    with pytest.raises(WireError, match="trailing bytes"):
        decode_frame(encode_frame(small) + b"N")
