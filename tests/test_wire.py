"""Wire-format codec tests: exhaustive round-trips over every protocol
message type, golden bytes for each, property-based payload fuzzing,
frame-size limits, and hostile-input rejection (every truncation, every
single-byte corruption, bad versions, unhashable keys, deep nesting)."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.net.message import (ALL_MESSAGE_TYPES, M_DIFF, M_FT_REPL,
                               M_LOC_AGG, M_LOCK_REQ, M_RACE_SYNC, M_TOKEN,
                               OBS_SPAN_KEY, Message)
from repro.net.wire import (MAX_DEPTH, MAX_FRAME_BYTES, PREFIX_BYTES,
                            VERSION, FrameDecoder, WireError, decode_frame,
                            encode_frame, frame_with_prefix, peek_msg_id,
                            peek_route)


def roundtrip(msg: Message) -> Message:
    decoded = decode_frame(encode_frame(msg))
    assert decoded.msg_type == msg.msg_type
    assert decoded.src == msg.src
    assert decoded.dst == msg.dst
    assert decoded.msg_id == msg.msg_id
    assert decoded.size_bytes == msg.size_bytes
    assert decoded.payload == msg.payload
    return decoded


# ---------------------------------------------------------------------------
# Representative payloads per message type.  Shapes mirror what the
# protocol actually sends (see dsm/protocol.py, ft/, locality/, race/):
# flattened lock tokens, (key, bytes, region) diff entries, nested
# version maps, replication unit dicts, aggregate sub-frame lists.
# ---------------------------------------------------------------------------
_PAYLOADS = {
    "dsm.fetch_req": {"gid": 17, "region": None, "__seq__": 0},
    "dsm.fetch_reply": {"gid": 17, "data": b"\x00\x01obj", "version": 3,
                        "applied": {1: 2, 0: 1}, "__seq__": 1},
    "dsm.diff": {"entries": [(17, b"diffbytes", None), ((18, 0), b"r", 0)],
                 "ack_id": 5, "writer": 2, "interval": 7, "__seq__": 2},
    "dsm.diff_ack": {"ack_id": 5, "__seq__": 0},
    "dsm.lock_req": {"gid": 3, "node": 1, "thread_id": 4, "priority": 5,
                     "seq": 9, "restore_count": 0, "__seq__": 3},
    "dsm.lock_fwd": {"gid": 3, "queue_wire": [(1, 4, 5, 9, 0, None)],
                     "__seq__": 4},
    "dsm.token": {"gid": 3, "queue_wire": [(1, 4, 5, 9, 0, None)],
                  "waitq_wire": [], "seen": {0: {3: 1}}, "__seq__": 5},
    "dsm.owner_update": {"gid": 3, "owner": 2, "__seq__": 6},
    "dsm.spawn": {"gid": 21, "class_name": "Worker", "priority": 5,
                  "__seq__": 7},
    "dsm.console": {"text": "tour=1234", "__seq__": 8},
    "transport.ack": {"next": 12},
    "ft.ping": {"beat": 40, "__seq__": 9, "__epoch__": 0},
    "ft.suspect": {"peer": 2, "__seq__": 10},
    "ft.repl": {"origin": 1, "units": [
        {"gid": 17, "region": None, "version": 3, "data": b"unit",
         "cls": "Worker"}], "__seq__": 11},
    "ft.notices": {"notices": [(17, 3), ((18, 0), 1)], "__seq__": 12},
    "ft.rediff": {"entries": [(17, b"diff", None)], "ack_id": 6,
                  "__seq__": 13},
    "ft.rediff_ack": {"ack_id": 6, "__seq__": 14},
    "loc.home_update": {"gid": 17, "home": 2, "epoch": 1, "__seq__": 15},
    "loc.fwd_diff": {"gid": 17, "fwd_id": 8, "entries": [(17, b"d", None)],
                     "requester": 1, "__seq__": 16},
    "loc.fwd_diff_ack": {"fwd_id": 8, "versions": [(17, 4)], "__seq__": 17},
    "loc.bulk_fetch": {"gids": [17, 18, 19], "__seq__": 18},
    "loc.bulk_reply": {"units": [(17, b"u", None, 3)], "__seq__": 19},
    "loc.agg": {"frames": [("dsm.diff", {"entries": [], "ack_id": 1}, 44),
                           ("dsm.diff_ack", {"ack_id": 2}, 40)],
                "__seq__": 20},
    "pol.push": {"gid": 17, "class_name": "Worker", "version": 4,
                 "data": b"unit", "__seq__": 21},
    "pol.bcast": {"gid": 17, "class_name": "Worker", "version": 4,
                  "data": b"unit", "__seq__": 22},
    "race.sync": {"race_ev": [(1, 4, (17, None), 0, 2, 100, 7)],
                  "__seq__": 23},
}


#: One value of every tag the codec has, for the golden frames.
_ALL_TAGS = {"none": None, "t": True, "f": False, "i": -5, "big": 1 << 70,
             "negbig": -(1 << 70), "x": 0.5, "s": "h\u00e9", "b": b"\x00\xff",
             "l": [1, [2]], "tu": (3,), "set": {1, 2}, "fz": frozenset({7}),
             "m": {(1, 2): {"k": None}}}

#: ``encode_frame`` of each payload above as ``Message(type, 1, 2, payload,
#: size_bytes=100, msg_id=0x0102030405060708)``, wire version 1.  These
#: bytes are the format: a codec change that moves one of them is a new
#: ``VERSION``, not a refactor.
_GOLDEN = {
    "all.tags": (
        "4a57010001020304050607080000000100000002000000640008616c6c2e7461"
        "67736d0000000e73000000046e6f6e654e730000000174547300000001664673"
        "000000016969fffffffffffffffb730000000362696749000000094000000000"
        "0000000073000000066e65676269674900000009c00000000000000000730000"
        "000178643fe0000000000000730000000173730000000368c3a9730000000162"
        "620000000200ff73000000016c6c000000026900000000000000016c00000001"
        "6900000000000000027300000002747574000000016900000000000000037300"
        "0000037365746500000002690000000000000001690000000000000002730000"
        "0002667a7a0000000169000000000000000773000000016d6d00000001740000"
        "00026900000000000000016900000000000000026d0000000173000000016b4e"
    ),
    "dsm.console": (
        "4a5701000102030405060708000000010000000200000064000b64736d2e636f"
        "6e736f6c656d000000027300000004746578747300000009746f75723d313233"
        "3473000000075f5f7365715f5f690000000000000008"
    ),
    "dsm.diff": (
        "4a5701000102030405060708000000010000000200000064000864736d2e6469"
        "66666d000000057300000007656e74726965736c000000027400000003690000"
        "00000000001162000000096469666662797465734e7400000003740000000269"
        "0000000000000012690000000000000000620000000172690000000000000000"
        "730000000661636b5f6964690000000000000005730000000677726974657269"
        "00000000000000027300000008696e74657276616c6900000000000000077300"
        "0000075f5f7365715f5f690000000000000002"
    ),
    "dsm.diff_ack": (
        "4a5701000102030405060708000000010000000200000064000c64736d2e6469"
        "66665f61636b6d00000002730000000661636b5f696469000000000000000573"
        "000000075f5f7365715f5f690000000000000000"
    ),
    "dsm.fetch_reply": (
        "4a5701000102030405060708000000010000000200000064000f64736d2e6665"
        "7463685f7265706c796d00000005730000000367696469000000000000001173"
        "0000000464617461620000000500016f626a730000000776657273696f6e6900"
        "0000000000000373000000076170706c6965646d000000026900000000000000"
        "0169000000000000000269000000000000000069000000000000000173000000"
        "075f5f7365715f5f690000000000000001"
    ),
    "dsm.fetch_req": (
        "4a5701000102030405060708000000010000000200000064000d64736d2e6665"
        "7463685f7265716d000000037300000003676964690000000000000011730000"
        "0006726567696f6e4e73000000075f5f7365715f5f690000000000000000"
    ),
    "dsm.lock_fwd": (
        "4a5701000102030405060708000000010000000200000064000c64736d2e6c6f"
        "636b5f6677646d00000003730000000367696469000000000000000373000000"
        "0a71756575655f776972656c0000000174000000066900000000000000016900"
        "0000000000000469000000000000000569000000000000000969000000000000"
        "00004e73000000075f5f7365715f5f690000000000000004"
    ),
    "dsm.lock_req": (
        "4a5701000102030405060708000000010000000200000064000c64736d2e6c6f"
        "636b5f7265716d00000007730000000367696469000000000000000373000000"
        "046e6f646569000000000000000173000000097468726561645f696469000000"
        "000000000473000000087072696f726974796900000000000000057300000003"
        "736571690000000000000009730000000d726573746f72655f636f756e746900"
        "0000000000000073000000075f5f7365715f5f690000000000000003"
    ),
    "dsm.owner_update": (
        "4a5701000102030405060708000000010000000200000064001064736d2e6f77"
        "6e65725f7570646174656d000000037300000003676964690000000000000003"
        "73000000056f776e657269000000000000000273000000075f5f7365715f5f69"
        "0000000000000006"
    ),
    "dsm.spawn": (
        "4a5701000102030405060708000000010000000200000064000964736d2e7370"
        "61776e6d000000047300000003676964690000000000000015730000000a636c"
        "6173735f6e616d657300000006576f726b657273000000087072696f72697479"
        "69000000000000000573000000075f5f7365715f5f690000000000000007"
    ),
    "dsm.token": (
        "4a5701000102030405060708000000010000000200000064000964736d2e746f"
        "6b656e6d000000057300000003676964690000000000000003730000000a7175"
        "6575655f776972656c0000000174000000066900000000000000016900000000"
        "000000046900000000000000056900000000000000096900000000000000004e"
        "730000000a77616974715f776972656c0000000073000000047365656e6d0000"
        "00016900000000000000006d0000000169000000000000000369000000000000"
        "000173000000075f5f7365715f5f690000000000000005"
    ),
    "ft.notices": (
        "4a5701000102030405060708000000010000000200000064000a66742e6e6f74"
        "696365736d0000000273000000076e6f74696365736c00000002740000000269"
        "0000000000000011690000000000000003740000000274000000026900000000"
        "0000001269000000000000000069000000000000000173000000075f5f736571"
        "5f5f69000000000000000c"
    ),
    "ft.ping": (
        "4a5701000102030405060708000000010000000200000064000766742e70696e"
        "676d0000000373000000046265617469000000000000002873000000075f5f73"
        "65715f5f69000000000000000973000000095f5f65706f63685f5f6900000000"
        "00000000"
    ),
    "ft.rediff": (
        "4a5701000102030405060708000000010000000200000064000966742e726564"
        "6966666d000000037300000007656e74726965736c0000000174000000036900"
        "000000000000116200000004646966664e730000000661636b5f696469000000"
        "000000000673000000075f5f7365715f5f69000000000000000d"
    ),
    "ft.rediff_ack": (
        "4a5701000102030405060708000000010000000200000064000d66742e726564"
        "6966665f61636b6d00000002730000000661636b5f6964690000000000000006"
        "73000000075f5f7365715f5f69000000000000000e"
    ),
    "ft.repl": (
        "4a5701000102030405060708000000010000000200000064000766742e726570"
        "6c6d0000000373000000066f726967696e690000000000000001730000000575"
        "6e6974736c000000016d00000005730000000367696469000000000000001173"
        "00000006726567696f6e4e730000000776657273696f6e690000000000000003"
        "7300000004646174616200000004756e69747300000003636c73730000000657"
        "6f726b657273000000075f5f7365715f5f69000000000000000b"
    ),
    "ft.suspect": (
        "4a5701000102030405060708000000010000000200000064000a66742e737573"
        "706563746d000000027300000004706565726900000000000000027300000007"
        "5f5f7365715f5f69000000000000000a"
    ),
    "loc.agg": (
        "4a570100010203040506070800000001000000020000006400076c6f632e6167"
        "676d0000000273000000066672616d65736c0000000274000000037300000008"
        "64736d2e646966666d000000027300000007656e74726965736c000000007300"
        "00000661636b5f696469000000000000000169000000000000002c7400000003"
        "730000000c64736d2e646966665f61636b6d00000001730000000661636b5f69"
        "6469000000000000000269000000000000002873000000075f5f7365715f5f69"
        "0000000000000014"
    ),
    "loc.bulk_fetch": (
        "4a5701000102030405060708000000010000000200000064000e6c6f632e6275"
        "6c6b5f66657463686d000000027300000004676964736c000000036900000000"
        "0000001169000000000000001269000000000000001373000000075f5f736571"
        "5f5f690000000000000012"
    ),
    "loc.bulk_reply": (
        "4a5701000102030405060708000000010000000200000064000e6c6f632e6275"
        "6c6b5f7265706c796d000000027300000005756e6974736c0000000174000000"
        "046900000000000000116200000001754e69000000000000000373000000075f"
        "5f7365715f5f690000000000000013"
    ),
    "loc.fwd_diff": (
        "4a5701000102030405060708000000010000000200000064000c6c6f632e6677"
        "645f646966666d00000005730000000367696469000000000000001173000000"
        "066677645f69646900000000000000087300000007656e74726965736c000000"
        "0174000000036900000000000000116200000001644e73000000097265717565"
        "7374657269000000000000000173000000075f5f7365715f5f69000000000000"
        "0010"
    ),
    "loc.fwd_diff_ack": (
        "4a570100010203040506070800000001000000020000006400106c6f632e6677"
        "645f646966665f61636b6d0000000373000000066677645f6964690000000000"
        "000008730000000876657273696f6e736c000000017400000002690000000000"
        "00001169000000000000000473000000075f5f7365715f5f6900000000000000"
        "11"
    ),
    "loc.home_update": (
        "4a5701000102030405060708000000010000000200000064000f6c6f632e686f"
        "6d655f7570646174656d00000004730000000367696469000000000000001173"
        "00000004686f6d65690000000000000002730000000565706f63686900000000"
        "0000000173000000075f5f7365715f5f69000000000000000f"
    ),
    "pol.bcast": (
        "4a57010001020304050607080000000100000002000000640009706f6c2e6263"
        "6173746d000000057300000003676964690000000000000011730000000a636c"
        "6173735f6e616d657300000006576f726b6572730000000776657273696f6e69"
        "00000000000000047300000004646174616200000004756e697473000000075f"
        "5f7365715f5f690000000000000016"
    ),
    "pol.push": (
        "4a57010001020304050607080000000100000002000000640008706f6c2e7075"
        "73686d000000057300000003676964690000000000000011730000000a636c61"
        "73735f6e616d657300000006576f726b6572730000000776657273696f6e6900"
        "000000000000047300000004646174616200000004756e697473000000075f5f"
        "7365715f5f690000000000000015"
    ),
    "race.sync": (
        "4a57010001020304050607080000000100000002000000640009726163652e73"
        "796e636d000000027300000007726163655f65766c0000000174000000076900"
        "0000000000000169000000000000000474000000026900000000000000114e69"
        "0000000000000000690000000000000002690000000000000064690000000000"
        "00000773000000075f5f7365715f5f690000000000000017"
    ),
    "transport.ack": (
        "4a5701000102030405060708000000010000000200000064000d7472616e7370"
        "6f72742e61636b6d0000000173000000046e65787469000000000000000c"
    ),
}


def _golden_message(msg_type: str) -> Message:
    payload = _ALL_TAGS if msg_type == "all.tags" else _PAYLOADS[msg_type]
    return Message(msg_type, 1, 2, dict(payload), size_bytes=100,
                   msg_id=0x0102030405060708)


@pytest.mark.parametrize("msg_type", sorted(_GOLDEN))
def test_golden_frame_bytes(msg_type):
    assert VERSION == 1
    msg = _golden_message(msg_type)
    frame = encode_frame(msg)
    assert frame.hex() == "".join(_GOLDEN[msg_type])
    assert decode_frame(frame) == msg


def test_every_message_type_has_a_payload_case():
    """New protocol types must be added to both the registry and this
    suite — a type on the wire without round-trip coverage is a bug."""
    assert set(_PAYLOADS) == set(ALL_MESSAGE_TYPES)


@pytest.mark.parametrize("msg_type", ALL_MESSAGE_TYPES)
def test_roundtrip_every_message_type(msg_type):
    msg = Message(msg_type, src=1, dst=2, payload=dict(_PAYLOADS[msg_type]))
    roundtrip(msg)


@pytest.mark.parametrize("msg_type", [M_DIFF, M_TOKEN, M_LOCK_REQ,
                                      M_RACE_SYNC, M_FT_REPL, M_LOC_AGG])
def test_roundtrip_with_piggyback_keys(msg_type):
    """The cross-subsystem piggyback keys (telemetry span ids, race
    vector clocks, epoch stamps) must survive the wire verbatim."""
    payload = dict(_PAYLOADS[msg_type])
    payload[OBS_SPAN_KEY] = 9_001
    payload["race"] = (3, {0: 5, 2: 9})
    payload["__epoch__"] = 2
    msg = Message(msg_type, src=0, dst=2, payload=payload)
    decoded = roundtrip(msg)
    assert decoded.payload[OBS_SPAN_KEY] == 9_001
    assert decoded.payload["race"] == (3, {0: 5, 2: 9})


def test_roundtrip_preserves_container_kinds_and_dict_order():
    msg = Message("dsm.diff", 0, 1, {
        "tuple": (1, 2), "list": [1, 2], "set": {1, 2},
        "frozen": frozenset({3}), "z": 1, "a": 2,
    })
    decoded = roundtrip(msg)
    assert type(decoded.payload["tuple"]) is tuple
    assert type(decoded.payload["list"]) is list
    assert type(decoded.payload["set"]) is set
    assert type(decoded.payload["frozen"]) is frozenset
    # The protocol iterates payload dicts; insertion order is semantics.
    assert list(decoded.payload) == list(msg.payload)


def test_roundtrip_int_extremes_and_bignums():
    msg = Message("dsm.console", 0, 1, {
        "i64min": -(1 << 63), "i64max": (1 << 63) - 1,
        "big": 1 << 200, "negbig": -(1 << 200), "zero": 0,
    })
    roundtrip(msg)


def test_peek_route_and_msg_id_without_decoding():
    msg = Message("dsm.fetch_req", 3, 7, {"gid": 1})
    frame = encode_frame(msg)
    assert peek_route(frame) == (3, 7)
    assert peek_msg_id(frame) == msg.msg_id
    # A frame as it arrived, length prefix and all, is read in place.
    prefixed = frame_with_prefix(frame)
    assert peek_route(prefixed, PREFIX_BYTES) == (3, 7)
    assert peek_msg_id(prefixed, PREFIX_BYTES) == msg.msg_id
    with pytest.raises(WireError):
        peek_route(prefixed[:PREFIX_BYTES + 16], PREFIX_BYTES)
    # Negative node ids (the master's control-plane id) must survive.
    ctrl = Message("proc.hello", -1, 2, {}, size_bytes=1, msg_id=0)
    assert peek_route(encode_frame(ctrl)) == (-1, 2)


# ---------------------------------------------------------------------------
# Property-based payload fuzzing
# ---------------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=64),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                      st.text(max_size=10),
                      st.tuples(st.integers(min_value=0, max_value=99),
                                st.integers(min_value=0, max_value=99))),
            children, max_size=4),
    ),
    max_leaves=20,
)


@given(payload=st.dictionaries(st.text(max_size=12), _values, max_size=6),
       msg_type=st.sampled_from(ALL_MESSAGE_TYPES),
       src=st.integers(min_value=-1, max_value=63),
       dst=st.integers(min_value=-1, max_value=63))
def test_roundtrip_fuzzed_payloads(payload, msg_type, src, dst):
    msg = Message(msg_type, src, dst, payload, size_bytes=1)
    decoded = decode_frame(encode_frame(msg))
    assert decoded.payload == payload
    assert (decoded.msg_type, decoded.src, decoded.dst) == \
        (msg_type, src, dst)


@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_never_crash_the_decoder(data):
    """Hostile input either decodes or raises WireError — nothing else."""
    try:
        decode_frame(data)
    except WireError:
        pass


def test_truncated_frames_rejected():
    """Every proper prefix of every golden frame is truncation."""
    for msg_type in sorted(_GOLDEN):
        frame = encode_frame(_golden_message(msg_type))
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])


def test_single_byte_flips_decode_or_raise_wire_error():
    """Any one corrupted byte of any golden frame either still decodes
    or raises WireError: never another exception."""
    for msg_type in sorted(_GOLDEN):
        frame = encode_frame(_golden_message(msg_type))
        for at in range(len(frame)):
            for mask in (0x01, 0xFF):
                flipped = bytearray(frame)
                flipped[at] ^= mask
                try:
                    decode_frame(bytes(flipped))
                except WireError:
                    pass


def _hostile(payload: bytes) -> bytes:
    """A frame with a valid header and type around raw payload bytes."""
    return struct.pack(">2sBBQiiIH", b"JW", 1, 0, 1, 0, 1, 1, 1) + b"x" \
        + payload


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


# One-entry dicts {"k": value} and {key: None}, and a value of each
# container kind, as tagged bytes.
_KEY_K = b"s" + _u32(1) + b"k"
_EMPTY = {"list": b"l" + _u32(0), "dict": b"m" + _u32(0),
          "set": b"e" + _u32(0)}


@pytest.mark.parametrize("kind", sorted(_EMPTY))
def test_unhashable_dict_key_is_wire_error(kind):
    frame = _hostile(b"m" + _u32(1) + _EMPTY[kind] + b"N")
    with pytest.raises(WireError, match="bad dict key"):
        decode_frame(frame)


@pytest.mark.parametrize("kind", sorted(_EMPTY))
@pytest.mark.parametrize("tag", [b"e", b"z"])
def test_unhashable_set_element_is_wire_error(kind, tag):
    frame = _hostile(b"m" + _u32(1) + _KEY_K + tag + _u32(1) + _EMPTY[kind])
    with pytest.raises(WireError, match="bad set element"):
        decode_frame(frame)


def _nested_lists(levels: int) -> bytes:
    """``{"k": [[...[None]...]]}`` with ``levels`` lists, as bytes."""
    return (b"m" + _u32(1) + _KEY_K + (b"l" + _u32(1)) * levels + b"N")


def test_nesting_depth_is_bounded_both_ways():
    # The payload dict is one container: MAX_DEPTH - 1 lists fit in it.
    fits = _hostile(_nested_lists(MAX_DEPTH - 1))
    value = decode_frame(fits).payload["k"]
    assert encode_frame(Message("x", 0, 1, {"k": value}, size_bytes=1,
                                msg_id=1)) == fits
    for levels in (MAX_DEPTH, 5000):
        with pytest.raises(WireError, match="nests deeper"):
            decode_frame(_hostile(_nested_lists(levels)))
    deep = None
    for _ in range(5000):
        deep = [deep]
    for value in (deep, [value]):
        with pytest.raises(WireError, match="nests deeper"):
            encode_frame(Message("x", 0, 1, {"k": value}, size_bytes=1))


def test_trailing_garbage_rejected():
    frame = encode_frame(Message("dsm.diff_ack", 1, 2, {"ack_id": 1}))
    with pytest.raises(WireError, match="trailing"):
        decode_frame(frame + b"\x00")


def test_bad_magic_and_version_rejected():
    frame = bytearray(encode_frame(Message("dsm.diff_ack", 1, 2, {})))
    bad_magic = b"XX" + bytes(frame[2:])
    with pytest.raises(WireError, match="magic"):
        decode_frame(bad_magic)
    bad_version = bytes(frame[:2]) + b"\x63" + bytes(frame[3:])
    with pytest.raises(WireError, match="version"):
        decode_frame(bad_version)


def test_unencodable_payload_raises():
    class Opaque:
        pass

    with pytest.raises(WireError, match="cannot encode"):
        encode_frame(Message("dsm.diff", 0, 1, {"x": Opaque()},
                             size_bytes=1))


# ---------------------------------------------------------------------------
# Size limits
# ---------------------------------------------------------------------------
def test_max_size_frame_roundtrips():
    """A frame just under the cap encodes, decodes, and reassembles."""
    blob = b"\xab" * (MAX_FRAME_BYTES - 4096)
    msg = Message("dsm.fetch_reply", 0, 1, {"data": blob}, size_bytes=1)
    frame = encode_frame(msg)
    assert len(frame) <= MAX_FRAME_BYTES
    assert decode_frame(frame).payload["data"] == blob
    decoder = FrameDecoder()
    frames = decoder.feed(frame_with_prefix(frame))
    assert frames == [frame_with_prefix(frame)]


def test_oversize_frame_rejected_at_encode():
    blob = b"\xab" * (MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="too large"):
        encode_frame(Message("dsm.fetch_reply", 0, 1, {"data": blob},
                             size_bytes=1))


def test_oversize_length_prefix_rejected_by_decoder():
    decoder = FrameDecoder()
    poison = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="exceeds cap"):
        decoder.feed(poison)


# ---------------------------------------------------------------------------
# Stream reassembly
# ---------------------------------------------------------------------------
@given(chunk=st.integers(min_value=1, max_value=64))
def test_decoder_reassembles_any_chunking(chunk):
    msgs = [Message(t, 0, 1, dict(_PAYLOADS[t]))
            for t in ("dsm.fetch_req", "dsm.diff", "ft.repl")]
    stream = b"".join(frame_with_prefix(encode_frame(m)) for m in msgs)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[i:i + chunk]))
    assert decoder.pending_bytes == 0
    # Frames come back as they lay in the stream, prefix included.
    assert b"".join(out) == stream
    assert [decode_frame(f[PREFIX_BYTES:]).msg_type for f in out] == \
        [m.msg_type for m in msgs]
