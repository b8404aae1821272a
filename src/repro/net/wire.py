"""Versioned binary wire format for protocol frames.

The sim backend hands :class:`~repro.net.message.Message` objects
between endpoints as live Python objects; the proc backend has to put
them on real sockets.  This module is the codec: a compact
length-prefixed frame with a fixed ``struct`` header followed by the
message type and a tagged encoding of the payload dict.  Message bodies
that are already real byte strings (serialized objects and diffs
produced by :mod:`repro.dsm.serialization`) pass through verbatim.

Design constraints, in order:

* **Round-trip fidelity.**  The decoded message must be *semantically
  identical* to the encoded one — including the tuple/list/set
  distinctions and the dict insertion order the protocol relies on —
  because the differential harness asserts that a run whose every frame
  goes through this codec behaves byte-for-byte like the sim backend.
* **Hostile-input safety.**  Frames arrive from a socket; a truncated
  or corrupt frame must raise :class:`WireError` and nothing else —
  never an unbounded allocation, a silent mis-parse, a ``TypeError``
  from an unhashable key or a ``RecursionError`` from deep nesting
  (:data:`MAX_DEPTH` bounds both directions).  The version byte exists
  so a future layout change is detected instead of mis-decoded.
* **Relay cheapness.**  The per-node worker processes route frames by
  destination without decoding payloads, so ``src``/``dst`` live at
  fixed offsets readable with one ``struct`` call (:func:`peek_route`).

Frame layout (all integers big-endian)::

    u32   length of the rest of the frame (stream framing prefix)
    2s    magic  b"JW"
    u8    version (currently 1)
    u8    flags   (reserved, 0)
    u64   msg_id
    i32   src
    i32   dst
    u32   size_bytes        (simulated wire-size accounting)
    u16   len(msg_type) + utf-8 bytes
    ...   tagged payload value (a dict at the top level)
"""

from __future__ import annotations

import struct
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .message import Message

MAGIC = b"JW"
VERSION = 1

#: Hard cap on a single frame (prefix value).  The biggest legitimate
#: frames are whole-object fetch replies and bulk prefetch replies —
#: tens of kilobytes at benchmark scale; 64 MiB leaves three orders of
#: magnitude of headroom while bounding what a corrupt length prefix
#: can make a receiver buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREFIX = struct.Struct(">I")
_HEADER = struct.Struct(">2sBBQiiIH")   # magic ver flags msg_id src dst size typelen
_U32 = struct.Struct(">I")
_S64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
# A tag and its fixed-width value, packed by one call.
_TAG_S64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")
_TAG_U32 = struct.Struct(">cI")   # u32 is a length or an element count

#: Offset of (src, dst) within a frame (after the length prefix).
_ROUTE = struct.Struct(">ii")
_ROUTE_OFFSET = 2 + 1 + 1 + 8

# Value tags.  One byte each; containers carry a u32 element count.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"        # fits a signed 64-bit integer
_T_BIGINT = b"I"     # arbitrary precision, length-prefixed two's complement
_T_FLOAT = b"d"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_SET = b"e"
_T_FROZENSET = b"z"
_T_DICT = b"m"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Most containers a value may nest, the payload dict included.  The
#: deepest payload the protocol sends nests 7 (a ``loc.agg`` sub-frame's
#: diff entry keyed by ``(gid, region)``: dict > list > tuple > dict >
#: list > tuple > tuple); the bound turns a hostile 5 000-deep frame
#: into a WireError, not a RecursionError, on either side of the codec.
MAX_DEPTH = 32


class WireError(ValueError):
    """A frame could not be encoded or decoded."""


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
# The encoder looks ``type(value)`` up in ``_ENCODERS``; a subclass
# (an ``IntEnum``, a named tuple) takes the first row it is an instance
# of.  Every encoder is ``(out, value, depth)``, ``depth`` being the
# containers already open around ``value``.
def _encode_by_isinstance(out: List[bytes], value: Any, depth: int) -> None:
    for kind, encode in _ENCODERS.items():
        if isinstance(value, kind):
            encode(out, value, depth)
            return
    raise WireError(
        f"cannot encode {type(value).__name__} on the wire "
        f"(payloads must be flattened to plain data first)")


def _enc_none(out: List[bytes], value: None, depth: int) -> None:
    out.append(_T_NONE)


def _enc_bool(out: List[bytes], value: bool, depth: int) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _enc_int(out: List[bytes], value: int, depth: int) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_TAG_S64.pack(_T_INT, value))
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out.append(_TAG_U32.pack(_T_BIGINT, len(raw)))
        out.append(raw)


def _enc_float(out: List[bytes], value: float, depth: int) -> None:
    out.append(_TAG_F64.pack(_T_FLOAT, value))


def _enc_str(out: List[bytes], value: str, depth: int) -> None:
    raw = value.encode("utf-8")
    out.append(_TAG_U32.pack(_T_STR, len(raw)))
    out.append(raw)


def _enc_bytes(out: List[bytes], value: bytes, depth: int) -> None:
    out.append(_TAG_U32.pack(_T_BYTES, len(value)))
    out.append(bytes(value))


def _opened(depth: int) -> int:
    """The depth inside one more container; WireError past MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise WireError(f"value nests deeper than {MAX_DEPTH} containers")
    return depth + 1


def _enc_items(tag: bytes) -> Callable[[List[bytes], Any, int], None]:
    def encode(out: List[bytes], value: Any, depth: int) -> None:
        depth = _opened(depth)
        out.append(_TAG_U32.pack(tag, len(value)))
        for item in value:
            _ENCODERS.get(type(item), _encode_by_isinstance)(out, item, depth)
    return encode


def _enc_dict(out: List[bytes], value: Dict[Any, Any], depth: int) -> None:
    depth = _opened(depth)
    out.append(_TAG_U32.pack(_T_DICT, len(value)))
    get = _ENCODERS.get
    for k, v in value.items():
        get(type(k), _encode_by_isinstance)(out, k, depth)
        get(type(v), _encode_by_isinstance)(out, v, depth)


#: Exact type -> encoder.  ``bool`` before ``int``: for the isinstance
#: walk, a bool is an int that encodes as its own tag.
_ENCODERS: Dict[type, Callable[[List[bytes], Any, int], None]] = {
    type(None): _enc_none, bool: _enc_bool, int: _enc_int,
    float: _enc_float, str: _enc_str, bytes: _enc_bytes,
    bytearray: _enc_bytes, list: _enc_items(_T_LIST),
    tuple: _enc_items(_T_TUPLE), set: _enc_items(_T_SET),
    frozenset: _enc_items(_T_FROZENSET), dict: _enc_dict,
}


# The decoder walks ``(data, pos)``: every decoder takes the position
# just past its tag and returns ``(value, next position)``, checking
# the bounds of each read before it makes it.
def _truncated(data: bytes, pos: int, need: int) -> WireError:
    return WireError(f"truncated frame: need {need} bytes at offset {pos}, "
                     f"have {len(data) - pos}")


def _decode_value(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise _truncated(data, pos, 1)
    return _DECODERS[data[pos]](data, pos + 1, depth)


def _dec_const(value: Any) -> Callable[[bytes, int, int], Tuple[Any, int]]:
    """A tag that is its whole value (None, True, False)."""
    def decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
        return value, pos
    return decode


def _dec_fixed(fmt: struct.Struct) -> Callable[[bytes, int, int],
                                               Tuple[Any, int]]:
    """A tag followed by one fixed-width number."""
    size, unpack_from = fmt.size, fmt.unpack_from

    def decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
        if pos + size > len(data):
            raise _truncated(data, pos, size)
        return unpack_from(data, pos)[0], pos + size
    return decode


def _dec_count(data: bytes, pos: int) -> Tuple[int, int]:
    """A u32 length or count, and the position after it."""
    if pos + 4 > len(data):
        raise _truncated(data, pos, 4)
    return _U32.unpack_from(data, pos)[0], pos + 4


def _dec_bytes(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """A u32-length-prefixed byte run (also under big ints and strings)."""
    n, pos = _dec_count(data, pos)
    end = pos + n
    if end > len(data):
        raise _truncated(data, pos, n)
    return data[pos:end], end


def _dec_bigint(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    raw, pos = _dec_bytes(data, pos, depth)
    return int.from_bytes(raw, "big", signed=True), pos


def _dec_str(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    raw, pos = _dec_bytes(data, pos, depth)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in string: {exc}") from None


def _dec_open(data: bytes, pos: int, depth: int) -> Tuple[int, int, int]:
    """A container's count, first item's position and depth inside it.

    Every item takes at least one byte, so a count larger than the
    bytes left is truncation, caught before any item is read.
    """
    n, pos = _dec_count(data, pos)
    if n > len(data) - pos:
        raise _truncated(data, pos, n)
    return n, pos, _opened(depth)


def _dec_list(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    n, pos, depth = _dec_open(data, pos, depth)
    items = []
    for _ in range(n):
        item, pos = _decode_value(data, pos, depth)
        items.append(item)
    return items, pos


def _dec_tuple(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    items, pos = _dec_list(data, pos, depth)
    return tuple(items), pos


def _dec_hashed(kind: type) -> Callable[[bytes, int, int], Tuple[Any, int]]:
    def decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
        items, pos = _dec_list(data, pos, depth)
        try:
            return kind(items), pos
        except TypeError as exc:     # an unhashable element
            raise WireError(f"bad set element: {exc}") from None
    return decode


def _dec_dict(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    n, pos, depth = _dec_open(data, pos, depth)
    out = {}
    try:
        for _ in range(n):
            k, pos = _decode_value(data, pos, depth)
            out[k], pos = _decode_value(data, pos, depth)
    except TypeError as exc:         # an unhashable key
        raise WireError(f"bad dict key: {exc}") from None
    return out, pos


def _dec_unknown(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    raise WireError(f"unknown value tag {data[pos - 1:pos]!r} "
                    f"at offset {pos - 1}")


#: Tag byte -> decoder; every other byte is an unknown tag.
_DECODERS: List[Callable[[bytes, int, int], Tuple[Any, int]]] = \
    [_dec_unknown] * 256
for _tag, _decode in ((_T_NONE, _dec_const(None)),
                      (_T_TRUE, _dec_const(True)),
                      (_T_FALSE, _dec_const(False)),
                      (_T_INT, _dec_fixed(_S64)),
                      (_T_BIGINT, _dec_bigint),
                      (_T_FLOAT, _dec_fixed(_F64)),
                      (_T_STR, _dec_str), (_T_BYTES, _dec_bytes),
                      (_T_LIST, _dec_list), (_T_TUPLE, _dec_tuple),
                      (_T_SET, _dec_hashed(set)),
                      (_T_FROZENSET, _dec_hashed(frozenset)),
                      (_T_DICT, _dec_dict)):
    _DECODERS[_tag[0]] = _decode


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
#: Optional wall-clock probe: ``cb(kind, elapsed_ns)`` with kind
#: "encode" or "decode".  Module-level on purpose — the codec has no
#: instance to hang state on, and only one observer (the active
#: ObsManager, or a proc worker's local timer) ever arms it.  ``None``
#: keeps the fast path at a single falsy check.
_timer: Optional[Callable[[str, int], None]] = None


def set_wire_timer(cb: Optional[Callable[[str, int], None]]) -> None:
    """Arm (or with ``None`` disarm) the codec wall-clock probe."""
    global _timer
    _timer = cb


def encode_frame(msg: Message) -> bytes:
    """Encode one message as a frame (*without* the length prefix).

    The prefix is stream framing, attached at socket-write time with
    :func:`frame_with_prefix`; everything else — storage, comparison,
    :func:`decode_frame` — works on the bare frame.
    """
    if _timer is not None:
        t0 = time.monotonic_ns()
        body = _encode_frame(msg)
        _timer("encode", time.monotonic_ns() - t0)
        return body
    return _encode_frame(msg)


def _encode_frame(msg: Message) -> bytes:
    type_raw = msg.msg_type.encode("utf-8")
    if len(type_raw) > 0xFFFF:
        raise WireError(f"message type too long ({len(type_raw)} bytes)")
    parts: List[bytes] = [
        _HEADER.pack(MAGIC, VERSION, 0, msg.msg_id, msg.src, msg.dst,
                     msg.size_bytes, len(type_raw)),
        type_raw,
    ]
    _ENCODERS.get(type(msg.payload), _encode_by_isinstance)(
        parts, msg.payload, 0)
    body = b"".join(parts)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large ({len(body)} bytes)")
    return body


def decode_frame(data: bytes) -> Message:
    """Decode one frame (*without* its length prefix) to a Message.

    Raises :class:`WireError` for bad magic, an unsupported version,
    truncation anywhere, or trailing garbage after the payload.
    """
    if _timer is not None:
        t0 = time.monotonic_ns()
        msg = _decode_frame(data)
        _timer("decode", time.monotonic_ns() - t0)
        return msg
    return _decode_frame(data)


def _decode_frame(data: bytes) -> Message:
    if len(data) < _HEADER.size:
        raise WireError(f"frame too short for header ({len(data)} bytes)")
    magic, version, _flags, msg_id, src, dst, size_bytes, type_len = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    pos = _HEADER.size + type_len
    if pos > len(data):
        raise _truncated(data, _HEADER.size, type_len)
    try:
        msg_type = data[_HEADER.size:pos].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in message type: {exc}") from None
    payload, pos = _decode_value(data, pos, 0)
    if not isinstance(payload, dict):
        raise WireError(
            f"frame payload must be a dict, got {type(payload).__name__}")
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return Message(msg_type=msg_type, src=src, dst=dst, payload=payload,
                   size_bytes=size_bytes, msg_id=msg_id)


def peek_route(frame: bytes) -> Tuple[int, int]:
    """(src, dst) of a frame (without prefix), without decoding it."""
    if len(frame) < _ROUTE_OFFSET + _ROUTE.size:
        raise WireError("frame too short to carry a route")
    return _ROUTE.unpack_from(frame, _ROUTE_OFFSET)


def peek_msg_id(frame: bytes) -> int:
    """The msg_id of a frame (without prefix), without decoding it."""
    if len(frame) < _ROUTE_OFFSET:
        raise WireError("frame too short to carry a msg_id")
    return struct.unpack_from(">Q", frame, 4)[0]


def frame_with_prefix(frame: bytes) -> bytes:
    """Re-attach the stream length prefix to a decoded-out frame."""
    return _PREFIX.pack(len(frame)) + frame


class FrameDecoder:
    """Incremental stream reassembler: feed socket bytes, get frames.

    Yields complete frames *without* their length prefix, in order.
    State survives arbitrary chunking (a frame may arrive one byte at a
    time or many frames may arrive in one ``recv``).
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Absorb ``data``; yield every frame completed by it."""
        self._buf.extend(data)
        while True:
            if len(self._buf) < _PREFIX.size:
                return
            (length,) = _PREFIX.unpack_from(self._buf, 0)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
            if len(self._buf) < _PREFIX.size + length:
                return
            # One copy per frame, buffer -> bytes; the view is released
            # before the ``del`` so the buffer stays resizable.
            with memoryview(self._buf) as view:
                frame = bytes(view[_PREFIX.size:_PREFIX.size + length])
            del self._buf[:_PREFIX.size + length]
            yield frame

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buf)
