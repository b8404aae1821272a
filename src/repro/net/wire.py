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
  or corrupt frame must raise :class:`WireError`, never an unbounded
  allocation or a silent mis-parse (the version byte exists so a future
  layout change is detected instead of mis-decoded).
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
from typing import Any, Callable, Iterator, List, Optional, Tuple

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


class WireError(ValueError):
    """A frame could not be encoded or decoded."""


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
def _encode_value(out: List[bytes], value: Any) -> None:
    # bool before int: bool is an int subclass.
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_T_INT)
            out.append(_S64.pack(value))
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True)
            out.append(_T_BIGINT)
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out.append(_U32.pack(len(value)))
        out.append(bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, (set, frozenset)):
        out.append(_T_SET if isinstance(value, set) else _T_FROZENSET)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out.append(_U32.pack(len(value)))
        for k, v in value.items():
            _encode_value(out, k)
            _encode_value(out, v)
    else:
        raise WireError(
            f"cannot encode {type(value).__name__} on the wire "
            f"(payloads must be flattened to plain data first)")


class _Cursor:
    """Bounds-checked sequential reader over one frame's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise WireError(
                f"truncated frame: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def _decode_value(cur: _Cursor) -> Any:
    tag = cur.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _S64.unpack(cur.take(8))[0]
    if tag == _T_BIGINT:
        return int.from_bytes(cur.take(cur.u32()), "big", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(cur.take(8))[0]
    if tag == _T_STR:
        raw = cur.take(cur.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 in string: {exc}") from None
    if tag == _T_BYTES:
        return cur.take(cur.u32())
    if tag in (_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET):
        n = cur.u32()
        items = [_decode_value(cur) for _ in range(n)]
        if tag == _T_LIST:
            return items
        if tag == _T_TUPLE:
            return tuple(items)
        if tag == _T_SET:
            return set(items)
        return frozenset(items)
    if tag == _T_DICT:
        n = cur.u32()
        out = {}
        for _ in range(n):
            k = _decode_value(cur)
            out[k] = _decode_value(cur)
        return out
    raise WireError(f"unknown value tag {tag!r} at offset {cur.pos - 1}")


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
    _encode_value(parts, msg.payload)
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
    cur = _Cursor(data)
    cur.pos = _HEADER.size
    try:
        type_raw = cur.take(type_len)
        msg_type = type_raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in message type: {exc}") from None
    payload = _decode_value(cur)
    if not isinstance(payload, dict):
        raise WireError(
            f"frame payload must be a dict, got {type(payload).__name__}")
    if cur.pos != len(data):
        raise WireError(
            f"{len(data) - cur.pos} trailing bytes after payload")
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
