"""Class-specific serialization (the generated ``DSM_serialize`` /
``DSM_deserialize`` methods of Figure 2).

The paper rejects Java's built-in serialization (deep copies, reflection
overhead) in favour of per-class generated methods that write exactly the
object's own fields, shipping references as 64-bit global ids.  Here a
:class:`ClassSpec` is the generated artefact: an ordered list of field
kinds matching the class's field layout; :func:`serialize_object` /
:func:`deserialize_into` interpret it.  Arrays serialize per element
kind.  Everything produces real ``bytes`` so network cost accounting is
exact.

Reference fields need the environment to map refs ↔ gids and to create
invalid stub replicas for not-yet-seen objects; that is the
:class:`Resolver` protocol, implemented by the DSM engine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Protocol, Sequence, Tuple

from ..heap import ArrayObj, Obj

# Field kinds
K_INT = "i"      # ints and booleans
K_DOUBLE = "d"
K_STR = "s"
K_REF = "r"

_S64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

#: ``struct`` code of the element kinds an array slice packs in one call.
_BULK = {K_INT: "q", K_DOUBLE: "d"}


class SerializationError(ValueError):
    """Malformed or unserializable data."""
    pass


def kind_of_type(t: str) -> str:
    """Map a declared mini-JVM type to a serialization kind."""
    if t in ("int", "boolean"):
        return K_INT
    if t == "double":
        return K_DOUBLE
    if t == "str":
        return K_STR
    return K_REF  # classes and arrays


@dataclass(frozen=True)
class ClassSpec:
    """Generated serializer spec for one class: field kinds in layout
    order (inherited fields first, exactly like the runtime layout)."""

    class_name: str
    kinds: Tuple[str, ...]
    field_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        bad = [k for k in self.kinds if k not in (K_INT, K_DOUBLE, K_STR, K_REF)]
        if bad:
            raise SerializationError(f"bad field kinds {bad}")


class Resolver(Protocol):
    """Environment hooks for reference (de)serialization."""

    def gid_for(self, ref: Any) -> int:
        """Global id of a heap object, promoting it to shared if needed."""
        ...

    def class_id_for(self, class_name: str) -> int: ...

    def class_name_for(self, class_id: int) -> str: ...

    def replica_for(self, gid: int, class_name: str) -> Any:
        """Local replica for a gid, creating an INVALID stub if unseen."""
        ...


class Writer:
    """Append-only big-endian byte writer."""
    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def s64(self, value: int) -> None:
        """Signed 64-bit integer."""
        if not (_INT_MIN <= value <= _INT_MAX):
            raise SerializationError(f"int {value} exceeds 64 bits")
        self._parts.append(_S64.pack(value))

    def u32(self, value: int) -> None:
        """Unsigned 32-bit integer."""
        self._parts.append(_U32.pack(value))

    def f64(self, value: float) -> None:
        """IEEE-754 double."""
        self._parts.append(_F64.pack(value))

    def string(self, value: Optional[str]) -> None:
        """Optional UTF-8 string (1-byte null flag + length + bytes)."""
        if value is None:
            self._parts.append(b"\x00")
        else:
            raw = value.encode("utf-8")
            self._parts.append(b"\x01")
            self.u32(len(raw))
            self._parts.append(raw)

    def raw(self, data: bytes) -> None:
        """Append raw bytes."""
        self._parts.append(data)

    def getvalue(self) -> bytes:
        """The accumulated bytes."""
        return b"".join(self._parts)


class Reader:
    """Sequential reader matching Writer's encodings."""
    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _short(self) -> SerializationError:
        return SerializationError(
            f"payload truncated at byte {self._pos} of {len(self._data)}")

    def s64(self) -> int:
        """Signed 64-bit integer."""
        try:
            v = _S64.unpack_from(self._data, self._pos)[0]
        except struct.error:
            raise self._short() from None
        self._pos += 8
        return v

    def u32(self) -> int:
        """Unsigned 32-bit integer."""
        try:
            v = _U32.unpack_from(self._data, self._pos)[0]
        except struct.error:
            raise self._short() from None
        self._pos += 4
        return v

    def f64(self) -> float:
        """IEEE-754 double."""
        try:
            v = _F64.unpack_from(self._data, self._pos)[0]
        except struct.error:
            raise self._short() from None
        self._pos += 8
        return v

    def string(self) -> Optional[str]:
        """Optional UTF-8 string (1-byte null flag + length + bytes)."""
        flag = self._data[self._pos:self._pos + 1]
        self._pos += 1
        if flag == b"\x00":
            return None
        n = self.u32()
        raw = self._data[self._pos:self._pos + n]
        if len(raw) != n:
            raise self._short()
        self._pos += n
        return raw.decode("utf-8")

    def finish(self) -> None:
        """The payload must end here: trailing bytes are malformed."""
        if self._pos < len(self._data):
            raise SerializationError(
                f"{len(self._data) - self._pos} bytes after end of payload")


# ---------------------------------------------------------------------------
# Value-level encode/decode
# ---------------------------------------------------------------------------
def write_value(w: Writer, kind: str, value: Any, resolver: Resolver) -> None:
    """Encode one field value by kind (refs become gids)."""
    if kind == K_INT:
        w.s64(int(value))
    elif kind == K_DOUBLE:
        w.f64(float(value))
    elif kind == K_STR:
        w.string(value)
    else:  # K_REF
        if value is None:
            w.s64(0)
            w.u32(0)
        elif isinstance(value, str):
            # A str stored in an Object-typed slot: inline, tagged with
            # the reserved class id 0xFFFFFFFF.
            w.s64(-1)
            w.u32(0xFFFFFFFF)
            w.string(value)
        else:
            gid = resolver.gid_for(value)
            w.s64(gid)
            w.u32(resolver.class_id_for(value.class_name))


def read_value(r: Reader, kind: str, resolver: Resolver) -> Any:
    """Decode one field value by kind (gids become replicas)."""
    if kind == K_INT:
        return r.s64()
    if kind == K_DOUBLE:
        return r.f64()
    if kind == K_STR:
        return r.string()
    gid = r.s64()
    class_id = r.u32()
    if gid == 0:
        return None
    if gid == -1 and class_id == 0xFFFFFFFF:
        return r.string()
    return resolver.replica_for(gid, resolver.class_name_for(class_id))


# ---------------------------------------------------------------------------
# Whole-object serialization
# ---------------------------------------------------------------------------
def serialize_object(obj: Obj, spec: ClassSpec, resolver: Resolver) -> bytes:
    """Encode an instance's fields per its ClassSpec."""
    if len(obj.fields) != len(spec.kinds):
        raise SerializationError(
            f"{spec.class_name}: layout has {len(obj.fields)} fields but "
            f"spec has {len(spec.kinds)}"
        )
    w = Writer()
    for kind, value in zip(spec.kinds, obj.fields):
        write_value(w, kind, value, resolver)
    return w.getvalue()


def deserialize_into(obj: Obj, spec: ClassSpec, data: bytes, resolver: Resolver) -> None:
    """Decode into an existing instance, field by field (all or nothing)."""
    r = Reader(data)
    values = [read_value(r, kind, resolver) for kind in spec.kinds]
    r.finish()
    obj.fields[:len(values)] = values


def serialize_array(arr: ArrayObj, resolver: Resolver, lo: int = 0,
                    hi: Optional[int] = None) -> bytes:
    """Encode elements [lo, hi) of an array (default: all of it): count,
    then elements by kind.  A whole array *is* the slice [0, len)."""
    kind = kind_of_type(arr.elem_type)
    values = arr.data[lo:hi]
    if kind in _BULK:
        try:
            return struct.pack(f">I{len(values)}{_BULK[kind]}",
                               len(values), *values)
        except struct.error:
            pass  # a value to coerce or reject: the loop below owns both
    w = Writer()
    w.u32(len(values))
    for value in values:
        write_value(w, kind, value, resolver)
    return w.getvalue()


def deserialize_array(arr: ArrayObj, data: bytes, resolver: Resolver,
                      lo: int = 0) -> None:
    """Decode an encoded slice into an array's element storage from
    ``lo`` on (a stub grows to the decoded length)."""
    kind = kind_of_type(arr.elem_type)
    r = Reader(data)
    n = r.u32()
    if kind in _BULK and len(data) == 4 + 8 * n:
        arr.data[lo:lo + n] = struct.unpack_from(f">{n}{_BULK[kind]}", data, 4)
        return
    values = [read_value(r, kind, resolver) for _ in range(n)]
    r.finish()
    arr.data[lo:lo + n] = values


def serialize_any(ref: Any, spec: Optional[ClassSpec], resolver: Resolver,
                  lo: int = 0, hi: Optional[int] = None) -> bytes:
    """Serialize an instance (needs its spec) or slots [lo, hi) of an
    array (default: all; only arrays are ever split)."""
    if isinstance(ref, ArrayObj):
        return serialize_array(ref, resolver, lo, hi)
    if spec is None:
        raise SerializationError(f"no serializer spec for {ref.class_name}")
    return serialize_object(ref, spec, resolver)


def deserialize_any(ref: Any, spec: Optional[ClassSpec], data: bytes,
                    resolver: Resolver, lo: int = 0) -> None:
    """Deserialize into an instance (via spec) or into an array from
    element ``lo`` on."""
    if isinstance(ref, ArrayObj):
        deserialize_array(ref, data, resolver, lo)
    else:
        if spec is None:
            raise SerializationError(f"no serializer spec for {ref.class_name}")
        deserialize_into(ref, spec, data, resolver)
