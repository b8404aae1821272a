"""Twin/diff machinery for the multiple-writer protocol.

Before the first write after (re)validation, the writer snapshots the
object (*twin*).  At interval end (a release), the diff between the live
object and its twin is encoded field-by-field — this is the generated
``DSM_diff`` of Figure 2 — shipped to the object's home, applied to the
master copy, and the twin is refreshed.  Diffs carry only changed slots,
so write traffic scales with modified data, not object size.

Every routine works on a slot range ``[lo, hi)`` of the object (default:
all of it) — the §4.3 extension's array regions are just narrower
ranges.  Slot indices in a diff are relative to ``lo``, so a whole array
and its slice ``[0, len)`` encode identically.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..heap import ArrayObj
from .serialization import (
    ClassSpec,
    Reader,
    Resolver,
    SerializationError,
    Writer,
    kind_of_type,
    read_value,
    write_value,
)


#: Slots per C-level slice compare in :func:`compute_diff`.
_CHUNK = 256


def make_twin(ref: Any, lo: int = 0, hi: Optional[int] = None) -> list:
    """Snapshot an object's mutable slots (shallow, like the paper's twin)."""
    return _slots_of(ref)[lo:hi]


def _slots_of(ref: Any) -> list:
    return ref.data if isinstance(ref, ArrayObj) else ref.fields


def _kinds_of(ref: Any, spec: Optional[ClassSpec]) -> Tuple[str, Tuple[str, ...]]:
    """``(uniform, per_slot)`` kinds: an array has the one, an instance
    the other (then ``uniform`` is empty)."""
    if isinstance(ref, ArrayObj):
        return kind_of_type(ref.elem_type), ()
    if spec is None:
        raise SerializationError(f"no spec for {ref.class_name}")
    return "", spec.kinds


def compute_diff(
    ref: Any,
    twin: list,
    spec: Optional[ClassSpec],
    resolver: Resolver,
    lo: int = 0,
    hi: Optional[int] = None,
) -> Optional[bytes]:
    """Encode changed slots of ``ref[lo:hi]`` relative to ``twin``.

    Returns ``None`` when nothing changed.  Encoding: 4-byte count, then
    per entry a 4-byte slot index (relative to ``lo``) and the value in
    its field kind.
    """
    slots = _slots_of(ref)
    if lo or hi is not None:
        slots = slots[lo:hi]
    if len(slots) != len(twin):
        # Arrays cannot be resized in Java; a length change means the twin
        # is stale (protocol bug), so fail loudly.
        raise SerializationError(
            f"twin length mismatch for {ref.class_name}: "
            f"{len(twin)} vs {len(slots)}"
        )
    # Refs compare by identity at the VM level, values by equality.  List
    # ``!=`` applies that same test per element, in C, so only the chunks
    # holding a change are scanned slot by slot.
    changed = [base + i for base in range(0, len(slots), _CHUNK)
               if (s := slots[base:base + _CHUNK]) != (t := twin[base:base + _CHUNK])
               for i, (a, b) in enumerate(zip(s, t))
               if a is not b and a != b]
    if not changed:
        return None
    uniform, kinds = _kinds_of(ref, spec)
    w = Writer()
    w.u32(len(changed))
    for i in changed:
        w.u32(i)
        write_value(w, uniform or kinds[lo + i], slots[i], resolver)
    return w.getvalue()


def apply_diff(
    ref: Any,
    spec: Optional[ClassSpec],
    data: bytes,
    resolver: Resolver,
    lo: int = 0,
    hi: Optional[int] = None,
) -> int:
    """Apply an encoded diff of ``ref[lo:hi]`` to a master copy; returns
    #slots changed.  A rejected diff installs nothing."""
    slots = _slots_of(ref)
    uniform, kinds = _kinds_of(ref, spec)
    end = len(slots) if hi is None else min(hi, len(slots))
    r = Reader(data)
    patch = []
    for _ in range(r.u32()):
        idx = lo + r.u32()
        if idx >= end:
            raise SerializationError(
                f"diff index {idx} out of range for {ref.class_name}"
            )
        patch.append((idx, read_value(r, uniform or kinds[idx], resolver)))
    r.finish()
    for idx, value in patch:
        slots[idx] = value
    return len(patch)


def diff_entry_count(data: bytes) -> int:
    """Number of slots in an encoded diff (stats helper)."""
    return Reader(data).u32()
