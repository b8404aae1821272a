"""Heap records: instances, arrays, local monitors, and the errors they raise.

Both sides of the DSM seam touch these records: the mini-JVM executes
on them, the DSM engine (:mod:`repro.dsm`) twins, diffs, serializes and
installs them.  So they live in this core module, which imports neither
side, with the root of the VM error hierarchy that they raise (the rest
is :mod:`repro.jvm.errors`).

Every heap object carries two lazily-populated slots:

* ``monitor`` — a :class:`LocalMonitor` for plain single-JVM execution
  (un-instrumented mode).
* ``header`` — the DSM header the rewriter's logic attaches in
  distributed mode (state, version, 64-bit global id, lock counter; see
  :mod:`repro.dsm.objectstate`).  The paper adds these as synthetic
  fields at the top of each instrumented inheritance tree; for arrays —
  which cannot be subclassed in Java — it generates wrapper classes.  In
  our VM both instances and arrays are headerful heap objects, which
  preserves the wrapper's *purpose* (arrays become coherency units with
  DSM state) without the indirection; see DESIGN.md §2.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional


class JVMError(Exception):
    """Base class for all mini-JVM errors (load-time and run-time)."""


class JavaRuntimeError(JVMError):
    """Base for errors a Java program would see as a runtime exception."""

    java_name = "java.lang.RuntimeException"


class ArrayIndexError(JavaRuntimeError):
    """Array index outside [0, length)."""
    java_name = "java.lang.ArrayIndexOutOfBoundsException"


class NegativeArraySizeError(JavaRuntimeError):
    """Array allocation with a negative length."""
    java_name = "java.lang.NegativeArraySizeException"


def default_value(t: str) -> Any:
    """Java default field/array-element value for a declared type."""
    if t == "int" or t == "boolean":
        return 0
    if t == "double":
        return 0.0
    return None  # refs and strings


PREFIX = "javasplit."  # every rewritten class is javasplit.<name> (§4)


def original_name(t: str) -> str:
    """Strip the rewritten prefix (for reporting)."""
    return t.removeprefix(PREFIX)


class Obj:
    """An instance: fixed field slots laid out by its class.  ``rtclass``
    is any layout with a ``name`` and ``field_defaults`` (``(type,
    initializer)`` per slot): a linked ``RuntimeClass`` in the JVM."""

    __slots__ = ("rtclass", "fields", "header", "monitor")

    def __init__(self, rtclass: Any) -> None:
        self.rtclass = rtclass
        self.fields: List[Any] = [
            default_value(t) if init is None else init
            for t, init in rtclass.field_defaults
        ]
        self.header: Any = None
        self.monitor: Optional[LocalMonitor] = None

    @property
    def class_name(self) -> str:
        """The runtime type name of this heap object."""
        return self.rtclass.name

    def __repr__(self) -> str:
        return f"<{self.rtclass.name}@{id(self):#x}>"


class ArrayObj:
    """A one-dimensional array; element type drives defaults and
    serialization."""

    __slots__ = ("elem_type", "data", "header", "monitor")

    def __init__(self, elem_type: str, length: int) -> None:
        if length < 0:
            raise NegativeArraySizeError(f"array length {length}")
        self.elem_type = elem_type
        self.data: List[Any] = [default_value(elem_type)] * length
        self.header: Any = None
        self.monitor: Optional[LocalMonitor] = None

    @property
    def class_name(self) -> str:
        """The runtime type name of this heap object."""
        return self.elem_type + "[]"

    def __len__(self) -> int:
        return len(self.data)

    def get(self, index: int) -> Any:
        """Bounds-checked element read."""
        try:
            if index < 0:
                raise IndexError
            return self.data[index]
        except IndexError:
            raise ArrayIndexError(
                f"index {index}, length {len(self.data)}"
            ) from None

    def set(self, index: int, value: Any) -> None:
        """Bounds-checked element write."""
        if index < 0 or index >= len(self.data):
            raise ArrayIndexError(f"index {index}, length {len(self.data)}")
        self.data[index] = value

    def __repr__(self) -> str:
        return f"<{self.elem_type}[{len(self.data)}]@{id(self):#x}>"


class LocalMonitor:
    """A plain JVM monitor (un-instrumented execution).

    Re-entrant; an entry queue of threads blocked on ``monitorenter`` and
    a wait set for ``wait()``.  Grant policy is FIFO, which together with
    the deterministic engine makes runs replayable.
    """

    __slots__ = ("owner", "count", "entry_queue", "wait_set")

    def __init__(self) -> None:
        self.owner: Any = None          # JThread
        self.count: int = 0
        self.entry_queue: Deque[Any] = deque()
        self.wait_set: Deque[Any] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalMonitor(owner={self.owner}, count={self.count}, "
            f"entryq={len(self.entry_queue)}, waiters={len(self.wait_set)})"
        )


def monitor_of(ref: Any) -> LocalMonitor:
    """Get (lazily creating) the local monitor of a heap object."""
    m = ref.monitor
    if m is None:
        m = LocalMonitor()
        ref.monitor = m
    return m
