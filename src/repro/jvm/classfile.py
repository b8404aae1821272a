"""Class-file model: the artefact the compiler produces and the rewriter
transforms.

A :class:`ClassFile` is pure data (no linked state) so it can be shipped
between simulated nodes by the class registry and rewritten class-by-class
exactly as the paper's BCEL pass does.  Linking into a runnable
``RuntimeClass`` happens per-JVM in :mod:`repro.jvm.jvm`.

Types are plain strings: ``int``, ``double``, ``boolean``, ``str``,
``void``, class names, and ``T[]`` arrays.  Booleans are ints at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..heap import default_value
from .bytecode import Instr
from .errors import ClassFormatError

PRIMITIVES = ("int", "double", "boolean", "str")
OBJECT_CLASS = "Object"

# Method flags
F_STATIC = "static"
F_SYNCHRONIZED = "synchronized"
F_NATIVE = "native"
VALID_FLAGS = frozenset({F_STATIC, F_SYNCHRONIZED, F_NATIVE})

CONSTRUCTOR = "<init>"


def is_array_type(t: str) -> bool:
    """True for T[] type names."""
    return t.endswith("[]")


def array_elem_type(t: str) -> str:
    """Element type of an array type name (strips one [])."""
    if not is_array_type(t):
        raise ValueError(f"{t!r} is not an array type")
    return t[:-2]


def is_ref_type(t: str) -> bool:
    """True for reference types (classes, arrays, strings)."""
    return t == "str" or is_array_type(t) or t not in PRIMITIVES + ("void",)


@dataclass
class FieldInfo:
    """One declared field."""

    name: str
    type: str
    is_static: bool = False
    init: Any = None  # constant initializer (statics and instance fields)
    volatile: bool = False

    def initial_value(self) -> Any:
        """The field's starting value: its initializer or the type default."""
        return self.init if self.init is not None else default_value(self.type)


@dataclass
class MethodInfo:
    """One method: signature + bytecode (or a native marker)."""

    name: str
    params: List[str]
    ret: str
    code: List[Instr] = field(default_factory=list)
    max_locals: int = 0
    flags: frozenset = frozenset()
    klass: str = ""  # owning class name, set by ClassFile.add_method
    native_cache: Any = None  # resolved native fn (interpreter cache)
    #: (cut, factory, runs) of tier 0's fused runs (its ``codecache`` entry)
    fused: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.flags = frozenset(self.flags)
        # Hot-path constants, computed once.
        self.is_static = F_STATIC in self.flags
        self.is_native = F_NATIVE in self.flags
        self.is_synchronized = F_SYNCHRONIZED in self.flags
        #: stack slots consumed by a call (params + receiver)
        self.nargs = len(self.params) + (0 if self.is_static else 1)

    def copy(self) -> "MethodInfo":
        """Deep copy (fields and bytecode); the rewriter mutates copies."""
        return MethodInfo(
            name=self.name,
            params=list(self.params),
            ret=self.ret,
            code=[i.copy() for i in self.code],
            max_locals=self.max_locals,
            flags=self.flags,
            klass=self.klass,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        f = "/".join(sorted(self.flags))
        return f"MethodInfo({self.klass}.{self.name}({', '.join(self.params)}):{self.ret} {f})"


class ClassFile:
    """One class: name, superclass, fields, methods.

    Methods are keyed by name — the mini-language has no overloading,
    which keeps resolution (and the rewriter) honest and simple.
    """

    def __init__(
        self,
        name: str,
        super_name: Optional[str] = OBJECT_CLASS,
        is_bootstrap: bool = False,
    ) -> None:
        if not name:
            raise ClassFormatError("class name must be non-empty")
        self.name = name
        self.super_name = super_name if name != OBJECT_CLASS else None
        self.is_bootstrap = is_bootstrap
        self.fields: List[FieldInfo] = []
        self.methods: Dict[str, MethodInfo] = {}
        self.instrumented = False  # set by the rewriter

    # ------------------------------------------------------------------
    def add_field(self, f: FieldInfo) -> FieldInfo:
        """Declare a field; duplicate names are rejected."""
        if any(existing.name == f.name for existing in self.fields):
            raise ClassFormatError(f"duplicate field {self.name}.{f.name}")
        self.fields.append(f)
        return f

    def add_method(self, m: MethodInfo) -> MethodInfo:
        """Declare a method; duplicate names and bad flags are rejected."""
        if m.name in self.methods:
            raise ClassFormatError(f"duplicate method {self.name}.{m.name}")
        bad = set(m.flags) - VALID_FLAGS
        if bad:
            raise ClassFormatError(f"invalid method flags {bad} on {m.name}")
        m.klass = self.name
        self.methods[m.name] = m
        return m

    def field(self, name: str) -> Optional[FieldInfo]:
        """Find a field declared *in this class* by name, or None."""
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def instance_fields(self) -> List[FieldInfo]:
        """Declared instance fields, in declaration order."""
        return [f for f in self.fields if not f.is_static]

    def static_fields(self) -> List[FieldInfo]:
        """Declared static fields, in declaration order."""
        return [f for f in self.fields if f.is_static]

    def copy(self) -> "ClassFile":
        """Deep copy (fields and bytecode); the rewriter mutates copies."""
        cf = ClassFile(self.name, self.super_name, self.is_bootstrap)
        cf.instrumented = self.instrumented
        for f in self.fields:
            cf.fields.append(FieldInfo(f.name, f.type, f.is_static, f.init, f.volatile))
        for m in self.methods.values():
            cf.methods[m.name] = m.copy()
        return cf

    def wire_size(self) -> int:
        """Rough serialized size, for class-shipping network accounting."""
        size = 64 + len(self.name) + len(self.super_name or "")
        for f in self.fields:
            size += 16 + len(f.name) + len(f.type)
        for m in self.methods.values():
            size += 32 + len(m.name) + 8 * len(m.code)
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassFile({self.name} extends {self.super_name}, "
            f"{len(self.fields)} fields, {len(self.methods)} methods)"
        )


def resolve_method(
    classfiles: Dict[str, ClassFile], class_name: str, method_name: str
) -> MethodInfo:
    """The declaration a method reference resolves to: the first one
    along the superclass chain of ``class_name`` in a class-file table
    (``.klass`` names the declaring class).  A chain that leaves the
    table or declares no such method is a :exc:`ClassFormatError` —
    a rewritten class referring to an un-rewritten one, typically."""
    current: Optional[str] = class_name
    while current is not None:
        cf = classfiles.get(current)
        if cf is None:
            raise ClassFormatError(
                f"reference to unknown class {current!r} "
                f"(resolving {class_name}.{method_name})"
            )
        m = cf.methods.get(method_name)
        if m is not None:
            return m
        current = cf.super_name
    raise ClassFormatError(f"no method {class_name}.{method_name}")
