"""Programmatic bytecode assembler.

A small builder API over :class:`ClassFile` / :class:`MethodInfo` with
symbolic labels, used by the compiler backend, the bytecode rewriter's
hand-written bootstrap classes, and tests.  (The paper's analogue is
BCEL's generator API.)
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from .bytecode import BRANCHES, Instr, Op, branch_target, retarget
from .classfile import ClassFile, FieldInfo, MethodInfo
from .errors import ClassFormatError


class Label:
    """A forward-referencable branch target."""

    __slots__ = ("pc", "name")

    def __init__(self, name: str = "") -> None:
        self.pc: Optional[int] = None
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Label({self.name or id(self):#x}->{self.pc})"


class MethodBuilder:
    """Builds one method's instruction list, resolving labels at finish."""

    def __init__(
        self,
        name: str,
        params: Iterable[str] = (),
        ret: str = "void",
        flags: Iterable[str] = (),
        max_locals: Optional[int] = None,
    ) -> None:
        self.name = name
        self.params = list(params)
        self.ret_type = ret
        self.flags = frozenset(flags)
        self._code: List[Instr] = []
        self._max_locals = max_locals
        self._next_local = len(self.params) + (0 if "static" in self.flags else 1)

    # ------------------------------------------------------------------
    def emit(self, op: Op, a: Any = None, b: Any = None, line: int = 0) -> Instr:
        """Append one instruction; returns it for later patching."""
        instr = Instr(op, a, b, line=line)
        self._code.append(instr)
        return instr

    def label(self, name: str = "") -> Label:
        """Create an unbound label."""
        return Label(name)

    def mark(self, label: Label) -> Label:
        """Bind a label to the next instruction's pc."""
        if label.pc is not None:
            raise ClassFormatError(f"label {label} marked twice")
        label.pc = len(self._code)
        return label

    def alloc_local(self, count: int = 1) -> int:
        """Reserve local slots beyond the parameters; returns first index."""
        idx = self._next_local
        self._next_local += count
        return idx

    @property
    def pc(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._code)

    # Convenience emitters -------------------------------------------------
    def const(self, value: Any) -> Instr:
        """Push a literal."""
        return self.emit(Op.CONST, value)

    def load(self, idx: int) -> Instr:
        """Load a local slot."""
        return self.emit(Op.LOAD, idx)

    def store(self, idx: int) -> Instr:
        """Store into a local slot."""
        return self.emit(Op.STORE, idx)

    def goto(self, label: Label) -> Instr:
        """Unconditional branch."""
        return self.emit(Op.GOTO, label)

    def if_(self, cond: str, label: Label) -> Instr:
        """Branch comparing the top of stack against zero/null."""
        return self.emit(Op.IF, cond, label)

    def if_cmp(self, cond: str, label: Label) -> Instr:
        """Branch comparing the top two stack values."""
        return self.emit(Op.IF_CMP, cond, label)

    def invoke(self, kind: Op, klass: str, method: str) -> Instr:
        """Emit an invocation (INVOKEVIRTUAL / INVOKESTATIC / INVOKESPECIAL)."""
        return self.emit(kind, klass, method)

    def ret(self) -> Instr:
        """Emit RETURN (void)."""
        return self.emit(Op.RETURN)

    def retval(self) -> Instr:
        """Emit RETVAL (return the top of stack)."""
        return self.emit(Op.RETVAL)

    # ------------------------------------------------------------------
    def build(self) -> MethodInfo:
        """Resolve labels and produce the immutable MethodInfo."""
        for instr in self._code:  # single-use: patch in place
            target = branch_target(instr) if instr.op in BRANCHES else None
            if isinstance(target, Label):
                if target.pc is None:
                    raise ClassFormatError(
                        f"unresolved label in {self.name}: {target}"
                    )
                retarget(instr, target.pc)
        return MethodInfo(
            name=self.name,
            params=self.params,
            ret=self.ret_type,
            code=list(self._code),
            max_locals=max(self._max_locals or 0, self._next_local),
            flags=self.flags,
        )


class ClassBuilder:
    """Builds a :class:`ClassFile`."""

    def __init__(
        self,
        name: str,
        super_name: str = "Object",
        is_bootstrap: bool = False,
    ) -> None:
        self.classfile = ClassFile(name, super_name, is_bootstrap)

    def field(
        self,
        name: str,
        type_: str,
        is_static: bool = False,
        init: Any = None,
        volatile: bool = False,
    ) -> "ClassBuilder":
        self.classfile.add_field(FieldInfo(name, type_, is_static, init, volatile))
        return self

    def method(
        self,
        name: str,
        params: Iterable[str] = (),
        ret: str = "void",
        flags: Iterable[str] = (),
        max_locals: Optional[int] = None,
    ) -> MethodBuilder:
        """Start a method; call :meth:`finish` with the returned builder."""
        return MethodBuilder(name, params, ret, flags, max_locals=max_locals)

    def finish(self, mb: MethodBuilder) -> "ClassBuilder":
        """Build the method and add it to the class."""
        self.classfile.add_method(mb.build())
        return self

    def native_method(
        self,
        name: str,
        params: Iterable[str] = (),
        ret: str = "void",
        static: bool = False,
    ) -> "ClassBuilder":
        flags = {"native"} | ({"static"} if static else set())
        mb = MethodBuilder(name, params, ret, flags)
        self.classfile.add_method(mb.build())
        return self

    def build(self) -> ClassFile:
        """The finished class file."""
        return self.classfile
