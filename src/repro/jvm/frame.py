"""Activation frames: operand stack + local variable slots."""

from __future__ import annotations

from typing import Any, List

from .classfile import MethodInfo


class Frame:
    """One method activation.

    Locals layout follows the JVM convention: for instance methods slot 0
    is ``this`` and parameters occupy slots 1..n; for static methods
    parameters start at slot 0.  ``decoded`` and ``fused`` are the
    executing JVM's handler lists for ``method`` (per instruction, per
    run: :mod:`repro.jvm.interpreter`), filled in when the frame runs.
    """

    __slots__ = ("method", "locals", "stack", "pc", "decoded", "fused")

    def __init__(self, method: MethodInfo, args: List[Any]) -> None:
        self.method = method
        nlocals = max(method.max_locals, len(args))
        self.locals: List[Any] = args + [None] * (nlocals - len(args))
        self.stack: List[Any] = []
        self.pc: int = 0
        self.decoded: Any = None
        self.fused: Any = None

    def push(self, value: Any) -> None:
        """Push onto the operand stack."""
        self.stack.append(value)

    def pop(self) -> Any:
        """Pop the operand stack."""
        return self.stack.pop()

    def peek(self, depth: int = 0) -> Any:
        """Read the stack at a depth without popping."""
        return self.stack[-1 - depth]

    def where(self) -> str:
        """Human-readable position, for error messages."""
        m = self.method
        line = ""
        if 0 <= self.pc < len(m.code) and m.code[self.pc].line:
            line = f" (line {m.code[self.pc].line})"
        return f"{m.klass}.{m.name} pc={self.pc}{line}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.where()}, stack={len(self.stack)})"
