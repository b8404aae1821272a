"""Activation frames: operand stack + local variable slots."""

from __future__ import annotations

from typing import Any, List

from .classfile import MethodInfo


class Frame:
    """One method activation.

    Locals layout follows the JVM convention: for instance methods slot 0
    is ``this`` and parameters occupy slots 1..n; for static methods
    parameters start at slot 0; ``args`` becomes the locals, padded in
    place.  ``decoded`` and ``fused`` are the executing JVM's handler
    lists for ``method`` (per instruction, per run:
    :mod:`repro.jvm.interpreter`), filled in when the frame runs — a call
    passes ``fused`` in when its JVM has already built it.
    """

    __slots__ = ("method", "locals", "stack", "pc", "decoded", "fused")

    def __init__(self, method: MethodInfo, args: List[Any],
                 fused: Any = None) -> None:
        self.method = method
        args += [None] * (method.max_locals - len(args))  # padded in place
        self.locals: List[Any] = args
        self.stack: List[Any] = []
        self.pc: int = 0
        self.decoded: Any = None
        self.fused = fused

    def where(self) -> str:
        """Human-readable position, for error messages."""
        m = self.method
        line = ""
        if 0 <= self.pc < len(m.code) and m.code[self.pc].line:
            line = f" (line {m.code[self.pc].line})"
        return f"{m.klass}.{m.name} pc={self.pc}{line}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.where()}, stack={len(self.stack)})"
