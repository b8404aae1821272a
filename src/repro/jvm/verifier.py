"""Lightweight structural bytecode verifier.

Catches compiler/rewriter bugs at class-load time rather than as weird
interpreter states: branch targets in range, consistent operand-stack
depths along all paths, no stack underflow and no fall-off-the-end (the
shared walk, :func:`repro.jvm.cfg.stack_depths`), plus what only a class
loader checks: local indices in bounds, access checks peeking inside
the stack, and DSM pseudo-instructions only in instrumented classes.

Method references are resolved through a class-file dictionary (arity is
needed for invoke stack effects); unresolvable references are an error —
a rewritten class referring to an un-rewritten one is exactly the kind of
bug this exists to catch.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .bytecode import DSM_OPS, Op
from .cfg import invoke_effect, stack_depths
from .classfile import ClassFile, MethodInfo, resolve_method
from .errors import ClassFormatError


class Verifier:
    """Verifies class files against a resolution context."""

    def __init__(self, classfiles: Dict[str, ClassFile]) -> None:
        self._classfiles = classfiles

    # ------------------------------------------------------------------
    def verify_all(self) -> None:
        """Verify every class in the table."""
        for cf in self._classfiles.values():
            self.verify_class(cf)

    def verify_class(self, cf: ClassFile) -> None:
        """Verify all non-native methods of one class."""
        for method in cf.methods.values():
            if not method.is_native:
                self.verify_method(cf, method)

    # ------------------------------------------------------------------
    def verify_method(self, cf: ClassFile, method: MethodInfo) -> None:
        """Verify one method: branches, stack depths, locals, DSM ops."""
        depth_at = stack_depths(
            method, lambda pc, instr: invoke_effect(
                resolve_method(self._classfiles, instr.a, instr.b)))
        # What only a class loader cares about, at every reachable pc.
        where = f"{cf.name}.{method.name}"
        for pc, instr in enumerate(method.code):
            depth = depth_at[pc]
            if depth is None:
                continue
            op = instr.op
            if op in DSM_OPS and not cf.instrumented:
                raise ClassFormatError(
                    f"{where} pc={pc}: DSM opcode {op.name} in an "
                    f"un-instrumented class"
                )
            if op in (Op.LOAD, Op.STORE, Op.IINC):
                if not isinstance(instr.a, int) or not (
                    0 <= instr.a < method.max_locals
                ):
                    raise ClassFormatError(
                        f"{where} pc={pc}: local index {instr.a!r} out of "
                        f"range (max_locals={method.max_locals})"
                    )
            if op in (Op.DSM_READCHECK, Op.DSM_WRITECHECK):
                if not isinstance(instr.a, int) or instr.a < 0 or depth <= instr.a:
                    raise ClassFormatError(
                        f"{where} pc={pc}: check depth {instr.a!r} exceeds "
                        f"stack depth {depth}"
                    )


def verify_classfiles(classfiles: Iterable[ClassFile]) -> None:
    """Verify a self-contained batch of class files."""
    table = {cf.name: cf for cf in classfiles}
    Verifier(table).verify_all()
