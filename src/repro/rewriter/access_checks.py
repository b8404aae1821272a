"""Access-check insertion (§4, Figure 3).

Before every heap access — field read/write, array load/store, array
length — the rewriter inserts a DSM check that peeks the object
reference at the correct stack depth and falls through when the replica
is valid.  The access itself is flagged ``checked`` so the interpreter
bills the rewritten access cost (Table 1's methodology).

Accesses to ``volatile`` fields are additionally bracketed by
acquire/release on the holder object, mapping volatiles onto the
release-acquire semantics of the revised JMM exactly as §3 prescribes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..jvm.bytecode import STACK_EFFECT, Instr, Op
from ..jvm.classfile import ClassFile, FieldInfo, MethodInfo
from .remap import expand_code


class FieldTable:
    """(class, field) resolution across the rewritten class hierarchy."""

    def __init__(self, classfiles: Dict[str, ClassFile]) -> None:
        self._classfiles = classfiles

    def find(self, class_name: str, field_name: str) -> Optional[FieldInfo]:
        current: Optional[str] = class_name
        while current is not None:
            cf = self._classfiles.get(current)
            if cf is None:
                return None
            f = cf.field(field_name)
            if f is not None:
                return f
            current = cf.super_name
        return None


def insert_access_checks(cf: ClassFile, fields: FieldTable) -> Dict[str, int]:
    """Instrument all methods of one class; returns per-kind check counts."""
    counts = {"read": 0, "write": 0, "volatile": 0}
    for method in cf.methods.values():
        if method.is_native or not method.code:
            continue
        _instrument_method(method, fields, counts)
    cf.instrumented = True
    return counts


# Heap accesses and the check each gets.  The checked reference sits
# under the access's other operands: ``pops - 1`` below the top.
_ACCESS_KIND = {
    Op.GETFIELD: "read", Op.ARRLOAD: "read", Op.ARRAYLENGTH: "read",
    Op.PUTFIELD: "write", Op.ARRSTORE: "write",
}
_CHECK_OP = {"read": Op.DSM_READCHECK, "write": Op.DSM_WRITECHECK}


def _instrument_method(method: MethodInfo, fields: FieldTable, counts) -> None:
    def expand(instr: Instr, pc: int):
        kind = _ACCESS_KIND.get(instr.op)
        if kind is None or instr.checked:
            return [instr]  # checked: hand-instrumented (bootstrap code)
        if instr.op in (Op.GETFIELD, Op.PUTFIELD):
            f = fields.find(instr.a, instr.b)
            if f is not None and f.volatile:
                counts["volatile"] += 1
                wrap = _volatile_read if kind == "read" else _volatile_write
                return wrap(instr)
        counts[kind] += 1
        instr.checked = True
        depth = STACK_EFFECT[instr.op][0] - 1
        return [Instr(_CHECK_OP[kind], depth, line=instr.line), instr]

    expand_code(method, expand)


def _volatile_read(instr: Instr):
    """[ref] → acquire; checked read; release → [value].

    Encapsulates the access in an acquire-release block (§3), giving the
    volatile read acquire semantics: the token transfer delivers the
    write notices that invalidate stale replicas.
    """
    instr.checked = True
    line = instr.line
    return [
        Instr(Op.DUP, line=line),
        Instr(Op.DSM_ACQUIRE, line=line),
        Instr(Op.DUP, line=line),
        Instr(Op.DSM_READCHECK, 0, line=line),
        instr,                              # [ref, value]
        Instr(Op.SWAP, line=line),
        Instr(Op.DSM_RELEASE, line=line),   # [value]
    ]


def _volatile_write(instr: Instr):
    """[ref, value] → acquire; checked write; release → []."""
    instr.checked = True
    line = instr.line
    return [
        Instr(Op.SWAP, line=line),          # [value, ref]
        Instr(Op.DUP, line=line),           # [value, ref, ref]
        Instr(Op.DSM_ACQUIRE, line=line),   # [value, ref]
        Instr(Op.DUP_X1, line=line),        # [ref, value, ref]
        Instr(Op.SWAP, line=line),          # [ref, ref, value]
        Instr(Op.DSM_WRITECHECK, 1, line=line),
        instr,                              # [ref]
        Instr(Op.DSM_RELEASE, line=line),
    ]
