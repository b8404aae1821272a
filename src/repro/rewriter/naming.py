"""Class renaming: the parallel ``javasplit.*`` hierarchy (§4).

Every class of the input application (and every bootstrap class it
references) gets a rewritten twin named ``javasplit.<name>``; all
referenced class names inside field types, method signatures and
instructions are redirected, so the distributed execution never touches
an original class.
"""

from __future__ import annotations

from typing import Dict

from ..heap import PREFIX
from ..jvm.bytecode import INVOKES, Instr, Op
from ..jvm.classfile import ClassFile

_PRIMITIVES = frozenset({"int", "double", "boolean", "str", "void"})

# Instruction operands that name classes / types.
_CLASS_A_OPS = frozenset({
    Op.NEW, Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC,
    Op.INSTANCEOF, Op.CHECKCAST, Op.DSM_STATICREF,
}) | INVOKES


def rename_type(t: str) -> str:
    """Rename a declared type (array components included)."""
    suffix = ""
    base = t
    while base.endswith("[]"):
        base = base[:-2]
        suffix += "[]"
    if base in _PRIMITIVES or base.startswith(PREFIX):
        return t
    return PREFIX + base + suffix


def rename_class(cf: ClassFile) -> ClassFile:
    """Produce the renamed copy of one class file."""
    out = cf.copy()
    out.name = rename_type(cf.name)
    if cf.super_name is not None:
        out.super_name = rename_type(cf.super_name)
    for f in out.fields:
        f.type = rename_type(f.type)
    for m in out.methods.values():
        m.klass = out.name
        m.params = [rename_type(p) for p in m.params]
        m.ret = rename_type(m.ret)
        for instr in m.code:
            _rename_instr(instr)
    return out


def _rename_instr(instr: Instr) -> None:
    if instr.op is Op.NEWARRAY:
        instr.a = rename_type(instr.a)
    elif instr.op in _CLASS_A_OPS:
        instr.a = rename_type(instr.a)
