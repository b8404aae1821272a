"""Array handling (§4.3).

Java arrays cannot be subclassed, so the paper wraps each utilized array
type in a generated ``javasplit.array.T`` class that carries the DSM
header fields plus a reference to the underlying array.  In this VM,
array objects can carry DSM headers directly (see
:mod:`repro.heap`), so the wrapper's *data* role disappears — but
its *type* role remains: the DSM needs a per-element-type descriptor to
serialize, diff and identify array coherency units on the wire.

This pass therefore performs the §4.3 discovery step — enumerate every
array type the application can utilize — and registers one descriptor
(the class-id registry entry and the element-kind used by the
serializer) per type, which is exactly the per-type artefact the paper's
wrapper generation produces.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..jvm.bytecode import Op
from ..jvm.classfile import ClassFile, is_array_type


def collect_array_types(classfiles: Dict[str, ClassFile]) -> Set[str]:
    """Every array type name (``T[]``) the rewritten application can
    create or hold, including nested element levels."""
    found: Set[str] = set()

    def add(t: str) -> None:
        while is_array_type(t):
            found.add(t)
            t = t[:-2]

    for cf in classfiles.values():
        for f in cf.fields:
            add(f.type)
        for m in cf.methods.values():
            for p in m.params:
                add(p)
            add(m.ret)
            for instr in m.code:
                if instr.op is Op.NEWARRAY:
                    add(instr.a + "[]")
                elif instr.op is Op.CHECKCAST or instr.op is Op.INSTANCEOF:
                    add(instr.a)
    return found
