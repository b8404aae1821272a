"""Static-field transformation (§4.2).

For each class ``C`` with static fields the rewriter generates a holder
class ``C_static`` whose *instance* fields are C's statics; one shared
instance of the holder lives on the master node and is managed by the
very same coherency machinery as every other shared object.  Accesses
``getstatic C.f`` / ``putstatic C.f`` become: push the holder reference
(DSM_STATICREF — a cached per-node replica), access check, and an
ordinary checked field access on the holder.

The holder gids are assigned deterministically (sorted class order) so
every node computes the same mapping without negotiation; the master
node materializes the holders before ``main`` starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..jvm.bytecode import Instr, Op
from ..jvm.classfile import ClassFile, FieldInfo
from ..jvm.errors import ClassFormatError
from .remap import expand_code

HOLDER_SUFFIX = "_static"
OBJECT_CLASS = "javasplit.Object"


@dataclass(frozen=True)
class StaticHolderInfo:
    """Metadata the runtime needs to materialize the holders."""

    class_name: str        # the rewritten class owning the statics
    holder_class: str      # javasplit.C_static
    gid: int


def holder_class_name(class_name: str) -> str:
    return class_name + HOLDER_SUFFIX


def generate_holders(
    classfiles: Dict[str, ClassFile],
) -> Tuple[List[ClassFile], Dict[str, Tuple[int, str]]]:
    """Create holder class files and the deterministic gid map.

    Returns ``(holder_classfiles, static_gids)`` where ``static_gids``
    maps the owning class name to ``(gid, holder_class_name)``.
    """
    from ..dsm.directory import MASTER_NODE, NODE_SHIFT

    holders: List[ClassFile] = []
    static_gids: Dict[str, Tuple[int, str]] = {}
    with_statics = sorted(
        name for name, cf in classfiles.items() if cf.static_fields()
    )
    for idx, name in enumerate(with_statics):
        cf = classfiles[name]
        holder = ClassFile(holder_class_name(name), OBJECT_CLASS)
        holder.instrumented = True
        for f in cf.static_fields():
            holder.add_field(
                FieldInfo(f.name, f.type, is_static=False, init=f.init,
                          volatile=f.volatile)
            )
        gid = (MASTER_NODE << NODE_SHIFT) | (idx + 1)
        holders.append(holder)
        static_gids[name] = (gid, holder.name)
    return holders, static_gids


def strip_statics(cf: ClassFile) -> int:
    """Remove static fields from a rewritten class (they now live in the
    holder); returns how many were moved."""
    before = len(cf.fields)
    cf.fields = [f for f in cf.fields if not f.is_static]
    return before - len(cf.fields)


def rewrite_static_accesses(
    cf: ClassFile,
    static_gids: Dict[str, Tuple[int, str]],
) -> int:
    """Rewrite getstatic/putstatic into holder accesses; returns count."""
    count = 0

    def expand(instr: Instr, pc: int):
        nonlocal count
        if instr.op is Op.GETSTATIC:
            entry = static_gids.get(instr.a)
            if entry is None:
                raise ClassFormatError(
                    f"getstatic {instr.a}.{instr.b}: no holder generated"
                )
            count += 1
            _gid, holder = entry
            access = Instr(Op.GETFIELD, holder, instr.b, checked="static",
                           line=instr.line)
            return [
                Instr(Op.DSM_STATICREF, instr.a, line=instr.line),
                Instr(Op.DSM_READCHECK, 0, line=instr.line),
                access,
            ]
        if instr.op is Op.PUTSTATIC:
            entry = static_gids.get(instr.a)
            if entry is None:
                raise ClassFormatError(
                    f"putstatic {instr.a}.{instr.b}: no holder generated"
                )
            count += 1
            _gid, holder = entry
            access = Instr(Op.PUTFIELD, holder, instr.b, checked="static",
                           line=instr.line)
            return [
                # [value] -> [value, holder] -> [holder, value]
                Instr(Op.DSM_STATICREF, instr.a, line=instr.line),
                Instr(Op.SWAP, line=instr.line),
                Instr(Op.DSM_WRITECHECK, 1, line=instr.line),
                access,
            ]
        return [instr]

    for method in cf.methods.values():
        if method.code:
            expand_code(method, expand)
    return count
