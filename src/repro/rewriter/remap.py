"""Instruction-expansion with branch-target remapping.

Every rewriter pass that inserts or replaces instructions changes the pc
of everything after the edit; this helper applies a per-instruction
expansion function and then fixes all branch targets, so passes stay
declarative (old instruction → replacement sequence).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..jvm.bytecode import BRANCHES, Instr, branch_target, retarget
from ..jvm.classfile import MethodInfo

ExpandFn = Callable[[Instr, int], Sequence[Instr]]


def expand_code(method: MethodInfo, expand: ExpandFn) -> None:
    """Rewrite ``method.code`` in place via ``expand``.

    ``expand(instr, pc)`` returns the replacement sequence (commonly
    ``[instr]``; the original instruction object may be reused; an empty
    sequence deletes the instruction).  Branch targets are remapped to
    the new pc of the *start* of each old instruction's replacement — or,
    for a deleted instruction, of its successor — which is correct for
    inserted prefixes (checks run when a branch lands on the access),
    expanded sequences, and deletions of non-branch instructions.
    """
    old_code = method.code
    new_code: List[Instr] = []
    pc_map: List[int] = []
    for pc, instr in enumerate(old_code):
        pc_map.append(len(new_code))
        replacement = expand(instr, pc)
        new_code.extend(replacement)
    for instr in new_code:
        if instr.op in BRANCHES and isinstance(branch_target(instr), int):
            retarget(instr, pc_map[branch_target(instr)])
    method.code = new_code
