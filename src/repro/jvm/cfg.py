"""How to walk a method: successors, basic blocks, operand-stack depths.

The verifier, the check eliminator, the tier-1 analysis and the
disassembler all need to know where control goes and how deep the
operand stack is; they ask here, so they cannot disagree.  What an
instruction *does* to the stack is :data:`~repro.jvm.bytecode.STACK_EFFECT`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from .bytecode import (
    BRANCHES,
    CONDITIONS,
    INVOKES,
    STACK_EFFECT,
    TERMINATORS,
    Instr,
    Op,
    branch_target,
)
from .classfile import MethodInfo
from .errors import ClassFormatError


def invoke_effect(target: MethodInfo) -> Tuple[int, int]:
    """``(pops, pushes)`` of an invoke that resolves to ``target``."""
    return target.nargs, 0 if target.ret == "void" else 1


def branch_targets(code: Sequence[Instr]) -> Set[int]:
    """Every pc some branch of ``code`` jumps to."""
    return {branch_target(i) for i in code if i.op in BRANCHES}


def successors(code: Sequence[Instr], pc: int) -> List[int]:
    """The pcs control can reach from ``pc``, branch target first."""
    op = code[pc].op
    succs = [branch_target(code[pc])] if op in BRANCHES else []
    if op not in TERMINATORS and pc + 1 < len(code):
        succs.append(pc + 1)
    return succs


def block_starts(code: Sequence[Instr]) -> List[int]:
    """Basic-block leaders in pc order: the entry, every branch target
    and the pc after every branch or return."""
    starts = {0} | branch_targets(code)
    starts.update(pc + 1 for pc, i in enumerate(code)
                  if i.op in BRANCHES or i.op in TERMINATORS)
    return sorted(s for s in starts if s < len(code))


def straight_runs(code: Sequence[Instr],
                  cuts: Set[int]) -> List[Tuple[int, int]]:
    """Straight-line runs ``(start_pc, end_pc_exclusive)`` in pc order:
    basic blocks, further cut around every pc in ``cuts``, which belong
    to no run.  Tier 0 fuses a run."""
    bounds = sorted({*block_starts(code), len(code), *cuts,
                     *(pc + 1 for pc in cuts)})
    return [(start, end) for start, end in zip(bounds, bounds[1:])
            if start not in cuts]


def stack_depths(
    method: MethodInfo,
    arity_of: Callable[[int, Instr], Optional[Tuple[int, int]]],
) -> List[Optional[int]]:
    """Operand-stack depth before each pc; None = unreachable.

    One worklist pass over all paths.  ``arity_of(pc, instr)`` resolves
    an invoke to its ``(pops, pushes)``, or to None when it cannot — the
    path then ends there.  Raises :exc:`ClassFormatError` unless the
    code is non-empty, cannot fall off its end, branches only to pcs
    inside it on known conditions, never pops more than the stack
    holds, and reaches every pc at one single depth — the invariant
    that lets tier 1 map the stack onto Python locals.
    """
    code = method.code
    where = f"{method.klass}.{method.name}"
    if not code:
        raise ClassFormatError(f"{where}: empty code")
    if code[-1].op not in TERMINATORS:
        raise ClassFormatError(f"{where}: can fall off the end of code")
    depth_at: List[Optional[int]] = [None] * len(code)
    depth_at[0] = 0
    worklist = [0]
    while worklist:
        pc = worklist.pop()
        depth = depth_at[pc]
        instr = code[pc]
        op = instr.op
        effect = arity_of(pc, instr) if op in INVOKES else STACK_EFFECT[op]
        if effect is None:
            continue
        pops, pushes = effect
        if depth < pops:
            raise ClassFormatError(
                f"{where} pc={pc}: stack underflow at {instr!r} "
                f"(depth {depth}, needs {pops})")
        if op in BRANCHES:
            target = branch_target(instr)
            if not isinstance(target, int) or not 0 <= target < len(code):
                raise ClassFormatError(
                    f"{where} pc={pc}: branch target {target!r} out of "
                    f"range")
            if op is not Op.GOTO and instr.a not in CONDITIONS:
                raise ClassFormatError(
                    f"{where} pc={pc}: bad condition {instr.a!r}")
        new_depth = depth - pops + pushes
        for s in successors(code, pc):
            if depth_at[s] is None:
                depth_at[s] = new_depth
                worklist.append(s)
            elif depth_at[s] != new_depth:
                raise ClassFormatError(
                    f"{where} pc={s}: inconsistent stack depth "
                    f"({depth_at[s]} vs {new_depth} arriving from pc {pc})")
    return depth_at
