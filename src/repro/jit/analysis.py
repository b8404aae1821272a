"""Static method analysis feeding the tier-1 compiler.

The codegen needs exactly what the verifier already proves: a single
consistent operand-stack depth at every reachable pc.  That invariant is
what lets the compiler map the operand stack onto Python locals
(``s0..s{k}``) instead of a list.  This module re-runs the verifier's
depth dataflow (resolving invoke arities through the *runtime* method
resolver, so virtual arity matches what the interpreter will use) and
classifies every instruction for the emitter:

* **pure** ops execute entirely inside a compiled run — no hooks, no
  blocking — and have their simulated cost pre-summed per run;
* **special** ops (DSM checks, acquire/release, monitors, invokes) can
  block or leave the method, so each is emitted as its own guarded
  segment with the interpreter's exact semantics;
* anything the compiler cannot bind at compile time (unresolvable
  method/field references) becomes a **deopt** site: the compiled
  function materializes the interpreter state and bails out.

Also exported: :func:`pre_summed_runs`, the per-block cost summary the
``disasm`` annotations and the emitter share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..jvm.bytecode import (
    BRANCHES,
    CONDITIONS,
    TERMINATORS,
    CostTables,
    Op,
    instr_cost,
)
from ..jvm.classfile import MethodInfo

# Ops a compiled run executes inline with no possibility of blocking and
# no runtime hook other than the race observer (which adds no cost).
PURE_OPS = frozenset({
    Op.CONST, Op.LOAD, Op.STORE, Op.IINC,
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.NEG,
    Op.SHL, Op.SHR, Op.USHR, Op.AND, Op.OR, Op.XOR, Op.CMP,
    Op.I2D, Op.D2I, Op.CONCAT,
    Op.POP, Op.DUP, Op.DUP_X1, Op.SWAP,
    Op.NEW, Op.NEWARRAY, Op.ARRAYLENGTH,
    Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC,
    Op.INSTANCEOF, Op.CHECKCAST,
    Op.ARRLOAD, Op.ARRSTORE,
    Op.GOTO, Op.IF, Op.IF_CMP, Op.RETURN, Op.RETVAL,
})

# Ops that can block the thread (or leave the frame) and therefore end a
# pre-summed run: each gets its own budget guard and exact-cost segment.
SPECIAL_OPS = frozenset({
    Op.DSM_READCHECK, Op.DSM_WRITECHECK, Op.DSM_STATICREF,
    Op.DSM_ACQUIRE, Op.DSM_RELEASE,
    Op.MONITORENTER, Op.MONITOREXIT,
    Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL,
})

_INVOKES = (Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL)

# Mirror of the verifier's stack-effect tables (see jvm/verifier.py);
# invokes are handled separately via the resolved method's arity.
_SIMPLE_DELTA = {
    Op.CONST: 1, Op.LOAD: 1, Op.STORE: -1, Op.IINC: 0,
    Op.ADD: -1, Op.SUB: -1, Op.MUL: -1, Op.DIV: -1, Op.REM: -1,
    Op.NEG: 0, Op.SHL: -1, Op.SHR: -1, Op.USHR: -1,
    Op.AND: -1, Op.OR: -1, Op.XOR: -1, Op.CMP: -1,
    Op.I2D: 0, Op.D2I: 0, Op.CONCAT: -1,
    Op.POP: -1, Op.DUP: 1, Op.DUP_X1: 1, Op.SWAP: 0,
    Op.GOTO: 0, Op.IF: -1, Op.IF_CMP: -2,
    Op.NEW: 1, Op.GETFIELD: 0, Op.PUTFIELD: -2,
    Op.GETSTATIC: 1, Op.PUTSTATIC: -1,
    Op.INSTANCEOF: 0, Op.CHECKCAST: 0,
    Op.RETURN: 0, Op.RETVAL: -1,
    Op.NEWARRAY: 0, Op.ARRLOAD: -1, Op.ARRSTORE: -3, Op.ARRAYLENGTH: 0,
    Op.MONITORENTER: -1, Op.MONITOREXIT: -1,
    Op.DSM_READCHECK: 0, Op.DSM_WRITECHECK: 0,
    Op.DSM_ACQUIRE: -1, Op.DSM_RELEASE: -1, Op.DSM_STATICREF: 1,
}


class CompileError(Exception):
    """This method cannot be compiled; it stays on the interpreter."""


@dataclass
class MethodAnalysis:
    """Everything the emitter needs to know about one method."""

    method: MethodInfo
    #: Operand-stack depth before each pc; None = unreachable.
    depth_at: List[Optional[int]]
    #: pcs that are branch targets (reachable).
    branch_targets: Set[int] = field(default_factory=set)
    #: Local slots read or written by the method body.
    used_locals: Set[int] = field(default_factory=set)
    #: Local slots written (STORE/IINC) — the only ones that need
    #: syncing back into the interpreter Frame on deopt.
    mutated_locals: Set[int] = field(default_factory=set)
    #: Resolved static call target per invoke pc (None = unresolvable,
    #: becomes a deopt site).
    invoke_targets: Dict[int, Optional[MethodInfo]] = field(
        default_factory=dict)


def analyze(method: MethodInfo, jvm) -> MethodAnalysis:
    """Run the depth dataflow and classify every instruction.

    Raises :exc:`CompileError` when the method has no code, is native,
    or violates any invariant the emitter depends on (none of which can
    happen for verifier-accepted code — belt and braces).
    """
    code = method.code
    if method.is_native or not code:
        raise CompileError(f"{method.klass}.{method.name}: no bytecode")
    n = len(code)
    if code[-1].op not in TERMINATORS:
        raise CompileError(f"{method.klass}.{method.name}: no terminator")

    ana = MethodAnalysis(method=method, depth_at=[None] * n)
    depth_at = ana.depth_at
    depth_at[0] = 0
    worklist = [0]
    while worklist:
        pc = worklist.pop()
        depth = depth_at[pc]
        instr = code[pc]
        op = instr.op

        if op not in PURE_OPS and op not in SPECIAL_OPS:
            raise CompileError(
                f"{method.klass}.{method.name} pc={pc}: "
                f"uncompilable op {op.name}")
        if op in (Op.IF, Op.IF_CMP) and instr.a not in CONDITIONS:
            raise CompileError(
                f"{method.klass}.{method.name} pc={pc}: "
                f"bad condition {instr.a!r}")
        if op in (Op.LOAD, Op.IINC):
            ana.used_locals.add(instr.a)
        if op in (Op.STORE, Op.IINC):
            ana.used_locals.add(instr.a)
            ana.mutated_locals.add(instr.a)

        if op in _INVOKES:
            # Resolve through the runtime resolver — the same walk the
            # interpreter caches — so arity and nativeness match what
            # will execute.  Unresolvable == deopt site: the forced
            # interpreter step reproduces the exact LinkError.
            try:
                target = jvm.resolve_method(instr.a, instr.b)
            except Exception:
                target = None
            ana.invoke_targets[pc] = target
            if target is None:
                # Depth unknowable past an unresolvable invoke; only
                # safe if nothing follows on this path.  Deopt stubs
                # return to the interpreter, which will raise — treat
                # successors as unreachable-from-here.
                continue
            pops = target.nargs
            pushes = 0 if target.ret == "void" else 1
            if depth < pops:
                raise CompileError(
                    f"{method.klass}.{method.name} pc={pc}: underflow")
            new_depth = depth - pops + pushes
        else:
            new_depth = depth + _SIMPLE_DELTA[op]
            if new_depth < 0 or depth + min(0, _SIMPLE_DELTA[op]) < 0:
                raise CompileError(
                    f"{method.klass}.{method.name} pc={pc}: underflow")

        succs = []
        if op in BRANCHES:
            target_pc = instr.a if op is Op.GOTO else instr.b
            if not isinstance(target_pc, int) or not (0 <= target_pc < n):
                raise CompileError(
                    f"{method.klass}.{method.name} pc={pc}: bad target")
            ana.branch_targets.add(target_pc)
            succs.append(target_pc)
        if op not in TERMINATORS:
            succs.append(pc + 1)

        for s in succs:
            if depth_at[s] is None:
                depth_at[s] = new_depth
                worklist.append(s)
            elif depth_at[s] != new_depth:
                raise CompileError(
                    f"{method.klass}.{method.name} pc={s}: "
                    f"inconsistent depth")
    return ana


def pre_summed_runs(method: MethodInfo,
                    tables: CostTables) -> List[Tuple[int, int, int]]:
    """Straight-line runs of pure ops and their pre-summed cost.

    Returns ``[(start_pc, end_pc_exclusive, total_cost_ns), ...]`` —
    the blocks whose cost the compiled code charges in one addition at
    block entry.  Runs break at specials (which charge exact per-op
    cost), at branch targets (block entries), and after control ops.
    Used by the emitter and by the ``disasm`` cost annotations.
    """
    code = method.code
    n = len(code)
    starts = {0}
    for pc, instr in enumerate(code):
        if instr.op in BRANCHES:
            starts.add(instr.a if instr.op is Op.GOTO else instr.b)
        if instr.op in SPECIAL_OPS:
            starts.add(pc)
            if pc + 1 < n:
                starts.add(pc + 1)
        if instr.op in BRANCHES or instr.op in TERMINATORS:
            if pc + 1 < n:
                starts.add(pc + 1)
    runs: List[Tuple[int, int, int]] = []
    pc = 0
    while pc < n:
        if code[pc].op in SPECIAL_OPS:
            pc += 1
            continue
        end = pc
        total = 0
        while end < n and code[end].op not in SPECIAL_OPS and \
                (end == pc or end not in starts):
            total += instr_cost(code[end], tables)
            is_control = (code[end].op in BRANCHES
                          or code[end].op in TERMINATORS)
            end += 1
            if is_control:
                break
        runs.append((pc, end, total))
        pc = end
    return runs
