"""Static method analysis feeding the tier-1 compiler.

The codegen needs exactly what the verifier already proves: a single
consistent operand-stack depth at every reachable pc.  That invariant is
what lets the compiler map the operand stack onto Python locals
(``s0..s{k}``) instead of a list.  This module runs the same depth
dataflow as the verifier (:func:`repro.jvm.cfg.stack_depths`, resolving
invoke arities through the *runtime* method resolver, so virtual arity
matches what the interpreter will use) and classifies every instruction
for the emitter:

* **pure** ops execute entirely inside a compiled run — no hooks, no
  blocking — and have their simulated cost pre-summed per run;
* **special** ops (DSM checks, acquire/release, monitors, invokes) can
  block or leave the method, so each is emitted as its own guarded
  segment with the interpreter's exact semantics;
* anything the compiler cannot bind at compile time (unresolvable
  method/field references) becomes a **deopt** site: the compiled
  function materializes the interpreter state and bails out.

Also exported: :func:`pre_summed_runs`, the per-block cost summary the
``disasm`` annotations print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..jvm.bytecode import (
    BRANCHES,
    INVOKES,
    CostTables,
    Op,
    branch_target,
    instr_cost,
)
from ..jvm.cfg import invoke_effect, stack_depths, straight_runs
from ..jvm.classfile import MethodInfo
from ..jvm.errors import ClassFormatError

# Ops that can block the thread (or leave the frame) and therefore end a
# pre-summed run: each gets its own budget guard and exact-cost segment.
SPECIAL_OPS = frozenset({
    Op.DSM_READCHECK, Op.DSM_WRITECHECK, Op.DSM_STATICREF,
    Op.DSM_ACQUIRE, Op.DSM_RELEASE,
    Op.MONITORENTER, Op.MONITOREXIT,
}) | INVOKES

# Every other op executes inline in a compiled run: no blocking, and no
# runtime hook other than the race observer (which adds no cost).
PURE_OPS = frozenset(Op) - SPECIAL_OPS


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

    Raises :exc:`CompileError` when the method is native or violates
    any invariant the emitter depends on (none of which can happen for
    verifier-accepted code — belt and braces).
    """
    where = f"{method.klass}.{method.name}"
    if method.is_native:
        raise CompileError(f"{where}: no bytecode")
    ana = MethodAnalysis(method=method, depth_at=[])

    def arity_of(pc, instr):
        # Resolve through the runtime resolver — the same walk the
        # interpreter caches — so arity and nativeness match what will
        # execute.  Unresolvable == deopt site (the forced interpreter
        # step reproduces the exact LinkError); the depth past it is
        # unknowable, so the path ends there.
        try:
            target = jvm.resolve_method(instr.a, instr.b)
        except Exception:
            target = None
        ana.invoke_targets[pc] = target
        return None if target is None else invoke_effect(target)

    try:
        ana.depth_at = stack_depths(method, arity_of)
    except ClassFormatError as exc:
        raise CompileError(str(exc)) from None
    for pc, instr in enumerate(method.code):
        if ana.depth_at[pc] is None:
            continue
        op = instr.op
        if op in (Op.LOAD, Op.STORE, Op.IINC):
            ana.used_locals.add(instr.a)
            if op is not Op.LOAD:
                ana.mutated_locals.add(instr.a)
        if op in BRANCHES:
            ana.branch_targets.add(branch_target(instr))
    return ana


def pre_summed_runs(method: MethodInfo,
                    tables: CostTables) -> List[Tuple[int, int, int]]:
    """Straight-line runs of pure ops and their pre-summed cost.

    Returns ``[(start_pc, end_pc_exclusive, total_cost_ns), ...]`` —
    the blocks whose cost compiled code charges in one addition at
    block entry: basic blocks, further cut at specials (which charge
    exact per-op cost and belong to no run).  The ``disasm`` cost
    annotations print them.
    """
    code = method.code
    return [(start, end, sum(instr_cost(i, tables) for i in code[start:end]))
            for start, end in straight_runs(code, SPECIAL_OPS)]
