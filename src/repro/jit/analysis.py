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
``disasm`` annotations print, and :func:`traces`, the straight lines
compiled code runs without a budget test — the emitter prints its
traces from it, ``disasm --costs`` its ``; trace`` brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Container, Dict, Iterable, List, Optional, Set, Tuple

from ..jvm.bytecode import (
    ACCESSES,
    BRANCHES,
    INVOKES,
    SEMANTICS,
    STACK_EFFECT,
    TRAPS,
    CostTables,
    Op,
    branch_target,
    instr_cost,
    ref_below,
)
from ..jvm import cfg
from ..jvm.cfg import invoke_effect, stack_depths, straight_runs
from ..jvm.classfile import MethodInfo
from ..jvm.errors import ClassFormatError, LinkError

# Ops that can block the thread (or leave the frame) and therefore end a
# pre-summed run: each gets its own budget guard and exact-cost segment.
SPECIAL_OPS = frozenset({
    Op.DSM_READCHECK, Op.DSM_WRITECHECK, Op.DSM_STATICREF,
    Op.DSM_ACQUIRE, Op.DSM_RELEASE,
    Op.MONITORENTER, Op.MONITOREXIT,
}) | INVOKES

# The two access checks: a trace runs through them on their hit test,
# and ends at any other special.
CHECKS = frozenset({Op.DSM_READCHECK, Op.DSM_WRITECHECK})
_ENDS_TRACE = SPECIAL_OPS - CHECKS

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
        except LinkError:
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


def pre_summed_runs(method: MethodInfo, tables: CostTables,
                    deopt: Container[int] = ()) -> List[Tuple[int, int, int]]:
    """Straight-line runs of pure ops and their pre-summed cost.

    Returns ``[(start_pc, end_pc_exclusive, total_cost_ns), ...]`` —
    the blocks whose cost compiled code charges in one addition at
    block entry: basic blocks, further cut at specials and at ``deopt``
    sites (which charge exact per-op cost and belong to no run).  The
    ``disasm`` cost annotations print them.
    """
    code = method.code
    return [(start, end, sum(instr_cost(i, tables) for i in code[start:end]))
            for start, end in straight_runs(code, SPECIAL_OPS, deopt)]


# A jump is followed through a block of at most this many rows that
# cannot trap, closed by a GOTO — a loop's ``i++`` latch.
_LATCH_OPS = 6


@dataclass
class Trace:
    """The straight line compiled code runs from ``head`` behind one
    budget test: where ``used + total < budget`` holds, no test of the
    arms it covers can fire."""

    head: int
    #: ``(pc, ns, count, known)`` per instruction: cost and instructions
    #: charged *before* pc, and whether its value already passed this
    #: check's test / this access's null test.
    steps: List[Tuple[int, int, int, bool]]
    #: The pc whose arm takes over at the end of the line; None when it
    #: returned or closed on its own head.
    stop: Optional[int]
    #: Latch blocks a taken branch of the line runs through: first pc ->
    #: pc of the closing GOTO.
    latches: Dict[int, int]
    total: int


def traces(method: MethodInfo, tables: CostTables,
           targets: Optional[Iterable[int]] = None,
           deopt: Container[int] = ()) -> Dict[int, Trace]:
    """Per *head* — method entry, branch target, successor of a deopt
    site or of a special that is not an access check — the line from it:
    through pure runs, the fall-through side of IF / IF_CMP, both access
    checks and one small latch block, until a call / lock / monitor /
    static-ref, a return, a deopt site, the next head or its own head
    again.  Nothing on the line calls a handler, so what a check or a
    null test proved about a value holds to the end of the line: values
    are numbered along it (LOAD / STORE copy, anything else is fresh)
    and a repeated test is ``known``.  A line that covers no more than
    one arm's one budget test is left out."""
    code = method.code
    cost = [instr_cost(i, tables) for i in code]
    ends = [instr.op in _ENDS_TRACE or pc in deopt
            for pc, instr in enumerate(code)]
    heads = {0} | set(cfg.branch_targets(code) if targets is None else targets)
    heads.update(pc + 1 for pc in range(len(code) - 1) if ends[pc])

    def latch(start: int) -> Optional[int]:
        for pc in range(start, min(start + _LATCH_OPS, len(code))):
            op = code[pc].op
            if pc > start and pc in heads:
                return None
            if op is Op.GOTO:
                return pc
            if op not in SEMANTICS or op in TRAPS:
                return None
        return None

    out: Dict[int, Trace] = {}
    for head in sorted(h for h in heads if code[h].op not in CHECKS):
        fresh = count()
        number: Dict[object, int] = {}   # stack slot / "l<n>" -> value

        def value(where: object) -> int:
            return number.setdefault(where, next(fresh))

        checked: Set[int] = set()
        nonnull: Set[int] = set()
        trace = Trace(head, [], None, {}, 0)
        pc, ns, n, d, followed = head, 0, 0, 0, False
        while True:
            instr = code[pc]
            op = instr.op
            if ends[pc]:
                trace.stop = pc
                break
            known = False
            if op in CHECKS:
                v = value(d - 1 - instr.a)
                known = op is Op.DSM_READCHECK and v in checked
                nonnull.add(v)
                if op is Op.DSM_READCHECK:
                    checked.add(v)
            elif op in ACCESSES:
                v = value(d - ref_below(op))
                known = v in nonnull
                nonnull.add(v)
            trace.steps.append((pc, ns, n, known))
            ns += cost[pc]
            n += 1
            pops, pushes = STACK_EFFECT[op]
            d -= pops
            if op is Op.STORE:
                number[f"l{instr.a}"] = value(d)
            elif op is Op.IINC:
                number[f"l{instr.a}"] = next(fresh)
            for slot in range(d, d + pushes):
                number[slot] = (value(f"l{instr.a}") if op is Op.LOAD
                                else next(fresh))
            d += pushes
            if op is Op.RETURN or op is Op.RETVAL:
                break
            if op is Op.GOTO:
                pc = branch_target(instr)
                if pc == head:
                    break
            else:
                if op in BRANCHES and branch_target(instr) != head:
                    target = branch_target(instr)
                    end = latch(target)
                    if end is not None:
                        trace.latches[target] = end
                        trace.total = max(trace.total,
                                          ns + sum(cost[target:end + 1]))
                pc += 1
                if pc not in heads:
                    continue
            # At a head, by fall-through or GOTO: through one latch block.
            if followed or latch(pc) is None:
                trace.stop = pc
                break
            followed = True
        if trace.stop in trace.latches:  # the exit runs through it again
            ns += sum(cost[trace.stop:trace.latches[trace.stop] + 1])
        trace.total = max(trace.total, ns)
        if any(code[pc].op in CHECKS or code[pc].op in (Op.IF, Op.IF_CMP)
               for pc, *_ in trace.steps[:-1]):
            out[head] = trace
    return out
