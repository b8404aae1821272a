"""Redundant access-check elimination (§6.2's planned optimization).

"To reduce the overhead of the heap data accesses, we are currently
working on methods to eliminate unnecessary access checks" — citing the
runtime optimizations of Veldema et al. [19].  This pass implements the
classic fine-grain-DSM variant: within a region of straight-line code
containing no synchronization point, a second *read* check against the
same reference is redundant and the guarded access may run at original
speed.

Soundness under LRC: a thread is only obliged to observe remote writes
when *it* passes an acquire.  A read check validates the replica; until
the thread's next acquire (or a call, which may acquire internally, or a
control-flow merge, where we lose track) re-reading that replica — even
if the protocol has invalidated it asynchronously in the meantime — is
an LRC-legal stale read.  Write checks are **never** eliminated: they
create the twin that write collection depends on, and an unchecked write
to an asynchronously-flushed replica could be lost.

The analysis is deliberately conservative.  One transfer function
(:func:`_transfer`) walks a region of straight-line code:

* invokes, DSM acquire/release and monitor ops clear the known set;
* provenance is tracked for references loaded from local slots (a store
  to the slot evicts it) and for C_static holder references produced by
  DSM_STATICREF (always the same per-class singleton, so a second check
  on the same class's holder within a region is redundant).

The levels differ only in what a region is and what it knows on entry.
Level 1 (§6.2's pass): a region runs from one branch target — a merge,
where we lose track — to the next and starts out knowing nothing.
Level 2 (``level=2``, consumed by the tiered JIT): regions are basic
blocks, fed by two passes:

* **region-based dataflow**: validated facts flow across basic blocks
  with set-intersection at merges, so a check dominated by equivalent
  checks on *every* incoming path is removed even across branches — the
  classic forward must-analysis of Veldema et al.;
* **loop hoisting**: a ``LOAD p; DSM_READCHECK; GETFIELD`` in a loop
  body whose slot ``p`` is never stored in the loop and whose body has
  no synchronization barrier is validated once in the loop preheader
  (guarded by a null test, so a zero-iteration loop stays exactly as
  null-safe as before) and the in-body check then falls to the dataflow
  pass.  Early validation of a loop that never runs is an LRC-legal
  prefetch.  Array-element checks are never hoisted: region-granular
  coherence (``DsmConfig.array_region_elems``) makes their validity
  index-dependent.

Both levels record what they did on the method (``method.elim_notes``,
final-pc → note) so the disassembler can annotate the listing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..jvm.bytecode import (
    BRANCHES,
    INVOKES,
    STACK_EFFECT,
    TERMINATORS,
    Instr,
    Op,
    branch_target,
    retarget,
)
from ..jvm.cfg import block_starts, branch_targets, invoke_effect, successors
from ..jvm.classfile import ClassFile, MethodInfo, resolve_method
from .remap import expand_code

_BARRIERS = frozenset({
    Op.DSM_ACQUIRE, Op.DSM_RELEASE, Op.MONITORENTER, Op.MONITOREXIT,
}) | INVOKES


def eliminate_redundant_read_checks(
    cf: ClassFile, classfiles: Dict[str, ClassFile], level: int = 1
) -> int:
    """Remove provably-redundant read checks in one class; returns count.

    ``level=1`` is the straight-line pass; ``level=2`` adds loop
    hoisting followed by the region-based dataflow pass.  Invoke
    arities resolve through the ``classfiles`` table."""
    removed = 0
    for method in cf.methods.values():
        if not method.is_native and method.code:
            # Tags: id(instr) -> note.  Instruction objects survive the
            # remapping passes, so identity recovers final positions.
            tags: Dict[int, str] = {}
            if level >= 2:
                _hoist_loop_checks(method, tags)
            removed += _eliminate(method, classfiles, tags, level)
            if tags:
                method.elim_notes = {
                    pc: tags[id(instr)]
                    for pc, instr in enumerate(method.code)
                    if id(instr) in tags
                }
    return removed


def _eliminate(method: MethodInfo, classfiles: Dict[str, ClassFile],
               tags: Dict[int, str], level: int) -> int:
    """Delete every read check that a region's incoming facts plus its
    own straight-line code prove redundant."""
    code = method.code
    starts = (block_starts(code) if level >= 2
              else sorted({0} | branch_targets(code)))
    bounds = dict(zip(starts, starts[1:] + [len(code)]))
    in_facts = (_block_facts(code, bounds, classfiles) if level >= 2
                else dict.fromkeys(starts, frozenset()))
    to_remove: Set[int] = set()
    for s, facts in in_facts.items():
        _transfer(code, s, bounds[s], facts, classfiles, collect=to_remove)
    if not to_remove:
        return 0
    for pc in to_remove:
        # The access runs at (near-)original speed again — the JIT
        # optimization the check was defeating is restored.  (Holder-
        # field reads then bill plain field cost, a close stand-in for
        # the original static read.)  Tag it for disasm.
        code[pc + 1].checked = False
        tags[id(code[pc + 1])] = "check eliminated"

    def expand(instr: Instr, pc: int):
        return [] if pc in to_remove else [instr]

    expand_code(method, expand)
    return len(to_remove)


def _transfer(
    code: List[Instr],
    start: int,
    end: int,
    facts: Set[object],
    classfiles: Dict[str, ClassFile],
    collect: Optional[Set[int]] = None,
) -> Set[object]:
    """Straight-line analysis of ``code[start:end)`` with incoming
    validated ``facts``; returns the outgoing fact set.  With
    ``collect`` (the final walk), removable check pcs are recorded."""
    # Provenance stack: each cell is a local slot index (int), a
    # ("static", class) holder token, or None for unknown.  The verifier
    # guarantees a consistent depth at ``start`` which we cannot know
    # locally, so provenance restarts empty — a peek or pop past the
    # region start simply resolves to "unknown".
    stack: List[Optional[object]] = []
    validated = set(facts)
    for pc in range(start, end):
        instr = code[pc]
        op = instr.op
        if op is Op.DSM_READCHECK or op is Op.DSM_WRITECHECK:
            # A write check fetches + twins: the object is then also
            # valid for reading within this region.
            prov = _peek(stack, instr.a)
            if prov is not None:
                if (collect is not None and op is Op.DSM_READCHECK
                        and prov in validated and pc + 1 < end
                        and code[pc + 1].checked in (True, "static")):
                    collect.add(pc)
                validated.add(prov)
            continue

        if op in _BARRIERS:
            validated = set()
        if op is Op.STORE or op is Op.IINC:
            validated.discard(instr.a)

        if op is Op.LOAD:
            stack.append(instr.a)
        elif op is Op.DSM_STATICREF:
            stack.append(("static", instr.a))
        elif op is Op.DUP:
            stack.append(_peek(stack, 0))
        elif op is Op.DUP_X1:
            b = _pop(stack); a = _pop(stack)
            stack.extend((b, a, b))
        elif op is Op.SWAP:
            if len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            else:
                stack = []
        else:
            pops, pushes = (
                invoke_effect(resolve_method(classfiles, instr.a, instr.b))
                if op in INVOKES else STACK_EFFECT[op])
            for _ in range(pops):
                _pop(stack)
            stack.extend([None] * pushes)
    return validated


def _block_facts(code: List[Instr], bounds: Dict[int, int],
                 classfiles: Dict[str, ClassFile]) -> Dict[int, Set[object]]:
    """Forward must-analysis of validated facts with ∩ at merges: the
    facts that hold on entry to every reachable basic block."""
    succ = {s: successors(code, e - 1) for s, e in bounds.items()}
    preds: Dict[int, List[int]] = {s: [] for s in bounds}
    for s, targets in succ.items():
        for t in targets:
            preds[t].append(s)

    # Optimistic iteration: OUT starts at TOP (None = "all facts"), so
    # loop-carried facts survive the ∩ until proven otherwise.
    out: Dict[int, Optional[Set[object]]] = {s: None for s in bounds}
    in_: Dict[int, Set[object]] = {}
    worklist = [0]
    while worklist:
        s = worklist.pop()
        facts: Optional[Set[object]] = set() if s == 0 else None
        for p in preds[s]:
            po = out[p]
            if po is None:
                continue
            facts = set(po) if facts is None else (facts & po)
        if facts is None:
            facts = set()
        in_[s] = facts
        new_out = _transfer(code, s, bounds[s], facts, classfiles)
        if out[s] is None or new_out != out[s]:
            out[s] = new_out
            worklist.extend(succ[s])
        else:
            worklist.extend(t for t in succ[s] if t not in in_)
    return in_


# ---------------------------------------------------------------------------
# Level 2: loop hoisting
# ---------------------------------------------------------------------------

# Placeholder branch target for inserted null-test skips; expand_code
# only remaps int targets, so the sentinel rides through the remapping
# and is resolved to a real pc afterwards.
_HOIST_SKIP = object()

# Validators inserted per method (each is 5 instructions); bounds code
# growth on pathological loop nests.
_MAX_HOISTS = 8


def _hoist_loop_checks(method: MethodInfo, tags: Dict[int, str]) -> None:
    """Insert null-safe loop-preheader validators for hot read checks.

    Inserting a validator is always *sound* — it is a real DSM_READCHECK
    executed a little early (an LRC-legal prefetch), guarded by a null
    test so a zero-iteration loop cannot fault where the original code
    would not.  The conditions below are profitability filters: they
    accept exactly the checks the regional dataflow pass will then
    delete from the loop body.
    """
    code = method.code
    branches = [(pc, branch_target(instr))
                for pc, instr in enumerate(code) if instr.op in BRANCHES]
    hoists: Dict[int, List[int]] = {}
    total = 0
    for src, h in branches:
        if not (1 <= h <= src):
            continue  # not a back edge (or no preheader instruction)
        if code[h - 1].op in TERMINATORS:
            continue  # loop not entered by fallthrough: validator dead
        # The loop must only be enterable through the preheader —
        # branches from outside [h, src] into it would bypass the
        # validator (they land *after* the suffix the remapping puts at
        # the end of the preheader instruction).
        if any(h <= t <= src and not h <= pc <= src
               for pc, t in branches):
            continue
        body = code[h:src + 1]
        if any(i.op in _BARRIERS for i in body):
            continue  # a barrier would clear the hoisted fact anyway
        killed = {i.a for i in body if i.op in (Op.STORE, Op.IINC)}
        slots = hoists.setdefault(h, [])
        for pc in range(h, src - 1):
            if (code[pc].op is Op.LOAD
                    and code[pc + 1].op is Op.DSM_READCHECK
                    and code[pc + 1].a == 0
                    and code[pc + 2].op is Op.GETFIELD
                    and code[pc + 2].checked in (True, "static")
                    and code[pc].a not in killed
                    and code[pc].a not in slots
                    and total < _MAX_HOISTS):
                slots.append(code[pc].a)
                total += 1
    hoists = {h: slots for h, slots in hoists.items() if slots}
    if not hoists:
        return

    def expand(instr: Instr, pc: int):
        slots = hoists.get(pc + 1)
        if not slots:
            return [instr]
        seq = [instr]
        for p in slots:
            validator = (
                Instr(Op.LOAD, p, line=instr.line),
                Instr(Op.IF, "eq", _HOIST_SKIP, line=instr.line),
                Instr(Op.LOAD, p, line=instr.line),
                Instr(Op.DSM_READCHECK, 0, line=instr.line),
                Instr(Op.POP, line=instr.line),
            )
            for i in validator:
                tags[id(i)] = f"hoisted loop check (slot {p})"
            seq.extend(validator)
        return seq

    expand_code(method, expand)
    for pc, instr in enumerate(method.code):
        if instr.op in BRANCHES and branch_target(instr) is _HOIST_SKIP:
            retarget(instr, pc + 4)  # past LOAD; DSM_READCHECK; POP


def _peek(stack: List[Optional[int]], depth: int) -> Optional[int]:
    return stack[-1 - depth] if depth < len(stack) else None


def _pop(stack: List[Optional[int]]) -> Optional[int]:
    return stack.pop() if stack else None
