"""The one writer of straight-line text, and tier 0's fused runs.

A run is ≥ 2 rows of one basic block (``bytecode.row_of``: ``SEMANTICS``
rows, and calls to a ``Math`` method, each a ``MATH`` row), the last
instruction possibly the GOTO / IF / IF_CMP that closes the block.
Other invokes, returns, monitors and DSM ops end a run: what can block
or leave the frame keeps its own handler.  A heap access ends one only
when it is observed (a race detector is attached and the access is
checked) or did not link at decode — the pcs the interpreter passes as
``cut``; a read check, when its JVM's hooks are no DSM engine.  Else a
read check is a *guard*: the run tests :data:`READ_MISS` in line and, on
a miss, stores what is pending and leaves ``frame.pc`` on the check, for
its handler; the rest of the run up to the next guard, its *tail*, is
a run of its own if it is long enough (``_TAIL_ROWS``), and that guard
is dispatched by its own handler.  No run starts at a check (a miss would
dispatch it again).  The access
right after a check, on the reference it tested, drops its null test, in
the run and in the tail (the check's own handler raises on null), as
tier 1 drops a proven one.  A run's function
is the rows' own text over a *virtual* operand stack of Python
expressions, written by :class:`LineWriter`, which writes tier 1's
traces too (:mod:`repro.jit.codegen`):

* a value stays unevaluated only if its row cannot raise and has no side
  effect (``_FORWARDED``); any other is evaluated where it stands;
* a STORE / IINC first evaluates every pending read of its local, and
  an assignment to a register (tier 1's ``sK``) every pending read of it;
* a row that names an operand twice gets it as a local; one that assigns
  it (``I2D``) as a fresh local — a DUP may have aliased it — unless it
  is still in its own register and nothing else reads that;
* an IF / IF_CMP is its ``bytecode.branch_row``, and ``row`` hands the
  test back to the caller, who says where each side goes;
* a row that can raise a ``JVMError`` first stores its pc with the
  caller's marker — here ``frame.pc = pc``, and ``Interpreter.run``
  counts the instructions from the run's first pc to it: a trap reads
  as unfused.

The caller passes in data only, and asks for the stack at each exit.
``names(pc, instr)`` gives a row's ``{a} {b} {local} {slot}`` (here
literals, ``L[a]``, ``f{pc}``; in tier 1 literals, ``lN``, the slot);
``mark(pc)`` the statement storing a trapping row's pc, or None.
``depth`` is None over ``frame.stack`` (pops below the virtual stack are
``stack.pop()``), else the line starts from registers ``s0 ..
s{depth-1}``.  ``observe(pc, instr)`` is tier 1's name for the ``Instr``
of an access the race detector observes, or None; a ``known`` row's
null test already passed, so it goes.  At an exit, ``flush()`` writes
what puts every pending value where the frame keeps it (back on
``frame.stack`` in order, or into the registers); ``fork(emit)``
continues the line on an exit's own path.
"""

from __future__ import annotations

import copy
import re
from typing import (Any, Callable, Container, Dict, List, Optional, Sequence,
                    Tuple)

from ..dsm.objectstate import ObjState
from .bytecode import (ACCESSES, BRANCHES, LINKED, SEMANTICS, STACK_EFFECT,
                       Instr, Op, branch_row, instantiate, literal, native_of,
                       ref_below, row_of, row_text, traps)
from .cfg import block_starts, straight_runs

GUARD = Op.DSM_READCHECK  # tested in line inside a run
#: Never in a run, but for an INVOKESTATIC that is a ``MATH`` row.
NOT_FUSED = frozenset(Op) - set(SEMANTICS) - BRANCHES - {GUARD}
#: A read check misses on a header that is absent, INVALID, or a split
#: array's (its regions carry the state); both tiers test it on ``_h``.
READ_MISS = ("_h is None or _h.state == _INVALID or "
             "(_h.gid and _h.gid in _regions)")
#: A tail of fewer rows than this — one more where it ends at the next
#: guard, whose own dispatch follows — is not worth its text: after a
#: miss, which takes the slow path anyway, its rows dispatch one by one.
_TAIL_ROWS = 3
_FORWARDED = frozenset({Op.CONST, Op.LOAD, Op.ADD, Op.SUB, Op.MUL, Op.NEG,
                        Op.AND, Op.OR, Op.XOR})
_BARE = re.compile(r"\{\w+\}$").match  # a pushed value that is an operand


def read_miss_names(dsm: Any) -> Dict[str, Any]:
    """What :data:`READ_MISS` names, bound to ``dsm``'s live table:
    arrays split after the text was built still resolve."""
    return {"_INVALID": ObjState.INVALID, "_regions": dsm._regions}


def fused_runs(code: Sequence[Instr],
               cut: Container[int] = ()) -> List[Tuple[int, int]]:
    """``(start_pc, end_pc_exclusive)`` of every run tier 0 fuses when
    the pcs in ``cut`` may not join one, tails included, by start: a
    tail ends at the next guard, which its own handler dispatches."""
    cuts = {pc for pc, instr in enumerate(code) if pc in cut
            or instr.op in NOT_FUSED and native_of(instr) is None}
    out = []
    for start, end in straight_runs(code, cuts):
        heads = [pc for pc in range(start, end - 1) if code[pc].op is not GUARD
                 and (pc == start or code[pc - 1].op is GUARD)]
        for k, head in enumerate(heads):
            stop = next(pc for pc in range(head, end + 1) if pc == end
                        or k and code[pc].op is GUARD)
            if not k or stop - head >= _TAIL_ROWS + (stop < end):
                out.append((head, stop))
    return out


def _reads(expr: str, name: str) -> bool:
    return name in expr and re.search(
        r"(?<![\w.])%s(?!\w)" % re.escape(name), expr) is not None


class LineWriter:
    """One straight line's statements, row by row, to ``emit``."""

    def __init__(self, names: Callable[[int, Instr], Dict[str, Any]],
                 mark: Callable[[int], Optional[str]],
                 emit: Callable[[str], None], depth: Optional[int] = None,
                 observe: Callable[[int, Instr], Optional[str]]
                 = lambda pc, instr: None) -> None:
        self.names, self.mark, self.out = names, mark, emit
        self.observe = observe
        self.regs = depth is not None
        self.stack: List[str] = [f"s{k}" for k in range(depth or 0)]
        self.count = 0  # statements written: the next temporary's number

    def fork(self, emit: Callable[[str], None]) -> "LineWriter":
        """The line so far, continued on a path of its own."""
        other = copy.copy(self)
        other.stack, other.out = list(self.stack), emit
        return other

    def _put(self, line: str) -> None:
        self.count += 1
        self.out(line)

    def _temp(self, expr: str) -> str:
        name = f"t{self.count}"
        self._put(f"{name} = {expr}")
        return name

    def _before_assigning(self, name: str) -> None:
        self.stack[:] = [self._temp(v) if _reads(v, name) else v
                         for v in self.stack]

    def _evaluate(self, expr: str, slot: int) -> str:
        """``expr`` evaluated now as the value at ``slot``: into its
        register, or over ``frame.stack`` a temporary."""
        if not self.regs:
            return self._temp(expr)
        reg = f"s{slot}"
        if expr != reg:
            self._before_assigning(reg)
            self._put(f"{reg} = {expr}")
        return reg

    def value(self, below: int) -> str:
        """A name for the value ``below`` places under the top."""
        slot = len(self.stack) - 1 - below
        expr = self.stack[slot]
        if not expr.isidentifier():
            self.stack[slot] = ""  # being evaluated: no pending read
            self.stack[slot] = self._evaluate(expr, slot)
        return self.stack[slot]

    def row(self, pc: int, instr: Instr, known: bool = False
            ) -> Optional[str]:
        """Write ``instr``'s row, without its null test if ``known``;
        for an IF / IF_CMP, return the test it branches on."""
        op = instr.op
        row, pops = row_of(instr) or (branch_row(op, instr.a),
                                      STACK_EFFECT[op][0])
        if known:
            row = row._replace(first=None)
        text = row_text(row)
        names = self.names(pc, instr)
        for name in reversed("xyz"[:pops]):
            value = self.stack.pop() if self.stack else "stack.pop()"
            assigned = re.search(r"\{%s\} =[^=]" % name, text)
            simple = value.isidentifier() or value.startswith("L[")
            if assigned and pops == 1 and value == f"s{len(self.stack)}" \
                    and not any(_reads(v, value) for v in self.stack):
                pass  # nothing else reads its register: assign it there
            elif value == "stack.pop()" or assigned or not (
                    simple or text.count("{%s}" % name) < 2):
                value = self._temp(value)
            names[name] = value
        if op is Op.STORE or op is Op.IINC:
            self._before_assigning(names["local"])
        mark = traps(row) and self.mark(pc)
        if mark:
            self._put(mark)
        site = self.observe(pc, instr)
        if site is not None:  # the observer reads ``frame.pc``
            self._put(f"frame.pc = {pc}")
        first, pushed = instantiate(row, names, site)
        for line in first:
            self._put(line)
        if op in BRANCHES:
            return pushed[0]
        for template, value in zip(row.pushed, pushed):
            self.stack.append(
                value if _BARE(template) else f"({value})"
                if op in _FORWARDED else self._evaluate(value,
                                                        len(self.stack)))
        return None

    def flush(self) -> None:
        """Put every pending value where the frame keeps it."""
        stack = self.stack
        if not self.regs:
            if stack:
                self._put(f"stack.append({stack[0]})" if len(stack) == 1
                          else f"stack.extend(({', '.join(stack)}))")
            stack.clear()
            return
        moves = [(f"s{k}", v) for k, v in enumerate(stack) if v != f"s{k}"]
        if moves:
            regs, values = zip(*moves)
            self._put(f"{', '.join(regs)} = {', '.join(values)}")
            stack[:] = [f"s{k}" for k in range(len(stack))]


def _names(pc: int, instr: Instr) -> Dict[str, str]:
    """Tier 0's names: literals, the frame's locals, the field slots."""
    return {"a": literal(instr.a), "b": literal(instr.b),
            "local": f"L[{instr.a}]", "slot": f"f{pc}"}


def _run_body(code: Sequence[Instr], start: int, end: int,
              guarded: Optional[int]) -> List[str]:
    """The statements of one run; ``guarded`` is the depth a read check
    just before it, in the same block, proved not null."""
    lines: List[str] = []
    line = LineWriter(_names, lambda pc: f"frame.pc = {pc}"
                      if pc != start else None, lines.append)
    for pc in range(start, end):
        instr = code[pc]
        if instr.op is Op.GOTO:
            lines.append(f"frame.pc = {instr.a}")
            break
        if instr.op is GUARD:
            below = instr.a - len(line.stack)
            ref = line.value(instr.a) if below < 0 else f"stack[{-1 - below}]"
            pending = ", ".join(line.stack)
            lines.append(f"if {ref} is None or " + READ_MISS.replace(
                "_h", f"(_h := {ref}.header)", 1) + ": " + "; ".join(
                ([f"frame.stack.extend(({pending},))"] if pending else [])
                + [f"frame.pc = {pc}"]
                + ([f"thread.instructions += {pc - start - 1}"]
                   if pc - start > 1 else [])
                + [f"return sum(C[{start}:{pc}])"]))
            guarded = instr.a
            continue
        known = instr.op in ACCESSES and ref_below(instr.op) - 1 == guarded
        guarded = None
        test = line.row(pc, instr, known)
        if test is not None:
            lines.append(f"frame.pc = {instr.b} if {test} else {end}")
            break
    else:
        lines.append(f"frame.pc = {end}")
    line.flush()
    return lines


def fused_source(code: Sequence[Instr], bound: Sequence[str],
                 cut: Container[int] = ()
                 ) -> Tuple[str, List[Tuple[int, int]]]:
    """``make(C, S, *bound, _INVALID, _regions) -> handlers`` as source
    text — naming only those of ``bound`` and :func:`read_miss_names` it
    reads — and the runs; no text where there is no run.  What differs
    between the JVMs that share a method is an argument — ``C``, the cost
    of each pc; ``S``, the field slots by pc; :func:`read_miss_names` —
    or decides ``cut``, so the text is compiled once per ``cut``."""
    runs = fused_runs(code, cut)
    if not runs:
        return "", runs
    slots = sorted({pc for start, end in runs for pc in range(start, end)
                    if code[pc].op in LINKED})
    out = [f"    c{start} = sum(C[{start}:{end}])" for start, end in runs]
    if slots:
        out.append(f"    {', '.join(f'f{pc}' for pc in slots)}, = "
                   f"{', '.join(f'S[{pc}]' for pc in slots)},")
    leaders = set(block_starts(code))
    for start, end in runs:
        body = _run_body(code, start, end, code[start - 1].a if start
                         and start not in leaders
                         and code[start - 1].op is GUARD else None)
        head = [f"{name} = frame.{attr}"
                for name, attr in (("stack", "stack"), ("L", "locals"))
                if any(re.search(rf"\b{name}\W", line) for line in body)]
        out.append(f"    def run_{start}(thread, frame, left):")
        out += ["        " + line for line in (
            *head, *body, f"thread.instructions += {end - start - 1}",
            f"return c{start}")]
    out.append(f"    return [{', '.join(f'run_{s}' for s, _ in runs)}]")
    names = [name for name in (*bound, "_INVALID", "_regions")
             if any(re.search(rf"\b{name}\b", line) for line in out)]
    return "\n".join([f"def make(C, S, {''.join(f'{n}, ' for n in names)}"
                      f"**_):", *out]), runs
