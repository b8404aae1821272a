"""The one writer of straight-line text, and tier 0's fused runs.

A run is ≥ 2 rows of one basic block (``bytecode.row_of``: ``SEMANTICS``
rows, and calls to a ``Math`` method, each a ``MATH`` row), the last
instruction possibly the GOTO / IF / IF_CMP that closes the block.
Other invokes, returns, monitors and DSM ops end a run: what can block
or leave the frame keeps its own handler.  A heap access ends one only
when it is observed (a race detector is attached and the access is
checked) or did not link at decode — the pcs the interpreter passes as
``cut``.  A run's function is the rows' own text over a *virtual*
operand stack of Python expressions, written by :class:`LineWriter`,
which writes tier 1's traces and arms too (:mod:`repro.jit.codegen`):

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

from .bytecode import (BRANCHES, LINKED, SEMANTICS, STACK_EFFECT, Instr, Op,
                       branch_row, instantiate, literal, native_of, row_of,
                       row_text, traps)
from .cfg import straight_runs

#: Never in a run, but for an INVOKESTATIC that is a ``MATH`` row.
NOT_FUSED = frozenset(Op) - set(SEMANTICS) - BRANCHES
_FORWARDED = frozenset({Op.CONST, Op.LOAD, Op.ADD, Op.SUB, Op.MUL, Op.NEG,
                        Op.AND, Op.OR, Op.XOR})
_BARE = re.compile(r"\{\w+\}$").match  # a pushed value that is an operand


def fused_runs(code: Sequence[Instr],
               cut: Container[int] = ()) -> List[Tuple[int, int]]:
    """``(start_pc, end_pc_exclusive)`` of every run tier 0 fuses when
    the pcs in ``cut`` may not join one."""
    cuts = {pc for pc, instr in enumerate(code) if pc in cut
            or instr.op in NOT_FUSED and native_of(instr) is None}
    return [(start, end) for start, end in straight_runs(code, (), cuts)
            if end - start > 1]


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


def _run_body(code: Sequence[Instr], start: int, end: int) -> List[str]:
    """The statements of one run."""
    lines: List[str] = []
    line = LineWriter(_names, lambda pc: f"frame.pc = {pc}"
                      if pc != start else None, lines.append)
    for pc in range(start, end):
        instr = code[pc]
        if instr.op is Op.GOTO:
            lines.append(f"frame.pc = {instr.a}")
            break
        test = line.row(pc, instr)
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
    """``make(C, S, *bound) -> handlers`` as source text, and the runs.
    What differs between the JVMs that share a method is an argument —
    ``C``, the runs' summed costs; ``S``, the field slots by pc — or
    decides ``cut``, so the text is compiled once per ``cut``."""
    runs = fused_runs(code, cut)
    slots = [pc for start, end in runs for pc in range(start, end)
             if code[pc].op in LINKED]
    out = [f"def make(C, S, {', '.join(bound)}):",
           f"    [{', '.join(f'c{k}' for k in range(len(runs)))}] = C"]
    if slots:
        out.append(f"    {', '.join(f'f{pc}' for pc in slots)}, = "
                   f"{', '.join(f'S[{pc}]' for pc in slots)},")
    for k, (start, end) in enumerate(runs):
        body = _run_body(code, start, end)
        head = [f"{name} = frame.{attr}"
                for name, attr in (("stack", "stack"), ("L", "locals"))
                if any(re.search(rf"\b{name}\W", line) for line in body)]
        out.append(f"    def run_{start}(thread, frame):")
        out += ["        " + line for line in (
            *head, *body, f"thread.instructions += {end - start - 1}",
            f"return c{k}")]
    out.append(f"    return [{', '.join(f'run_{s}' for s, _ in runs)}]")
    return "\n".join(out), runs
