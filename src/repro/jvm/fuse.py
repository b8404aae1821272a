"""Tier 0's fused runs: one handler for a straight line of pure opcodes.

A run is ≥ 2 rows of one basic block (``bytecode.row_of``: ``SEMANTICS``
rows, and calls to a ``Math`` method, each a ``MATH`` row), the last
instruction possibly the GOTO / IF / IF_CMP that closes the block.
Other invokes, returns, monitors and DSM ops end a run: what can block
or leave the frame keeps its own handler.  A heap access ends one only
when it is observed (a race detector is attached and the access is
checked) or did not link at decode — the pcs the interpreter passes as
``cut``.  A run's function is the rows' own text over a *virtual*
operand stack of Python expressions:

* a value stays unevaluated only if its row cannot raise and has no side
  effect (``_FORWARDED``); any other is evaluated where it stands;
* a STORE / IINC first evaluates every pending read of its local;
* a row that names an operand twice gets it as a local; one that assigns
  it (``I2D``) as a fresh local — a DUP may have aliased it;
* pops below the virtual stack come off ``frame.stack``; what is left at
  the end goes back on it, in order;
* a row that can raise a ``JVMError`` stores ``frame.pc`` first, and
  ``Interpreter.run`` counts the instructions from the run's first pc
  to it: a trap reads as unfused.
"""

from __future__ import annotations

import re
from typing import Any, Container, List, Sequence, Tuple

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


def _operand(value: Any) -> str:
    text = literal(value)
    return f"({text})" if text[0] == "-" else text


def _run_body(code: Sequence[Instr], start: int, end: int) -> List[str]:
    """The statements of one run."""
    lines: List[str] = []
    vstack: List[str] = []  # expressions not evaluated yet, top last

    def bind(expr: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"{name} = {expr}")
        return name

    for pc in range(start, end):
        instr = code[pc]
        op = instr.op
        if op is Op.GOTO:
            lines.append(f"frame.pc = {instr.a}")
            break
        row, pops = row_of(instr) or (branch_row(op, instr.a),
                                      STACK_EFFECT[op][0])
        text = row_text(row)
        names = {"a": _operand(instr.a), "b": _operand(instr.b),
                 "local": f"L[{instr.a}]", "slot": f"f{pc}"}
        for name in reversed("xyz"[:pops]):
            value = vstack.pop() if vstack else "stack.pop()"
            assigned = re.search(r"\{%s\} =[^=]" % name, text)
            simple = value.isidentifier() or value.startswith("L[")
            if value == "stack.pop()" or assigned or not (
                    simple or text.count("{%s}" % name) < 2):
                value = bind(value)
            names[name] = value
        if op is Op.STORE or op is Op.IINC:
            vstack[:] = [bind(v) if names["local"] in v else v
                         for v in vstack]
        if traps(row) and pc != start:  # the run is entered at ``start``
            lines.append(f"frame.pc = {pc}")
        first, pushed = instantiate(row, names)
        lines += first
        if op in BRANCHES:
            lines.append(f"frame.pc = {instr.b} if {pushed[0]} else {end}")
            break
        vstack += [value if _BARE(template) else
                   f"({value})" if op in _FORWARDED else bind(value)
                   for template, value in zip(row.pushed, pushed)]
    else:
        lines.append(f"frame.pc = {end}")
    if vstack:
        lines.append(f"stack.append({vstack[0]})" if len(vstack) == 1 else
                     f"stack.extend(({', '.join(vstack)}))")
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
