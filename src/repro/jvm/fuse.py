"""Tier 0's fused runs: one handler for a straight line of pure opcodes.

A run is ≥ 2 ``SEMANTICS`` rows of one basic block, the last instruction
possibly the GOTO / IF / IF_CMP that closes the block.  Heap accesses
(lazy link, race observation), invokes, returns, monitors and DSM ops
end a run: what can block, link or leave the frame keeps its own handler.
A run's function is the rows' own text over a *virtual* operand stack of
Python expressions:

* a value stays unevaluated only if its row cannot raise and has no side
  effect (``_FORWARDED``); any other is evaluated where it stands;
* a STORE / IINC first evaluates every pending read of its local;
* a row that names an operand twice gets it as a local; one that assigns
  it (``I2D``) as a fresh local — a DUP may have aliased it;
* pops below the virtual stack come off ``frame.stack``; what is left at
  the end goes back on it, in order;
* a row that can raise a ``JVMError`` stores ``frame.pc`` first and the
  handler counts the instructions before it: a trap reads as unfused.
"""

from __future__ import annotations

import re
from typing import Any, List, Sequence, Tuple

from .bytecode import (BRANCHES, SEMANTICS, STACK_EFFECT, Instr, Op,
                       branch_row, instantiate, literal, traps)
from .cfg import straight_runs

NOT_FUSED = frozenset(Op) - set(SEMANTICS) - BRANCHES
_FORWARDED = frozenset({Op.CONST, Op.LOAD, Op.ADD, Op.SUB, Op.MUL, Op.NEG,
                        Op.AND, Op.OR, Op.XOR})
_BARE = re.compile(r"\{\w+\}$").match  # a pushed value that is an operand


def fused_runs(code: Sequence[Instr]) -> List[Tuple[int, int]]:
    """``(start_pc, end_pc_exclusive)`` of every run tier 0 fuses."""
    return [(start, end) for start, end in straight_runs(code, NOT_FUSED)
            if end - start > 1]


def _operand(value: Any) -> str:
    text = literal(value)
    return f"({text})" if text[0] == "-" else text


def _run_body(code: Sequence[Instr], start: int,
              end: int) -> Tuple[List[str], bool]:
    """The statements of one run, and whether one of them can trap."""
    lines: List[str] = []
    vstack: List[str] = []  # expressions not evaluated yet, top last
    can_trap = False

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
        row = SEMANTICS.get(op) or branch_row(op, instr.a)
        text = "".join(row[0]) + (row[1] or "")
        names = {"a": _operand(instr.a), "b": _operand(instr.b),
                 "local": f"L[{instr.a}]"}
        for name in reversed("xyz"[:STACK_EFFECT[op][0]]):
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
        if traps(row):
            lines.append(f"frame.pc = {pc}")
            can_trap = True
        first, pushed = instantiate(row, names)
        lines += first
        if op in BRANCHES:
            lines.append(f"frame.pc = {instr.b} if {pushed[0]} else {end}")
            break
        vstack += [value if _BARE(template) else
                   f"({value})" if op in _FORWARDED else bind(value)
                   for template, value in zip(row[0], pushed)]
    else:
        lines.append(f"frame.pc = {end}")
    if vstack:
        lines.append(f"stack.append({vstack[0]})" if len(vstack) == 1 else
                     f"stack.extend(({', '.join(vstack)}))")
    return lines, can_trap


def fused_source(code: Sequence[Instr], bound: Sequence[str]
                 ) -> Tuple[str, List[Tuple[int, int]]]:
    """``make(C, *bound) -> handlers`` as source text, and the runs.  What
    differs between the JVMs that share a method — ``C``, the runs'
    summed costs — is an argument, so the text is compiled once."""
    runs = fused_runs(code)
    out = [f"def make(C, {', '.join(bound)}):",
           f"    [{', '.join(f'c{k}' for k in range(len(runs)))}] = C"]
    for k, (start, end) in enumerate(runs):
        body, can_trap = _run_body(code, start, end)
        head = [f"{name} = frame.{attr}"
                for name, attr in (("stack", "stack"), ("L", "locals"))
                if any(re.search(rf"\b{name}\W", line) for line in body)]
        if can_trap:
            body = ["try:", *("    " + line for line in body),
                    "except _JVME:",
                    f"    thread.instructions += frame.pc - {start}",
                    "    raise"]
        out.append(f"    def run_{start}(thread, frame):")
        out += ["        " + line for line in (
            *head, *body, f"thread.instructions += {end - start - 1}",
            f"return c{k}")]
    out.append(f"    return [{', '.join(f'run_{s}' for s, _ in runs)}]")
    return "\n".join(out), runs
