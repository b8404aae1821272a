"""Bytecode disassembler: human-readable class-file listings.

Primarily a rewriter-inspection tool: diffing the listing of an original
class against its ``javasplit.*`` twin shows exactly what the
instrumentation did (the paper's Figure 2/3, regenerable for any class).

With ``costs=<brand>`` the listing additionally shows what each tier
runs: every trace with what its one budget test pre-charges and how
many of its checks are already proven when reached, every run tier 0
fuses with what its one handler bills (a tail with the guard it resumes
after, and a guard — a read check a run tests in line — marked), and
check-elimination notes (``method.elim_notes``, written by the level-1/2
passes) annotate the instructions whose access checks were removed or
hoisted.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim.cost_model import get_brand
from .bytecode import (BRANCHES, CostTables, Instr, Op, branch_target,
                       cost_tables, instr_cost)
from .cfg import branch_targets
from .classfile import ClassFile, MethodInfo
from .fuse import GUARD, fused_runs


def resolve_cost_tables(brand: str, profile: str = "micro") -> CostTables:
    """The :func:`~repro.jvm.bytecode.cost_tables` of a JVM brand."""
    return cost_tables(get_brand(brand, profile))


def format_instr(pc: int, instr: Instr) -> str:
    parts = [f"{pc:4d}  {instr.op.name}"]
    if instr.op in BRANCHES:
        cond = "" if instr.op is Op.GOTO else f"{instr.a} "
        parts.append(f"{cond}-> {branch_target(instr)}")
    else:
        if instr.a is not None:
            parts.append(repr(instr.a))
        if instr.b is not None:
            parts.append(repr(instr.b))
    if instr.checked:
        parts.append("[checked]" if instr.checked is True else "[checked:static]")
    return " ".join(parts)


def _describe_trace(method: MethodInfo, trace) -> str:
    """``trace pc 81..134 (+143..147): 3653 ns pre-charged, 6 of 12
    checks proven`` — the line from the head, then the latch blocks it
    runs through."""
    from ..jit.analysis import CHECKS
    pcs = [pc for pc, *_ in trace.steps]
    cut = next((k for k in range(1, len(pcs)) if pcs[k] != pcs[k - 1] + 1),
               len(pcs))
    latches = set(trace.latches.items()) | {(pc, pcs[-1]) for pc in pcs[cut:cut + 1]}
    proven = [known for pc, _, _, known in trace.steps
              if method.code[pc].op in CHECKS]
    return (f"trace pc {pcs[0]}..{pcs[cut - 1]}"
            + "".join(f" (+{a}..{b})" for a, b in sorted(latches))
            + f": {trace.total} ns pre-charged, {sum(proven)} of "
              f"{len(proven)} checks proven")


def disassemble_method(method: MethodInfo,
                       costs: Optional[CostTables] = None) -> str:
    flags = " ".join(sorted(method.flags))
    sig = f"{method.ret} {method.name}({', '.join(method.params)})"
    header = f"  {flags + ' ' if flags else ''}{sig}"
    if method.is_native:
        return header + "  [native]"
    lines = [header, f"    max_locals={method.max_locals}"]
    targets = branch_targets(method.code)
    elim_notes = getattr(method, "elim_notes", None) or {}
    fused, traced, guards = {}, {}, set()
    if costs is not None:
        from ..jit.analysis import traces
        fused = dict(fused_runs(method.code))
        guards = {pc for start, end in fused.items()
                  for pc in range(start + 1, end)
                  if method.code[pc].op is GUARD}
        traced = traces(method, costs)
    for pc, instr in enumerate(method.code):
        if pc in traced:
            lines.append("      ; " + _describe_trace(method, traced[pc]))
        if pc in fused:
            total = sum(instr_cost(i, costs) for i in method.code[pc:fused[pc]])
            tail = (f", resumes after the check at pc {pc - 1}"
                    if pc - 1 in guards else "")
            lines.append(f"      ; fused pc {pc}..{fused[pc] - 1}: {total} ns"
                         + tail)
        marker = ">" if pc in targets else " "
        text = f"   {marker}{format_instr(pc, instr)}"
        if pc in guards:
            text += "  ; guard: tested in line"
        note = elim_notes.get(pc)
        if note:
            text += f"  ; elim: {note}"
        lines.append(text)
    return "\n".join(lines)


def disassemble_class(cf: ClassFile,
                      costs: Optional[CostTables] = None) -> str:
    lines = [f"class {cf.name} extends {cf.super_name or '<root>'}"
             + ("  [instrumented]" if cf.instrumented else "")]
    for f in cf.fields:
        mods = []
        if f.is_static:
            mods.append("static")
        if f.volatile:
            mods.append("volatile")
        init = f" = {f.init!r}" if f.init is not None else ""
        lines.append(f"  {' '.join(mods + [f.type, f.name])}{init}")
    for method in cf.methods.values():
        lines.append("")
        lines.append(disassemble_method(method, costs))
    return "\n".join(lines)


def disassemble(classfiles: Iterable[ClassFile],
                costs: Optional[CostTables] = None) -> str:
    return "\n\n".join(disassemble_class(cf, costs) for cf in classfiles)
