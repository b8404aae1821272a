"""The mini-JVM bytecode instruction set.

A deliberately Java-flavoured stack ISA: it keeps exactly the instruction
classes the JavaSplit rewriter cares about — heap accesses (GETFIELD /
PUTFIELD / GETSTATIC / PUTSTATIC / ARRLOAD / ARRSTORE), synchronization
(MONITORENTER / MONITOREXIT), allocation, invocation and control flow —
plus the DSM pseudo-instructions that only the rewriter may emit.

Design notes
------------
* Values carry their own type at runtime (Python ints/floats/refs), so
  arithmetic is untyped at the opcode level; the compiler inserts I2D /
  D2I conversions to get Java's static numeric semantics.
* ``DSM_READCHECK depth`` / ``DSM_WRITECHECK depth`` are *fused* forms of
  the paper's Figure 3 four-instruction fast path (DUP; GETFIELD state;
  ICONST 0; IF_ICMPNE).  They peek the object reference ``depth`` slots
  below the top of stack and fall through when the replica is valid; the
  fast-path cost is billed into the following access's ``*_checked`` cost
  key, exactly mirroring the paper's measurement methodology (Table 1
  reports whole rewritten-access latencies, not check latencies).
* Branch targets are integer instruction indices; the builder API in
  :mod:`repro.jvm.assembler` resolves symbolic labels.
"""

from __future__ import annotations

import enum
import math
import re
from contextlib import suppress
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Tuple)

from ..sim import cost_model as cm
from .errors import LinkError


class Op(enum.IntEnum):
    # Constants and locals
    CONST = enum.auto()        # a = literal value (int/float/str/None)
    LOAD = enum.auto()         # a = local index
    STORE = enum.auto()        # a = local index
    IINC = enum.auto()         # a = local index, b = delta

    # Arithmetic / logic (operand types carried by the values)
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    NEG = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    USHR = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    CMP = enum.auto()          # pops b,a; pushes -1/0/1 (double compare)
    I2D = enum.auto()
    D2I = enum.auto()
    CONCAT = enum.auto()       # string concatenation with stringification

    # Stack manipulation
    POP = enum.auto()
    DUP = enum.auto()
    DUP_X1 = enum.auto()       # a,b -> b,a,b
    SWAP = enum.auto()

    # Control flow
    GOTO = enum.auto()         # a = target pc
    IF = enum.auto()           # a = cond ('eq','ne','lt','ge','gt','le'), b = target; pops one, compares to 0/null
    IF_CMP = enum.auto()       # a = cond, b = target; pops two

    # Objects
    NEW = enum.auto()          # a = class name
    GETFIELD = enum.auto()     # a = class name, b = field name
    PUTFIELD = enum.auto()
    GETSTATIC = enum.auto()
    PUTSTATIC = enum.auto()
    INSTANCEOF = enum.auto()   # a = class name
    CHECKCAST = enum.auto()    # a = class name

    # Invocation
    INVOKEVIRTUAL = enum.auto()  # a = static class name, b = method name
    INVOKESTATIC = enum.auto()
    INVOKESPECIAL = enum.auto()  # constructors / super calls, no dispatch
    RETURN = enum.auto()
    RETVAL = enum.auto()

    # Arrays
    NEWARRAY = enum.auto()     # a = element type name; pops length
    ARRLOAD = enum.auto()      # pops index, arrayref
    ARRSTORE = enum.auto()     # pops value, index, arrayref
    ARRAYLENGTH = enum.auto()

    # Synchronization
    MONITORENTER = enum.auto()
    MONITOREXIT = enum.auto()

    # DSM pseudo-instructions (inserted by the rewriter only)
    DSM_READCHECK = enum.auto()   # a = stack depth of the object ref
    DSM_WRITECHECK = enum.auto()  # a = stack depth of the object ref
    DSM_ACQUIRE = enum.auto()     # pops ref; distributed monitorenter
    DSM_RELEASE = enum.auto()     # pops ref; distributed monitorexit
    DSM_STATICREF = enum.auto()   # a = class name; pushes C_static holder ref


class Instr:
    """One bytecode instruction.

    ``a`` and ``b`` are opcode-specific operands (see :class:`Op`).
    ``checked`` marks a heap access guarded by a preceding DSM check —
    the interpreter then bills the ``*_checked`` cost key.  The value
    ``"static"`` marks a checked access to a C_static holder field,
    billed at the (re)written static-access rate of Table 1.  An
    ``Instr`` is cluster-shared data: per-JVM link state (field slots,
    resolved methods) lives in each interpreter's decoded handlers.
    """

    __slots__ = ("op", "a", "b", "checked", "line")

    def __init__(
        self,
        op: Op,
        a: Any = None,
        b: Any = None,
        checked: bool = False,
        line: int = 0,
    ) -> None:
        self.op = op
        self.a = a
        self.b = b
        self.checked = checked
        self.line = line

    def copy(self) -> "Instr":
        """A fresh instruction with the same operands."""
        return Instr(self.op, self.a, self.b, self.checked, self.line)

    def __repr__(self) -> str:
        parts = [self.op.name]
        if self.a is not None:
            parts.append(repr(self.a))
        if self.b is not None:
            parts.append(repr(self.b))
        if self.checked:
            parts.append("[checked]")
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instr)
            and self.op == other.op
            and self.a == other.a
            and self.b == other.b
            and self.checked == other.checked
        )

    def __hash__(self):  # pragma: no cover - Instr used in lists only
        return hash((self.op, self.a, self.b, self.checked))


#: The IF / IF_CMP conditions and the comparison each one is.  IF tests
#: its one operand against 0, where ``eq``/``ne`` also take null for 0.
CONDITIONS = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">=", "gt": ">",
              "le": "<="}


class Row(NamedTuple):
    """What one opcode does: run ``first``, then ``then``, then push
    ``pushed``, bottom-most first.  ``observe`` marks a heap access:
    ``(reference, slot, is_write)`` for the race detector's call, which
    goes after ``first`` (its null test)."""

    pushed: Tuple[str, ...]
    first: Optional[str] = None
    then: Optional[str] = None
    observe: Optional[Tuple[str, str, bool]] = None


def branch_row(op: Op, cond: str) -> Row:
    """IF / IF_CMP on ``cond`` in the shape of a ``SEMANTICS`` row: the
    one "pushed" expression is the test the branch is taken on."""
    if op is Op.IF_CMP:  # references: identity, Obj defines no ``__eq__``
        return Row((f"{{x}} {CONDITIONS[cond]} {{y}}",))
    on_null = ("{x} = 0" if cond in ("eq", "ne") else
               "raise _NPE('ordered compare on null (%s)' % {a})")
    return Row((f"{{x}} {CONDITIONS[cond]} 0",),
               f"if {{x}} is None:\n    {on_null}")


# Heap-access opcodes and their plain cost keys; the interpreter switches
# to ``cm.checked(key)`` when ``instr.checked`` is set.
HEAP_ACCESS_COST = {
    Op.GETFIELD: cm.FIELD_READ,
    Op.PUTFIELD: cm.FIELD_WRITE,
    Op.GETSTATIC: cm.STATIC_READ,
    Op.PUTSTATIC: cm.STATIC_WRITE,
    Op.ARRLOAD: cm.ARRAY_READ,
    Op.ARRSTORE: cm.ARRAY_WRITE,
}

# Cost keys for everything else.
OP_COST = {
    Op.CONST: cm.CONST,
    Op.LOAD: cm.LOCAL,
    Op.STORE: cm.LOCAL,
    Op.IINC: cm.LOCAL,
    Op.ADD: cm.ARITH, Op.SUB: cm.ARITH, Op.MUL: cm.ARITH,
    Op.DIV: cm.ARITH, Op.REM: cm.ARITH, Op.NEG: cm.ARITH,
    Op.SHL: cm.ARITH, Op.SHR: cm.ARITH, Op.USHR: cm.ARITH,
    Op.AND: cm.ARITH, Op.OR: cm.ARITH, Op.XOR: cm.ARITH,
    Op.CMP: cm.ARITH, Op.I2D: cm.CONVERT, Op.D2I: cm.CONVERT,
    Op.CONCAT: cm.NATIVE,
    Op.POP: cm.STACK, Op.DUP: cm.STACK, Op.DUP_X1: cm.STACK,
    Op.SWAP: cm.STACK,
    Op.GOTO: cm.BRANCH, Op.IF: cm.BRANCH, Op.IF_CMP: cm.BRANCH,
    Op.NEW: cm.ALLOC,
    Op.INSTANCEOF: cm.ARITH, Op.CHECKCAST: cm.ARITH,
    Op.INVOKEVIRTUAL: cm.INVOKE, Op.INVOKESTATIC: cm.INVOKE,
    Op.INVOKESPECIAL: cm.INVOKE,
    Op.RETURN: cm.RETURN_, Op.RETVAL: cm.RETURN_,
    Op.NEWARRAY: cm.ALLOC_ARRAY,
    Op.ARRAYLENGTH: cm.FIELD_READ,
    Op.MONITORENTER: cm.MONITOR_ENTER,
    Op.MONITOREXIT: cm.MONITOR_EXIT,
    # DSM check fast paths are billed through the access's *_checked key;
    # acquire/release costs depend on local-vs-shared and come from the
    # hook (LOCAL_LOCK_OP vs SHARED_ACQUIRE/RELEASE — Table 2).
    Op.DSM_READCHECK: None,
    Op.DSM_WRITECHECK: None,
    Op.DSM_ACQUIRE: None,
    Op.DSM_RELEASE: None,
    Op.DSM_STATICREF: cm.CHECK_HIT,
}

#: Per-opcode cost tables ``(plain, checked, static)``, indexed by ``Op``,
#: and what a native's body bills on top of its invoke.
CostTables = Tuple[List[int], List[int], List[int], int]


def cost_tables(cost_model: Mapping[str, int]) -> CostTables:
    """Resolve one JVM brand's cost model into per-opcode tables.

    ``plain`` bills an unchecked instruction, ``checked`` a heap access
    behind a DSM check (the ``*_checked`` rows of Table 1), ``static`` a
    checked access to a C_static holder field: rewritten static accesses
    are GETFIELD/PUTFIELD on the holder (§4.2) and bill the static rows.
    The fourth entry is the native rate a ``MATH`` row adds to its invoke.
    """
    n_ops = max(Op) + 1
    plain = [0] * n_ops
    checked = [0] * n_ops
    for op in Op:
        heap_key = HEAP_ACCESS_COST.get(op)
        if heap_key is not None:
            plain[op] = cost_model[heap_key]
            checked[op] = cost_model[cm.checked(heap_key)]
        elif OP_COST[op] is not None:
            plain[op] = checked[op] = cost_model[OP_COST[op]]
    static = list(checked)
    static[Op.GETFIELD] = cost_model[cm.checked(cm.STATIC_READ)]
    static[Op.PUTFIELD] = cost_model[cm.checked(cm.STATIC_WRITE)]
    return plain, checked, static, cost_model[cm.NATIVE]


def instr_cost(instr: Instr, tables: CostTables) -> int:
    """Base simulated cost of one instruction under ``tables``.

    The one cost resolver: tier-0 decode, the tier-1 compiler and
    ``disasm --costs`` all bill through it, which is what keeps their
    simulated time identical.  A call that is a ``MATH`` row bills what
    the call did: the invoke and the native.
    """
    plain, checked, static, native = tables
    if instr.checked:
        return (static if instr.checked == "static" else checked)[instr.op]
    if native_of(instr) is not None:
        return plain[instr.op] + native
    return plain[instr.op]


# Opcodes only the rewriter may emit; the verifier rejects them in
# classes marked as un-instrumented.
DSM_OPS = frozenset({
    Op.DSM_READCHECK, Op.DSM_WRITECHECK, Op.DSM_ACQUIRE,
    Op.DSM_RELEASE, Op.DSM_STATICREF,
})

#: Operand-stack effect ``(pops, pushes)`` of every opcode whose effect
#: is fixed.  The one stack-effect table: the verifier, the check
#: eliminator and the tier-1 analysis all read it (:mod:`repro.jvm.cfg`
#: walks a method with it).  An invoke pops and pushes what the method
#: it resolves to declares, so ``INVOKES`` have no row.
STACK_EFFECT: Dict[Op, Tuple[int, int]] = {
    Op.CONST: (0, 1), Op.LOAD: (0, 1), Op.STORE: (1, 0), Op.IINC: (0, 0),
    Op.ADD: (2, 1), Op.SUB: (2, 1), Op.MUL: (2, 1), Op.DIV: (2, 1),
    Op.REM: (2, 1), Op.NEG: (1, 1), Op.SHL: (2, 1), Op.SHR: (2, 1),
    Op.USHR: (2, 1), Op.AND: (2, 1), Op.OR: (2, 1), Op.XOR: (2, 1),
    Op.CMP: (2, 1), Op.I2D: (1, 1), Op.D2I: (1, 1), Op.CONCAT: (2, 1),
    Op.POP: (1, 0), Op.DUP: (1, 2), Op.DUP_X1: (2, 3), Op.SWAP: (2, 2),
    Op.GOTO: (0, 0), Op.IF: (1, 0), Op.IF_CMP: (2, 0),
    Op.NEW: (0, 1), Op.GETFIELD: (1, 1), Op.PUTFIELD: (2, 0),
    Op.GETSTATIC: (0, 1), Op.PUTSTATIC: (1, 0),
    Op.INSTANCEOF: (1, 1), Op.CHECKCAST: (1, 1),
    Op.RETURN: (0, 0), Op.RETVAL: (1, 0),
    Op.NEWARRAY: (1, 1), Op.ARRLOAD: (2, 1), Op.ARRSTORE: (3, 0),
    Op.ARRAYLENGTH: (1, 1),
    Op.MONITORENTER: (1, 0), Op.MONITOREXIT: (1, 0),
    Op.DSM_READCHECK: (0, 0), Op.DSM_WRITECHECK: (0, 0),
    Op.DSM_ACQUIRE: (1, 0), Op.DSM_RELEASE: (1, 0),
    Op.DSM_STATICREF: (0, 1),
}
INVOKES = frozenset({Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL})


def _does(*pushed: str, **rest: Any) -> Row:
    return Row(pushed, **rest)


def _on_null(message: str) -> str:
    return f"if {{x}} is None:\n    raise _NPE({message})"


#: What every opcode that neither blocks, calls nor branches *does*: a
#: :class:`Row`.  The one semantics table: tier 0 compiles a handler
#: factory from each row (:mod:`repro.jvm.interpreter`), fuses runs of
#: them (:mod:`repro.jvm.fuse`), and tier 1 substitutes its stack
#: registers into the same row (:mod:`repro.jit.codegen`).  ``{x} {y}
#: {z}`` are the ``STACK_EFFECT`` pops, deepest first — names a
#: statement may assign; ``{a} {b}`` the instruction's operands,
#: ``{local}`` local ``a``, ``{slot}`` the layout slot of field ``a.b``
#: (:func:`link_slots`).  ``_names`` are the tiers' shared helpers
#: (``interpreter.HELPERS``, ``Interpreter.bound``).
SEMANTICS = {
    Op.CONST: _does("{a}"),
    Op.LOAD: _does("{local}"),
    Op.STORE: _does(first="{local} = {x}"),
    Op.IINC: _does(first="{local} += {b}"),
    Op.ADD: _does("{x} + {y}"),
    Op.SUB: _does("{x} - {y}"),
    Op.MUL: _does("{x} * {y}"),
    Op.DIV: _does("_idiv({x}, {y}) if isinstance({x}, int) and "
                  "isinstance({y}, int) else _ddiv({x}, {y})"),
    Op.REM: _does("_irem({x}, {y}) if isinstance({x}, int) and "
                  "isinstance({y}, int) else _drem({x}, {y})"),
    Op.NEG: _does("-{x}"),
    Op.SHL: _does("{x} << _shift({y})"),
    Op.SHR: _does("{x} >> _shift({y})"),
    Op.USHR: _does("({x} & 0xFFFFFFFFFFFFFFFF) >> _shift({y})"),
    Op.AND: _does("{x} & {y}"),
    Op.OR: _does("{x} | {y}"),
    Op.XOR: _does("{x} ^ {y}"),
    Op.CMP: _does("0 if {x} == {y} else (-1 if {x} < {y} else 1)"),
    # float() of an int past the double range is the one Python error a
    # pure op could leak; the ``try`` is free for every int that fits.
    Op.I2D: _does("{x}", first="try:\n"
                  "    {x} = float({x})\n"
                  "except OverflowError:\n"
                  "    raise _AE(_TOO_BIG) from None"),
    Op.D2I: _does("_d2i({x})"),
    Op.CONCAT: _does("_jstr({x}) + _jstr({y})"),
    Op.POP: _does(),
    Op.DUP: _does("{x}", "{x}"),
    Op.DUP_X1: _does("{y}", "{x}", "{y}"),
    Op.SWAP: _does("{y}", "{x}"),
    Op.NEW: _does("_new({a})"),
    Op.NEWARRAY: _does("_newarr({a}, {x})"),
    Op.ARRAYLENGTH: _does("len({x})", first=_on_null("'arraylength on null'")),
    Op.GETSTATIC: _does("_classes[{a}].statics[{b}]"),
    Op.PUTSTATIC: _does(first="_classes[{a}].statics[{b}] = {x}"),
    Op.INSTANCEOF: _does("1 if _isinst({x}, {a}) else 0"),
    Op.CHECKCAST: _does("{x}", first=(
        "if {x} is not None and not _isinst({x}, {a}):\n"
        "    raise _CCE('%s -> %s' % (getattr({x}, 'class_name', "
        "type({x}).__name__), {a}))")),
    # The four accesses the rewriter puts a check in front of (§4).
    Op.GETFIELD: _does("{x}.fields[{slot}]",
                       first=_on_null("'getfield %s.%s' % ({a}, {b})"),
                       observe=("{x}", "{b}", False)),
    Op.PUTFIELD: _does(first=_on_null("'putfield %s.%s' % ({a}, {b})"),
                       then="{x}.fields[{slot}] = {y}",
                       observe=("{x}", "{b}", True)),
    Op.ARRLOAD: _does("{x}.get({y})", first=_on_null("'arrload on null'"),
                      observe=("{x}", "{y}", False)),
    Op.ARRSTORE: _does(first=_on_null("'arrstore on null'"),
                       then="{x}.set({y}, {z})",
                       observe=("{x}", "{y}", True)),
}


class Native(NamedTuple):
    """A pure native method as a row: ``arity`` arguments of type
    ``kind`` (``{x}`` the first, ``{y}`` the second) and one result of
    that type, the row's pushed value."""

    kind: str
    arity: int
    row: Row


def _ieee(call: str, error: str, otherwise: str) -> Native:
    """``{x} = call``, and ``otherwise`` where Python raises ``error`` on
    an argument Java has a result for.  The ``try`` is free while
    nothing is raised, so an in-domain argument costs the one call."""
    return Native("double", 1, _does("{x}", first=(
        f"try:\n    {{x}} = {call}\nexcept {error}:\n    {otherwise}")))


#: The ``Math`` natives, each one row with Java's IEEE results.  Tier 0
#: fuses a call to one into a run and decodes it to the row's handler;
#: tier 1 emits the row where the call was; the bootstrap class declares
#: its methods from here (:mod:`repro.jvm.intrinsics`).  ``floor`` /
#: ``ceil`` keep a zero result's sign from the argument (``or {x} * 0.0``)
#: and hand back an infinity or NaN unchanged, as Java does.
MATH = {
    "sqrt": _ieee("_sqrt({x})", "ValueError", "{x} = _NAN"),
    "sin": _ieee("_sin({x})", "ValueError", "{x} = _NAN"),
    "cos": _ieee("_cos({x})", "ValueError", "{x} = _NAN"),
    "tan": _ieee("_tan({x})", "ValueError", "{x} = _NAN"),
    "log": _ieee("_log({x})", "ValueError",
                 "{x} = -_INF if {x} == 0 else _NAN"),
    "exp": _ieee("_exp({x})", "OverflowError", "{x} = _INF"),
    "floor": _ieee("float(_floor({x})) or {x} * 0.0",
                   "(ValueError, OverflowError)", "pass"),
    "ceil": _ieee("float(_ceil({x})) or {x} * 0.0",
                  "(ValueError, OverflowError)", "pass"),
    "abs": Native("double", 1, _does("abs({x})")),
    "pow": Native("double", 2, _does("_pow({x}, {y})")),
    "atan2": Native("double", 2, _does("_atan2({x}, {y})")),
    "iabs": Native("int", 1, _does("abs({x})")),
    "imin": Native("int", 2, _does("min({x}, {y})")),
    "imax": Native("int", 2, _does("max({x}, {y})")),
    # NaN if either is one, and -0.0 below 0.0.
    "min": Native("double", 2, _does(
        "{x} if {x} < {y} or {x} != {x} or {x} == {y} and "
        "_copysign(1.0, {x}) < 0 else {y}")),
    "max": Native("double", 2, _does(
        "{x} if {x} > {y} or {x} != {x} or {x} == {y} and "
        "_copysign(1.0, {x}) > 0 else {y}")),
}
#: The classes whose ``MATH`` methods are rows: the bootstrap ``Math``
#: and its rewritten twin.  A program cannot declare a ``Math`` of its
#: own (the compiler rejects a duplicate class), so the instruction
#: alone decides, with no JVM at hand.
MATH_CLASSES = frozenset({"Math", "javasplit.Math"})


def native_of(instr: Instr) -> Optional[Native]:
    """The ``MATH`` entry ``instr`` calls; None when it calls none."""
    if instr.op is Op.INVOKESTATIC and instr.a in MATH_CLASSES:
        return MATH.get(instr.b)
    return None


def row_of(instr: Instr) -> Optional[Tuple[Row, int]]:
    """What ``instr`` does as a row, and how many operands it pops: its
    opcode's ``SEMANTICS`` row or the ``MATH`` row it calls.  None for
    whatever can block, call, branch or return."""
    native = native_of(instr)
    if native is not None:
        return native.row, native.arity
    row = SEMANTICS.get(instr.op)
    return None if row is None else (row, STACK_EFFECT[instr.op][0])


def row_text(row: Row) -> str:
    """Everything a row says, for the questions asked of it by name."""
    return "".join(row.pushed) + (row.first or "") + (row.then or "")


#: The heap accesses, and those of them that name a field ``{slot}``.
ACCESSES = frozenset(op for op, row in SEMANTICS.items() if row.observe)
LINKED = frozenset(op for op, row in SEMANTICS.items()
                   if "{slot}" in row_text(row))


def traps(row: Row) -> bool:
    """Whether a row can raise a ``JVMError`` — it says ``raise``, names
    a helper that does or indexes an array: both tiers store the pc
    before it."""
    return bool(re.search(r"raise|_(idiv|irem|ddiv|drem|shift|d2i|new)|"
                          r"\.(get|set)\(", row_text(row)))


TRAPS = frozenset(op for op, row in SEMANTICS.items() if traps(row))


def ref_below(op: Op) -> int:
    """How far below the top of the stack an access finds its reference:
    the one its ``observe`` marker names, counted over its pops."""
    ref = SEMANTICS[op].observe[0].strip("{}")
    return STACK_EFFECT[op][0] - "xyz".index(ref)


def link_slots(code: List[Instr],
               field_index: Callable[[str, str], int]) -> Dict[int, int]:
    """``pc -> {slot}`` of every access in ``code`` that names one, in
    the JVM of ``field_index``: the one link rule, tier 0's at decode and
    tier 1's at compile time.  One that does not link has no entry."""
    slots = {}
    for pc, instr in enumerate(code):
        if instr.op in LINKED:
            with suppress(LinkError):
                slots[pc] = field_index(instr.a, instr.b)
    return slots


def instantiate(row: Row, names: Mapping[str, str],
                site: Optional[str] = None) -> Tuple[List[str], List[str]]:
    """A row over ``names``: its statement lines, its pushed values.
    ``site`` names the access's ``Instr`` where the race detector
    observes it: the call goes after the null test, before the effect."""
    lines = row.first.format(**names).split("\n") if row.first else []
    if site is not None:
        ref, slot, is_write = row.observe
        lines.append(f"_race(thread, {ref}, {slot}, {is_write}, frame, "
                      f"{site})".format(**names))
    if row.then:
        lines += row.then.format(**names).split("\n")
    return lines, [expr.format(**names) for expr in row.pushed]


def literal(value: Any) -> Optional[str]:
    """A CONST operand as source text; None when it is not one."""
    if value is None or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else f"float('{value!r}')"
    return None


# Opcodes after which control does not fall through to pc + 1, and
# opcodes that carry a branch target.
TERMINATORS = frozenset({Op.GOTO, Op.RETURN, Op.RETVAL})
BRANCHES = frozenset({Op.GOTO, Op.IF, Op.IF_CMP})


def branch_target(instr: Instr) -> Any:
    """Where a ``BRANCHES`` instruction jumps: a pc, or whatever
    placeholder (assembler label, rewriter sentinel) stands in for one."""
    return instr.a if instr.op is Op.GOTO else instr.b


def retarget(instr: Instr, target: Any) -> None:
    """Point a ``BRANCHES`` instruction at ``target``."""
    if instr.op is Op.GOTO:
        instr.a = target
    else:
        instr.b = target
