"""The one semantics table, checked against values written down here.

Both tiers build a pure opcode from its ``SEMANTICS`` row, so tier 0 is
no longer an independent reference for tier 1 on those opcodes.  These
tests are: every row, run as a one-op method through a tier-0 handler
*and* through compiled text, against a literal result or a literal
error; what an observed access tells the race detector, and where an
access that does not link fails, in both tiers; and the emitted text of
the three apps, pinned at the parent commit.
"""

from __future__ import annotations

import hashlib
import math
import re
from types import SimpleNamespace

import pytest

from repro.jit.codegen import compile_method
from repro.heap import (
    ArrayIndexError,
    ArrayObj,
    JVMError,
    NegativeArraySizeError,
    Obj,
)
from repro.jvm import ClassBuilder, Instr, MethodInfo, Op
from repro.jvm.bytecode import SEMANTICS, STACK_EFFECT, instr_cost
from repro.jvm.errors import (
    ArithmeticJavaError,
    ClassCastError,
    LinkError,
    NullPointerError,
)
from repro.jvm.frame import Frame
from repro.jvm.jvm import JThread
from repro.runtime import RuntimeConfig, build_runtime, run_original

from conftest import make_jvm
from test_jit import APPS, compiled_fns, run_runtime

NAN, INF = math.nan, math.inf


def row_jvm():
    """A JVM holding ``Base`` (static ``Base.n`` = 5, instance field
    ``v`` = 3), ``Sub extends Base`` and ``Other``."""
    _, _, jvm = make_jvm()
    base = ClassBuilder("Base")
    base.field("n", "int", is_static=True, init=5)
    base.field("v", "int", init=3)
    jvm.load_classes([base.build(),
                      ClassBuilder("Sub", super_name="Base").build(),
                      ClassBuilder("Other").build()])
    return jvm


def tier1(jvm):
    """Tier 1 of ``jvm``: ``method -> run(thread, end)``.  It puts the
    method's traces into this JVM's fused list of it, as the JIT agent
    does; ``run`` dispatches the thread's top frame over that list as
    ``Interpreter.run`` does, until its pc reaches ``end``, and returns
    the nanoseconds billed."""
    def compiled(method):
        fused = jvm.interpreter.fuse(method)
        compile_method(method, SimpleNamespace(jvm=jvm))(fused)

        def run(thread, end):
            frame, cost = thread.frames[-1], 0
            while frame.pc < end:
                pc = frame.pc
                try:
                    cost += fused[pc](thread, frame, 10 ** 9)
                except JVMError as exc:
                    thread.instructions += frame.pc - pc
                    thread.fail(exc, frame.where())
                    raise
                thread.instructions += 1
            return cost
        return run
    return compiled


def traced(code):
    """``code``, then a branch that is never taken, so that a trace of
    tier 1 runs through it, and an unresolvable call, so that nothing
    runs past it: ``(code, the call's pc)``."""
    end = len(code) + 4
    return code + [Instr(Op.CONST, 0), Instr(Op.IF, "ne", end),
                   Instr(Op.CONST, 0), Instr(Op.POP),
                   Instr(Op.INVOKESTATIC, "NoSuchClass", "m"),
                   Instr(Op.RETURN)], end


def run_row(jvm, tier, op, operands=(), a=None, b=None, checked=False):
    """Execute ``op`` on ``operands`` (deepest first; they start out as
    the locals, so ``a`` may name one) in tier 0 or tier 1.  Returns
    ``(stack, locals, cost_ns)`` after the op, or the ``JVMError`` it
    raised — attributed, like any failure, to ``T.m pc=<the op>``."""
    n = len(operands)
    code, end = traced([Instr(Op.LOAD, k) for k in range(n)] + [
        Instr(op, a, b, checked=checked, line=7)])
    method = MethodInfo("m", ["int"] * n, "void", code=code,
                        flags={"static"}, klass="T")
    frame = Frame(method, list(operands))
    thread = JThread(jvm, frame, name="t")
    try:
        if tier == 0:
            cost = sum(jvm.interpreter.step(thread) for _ in range(n + 1))
        else:  # the line runs on to the call; what ran past the op goes
            cost = tier1(jvm)(method)(thread, end) - sum(
                instr_cost(i, jvm.interpreter.cost_tables)
                for i in code[n + 1:end])
            assert frame.pc == thread.instructions == end
            frame.pc = thread.instructions = n + 1
    except JVMError as exc:
        assert thread.error is exc
        return exc
    assert frame.pc == n + 1
    return list(frame.stack), list(frame.locals), cost


# (op, operands, a, b) -> the stack afterwards | (error class, message).
# A ``str`` operand or result standing for a heap object names its class.
ROWS = [
    (Op.CONST, (), 7, None, [7]),
    (Op.CONST, (), None, None, [None]),
    (Op.CONST, (), -INF, None, [-INF]),
    (Op.CONST, (), "a'b", None, ["a'b"]),
    (Op.LOAD, (3, 4), 1, None, [3, 4, 4]),
    (Op.STORE, (3, 4), 0, None, [3]),            # locals checked below
    (Op.IINC, (3,), 0, -5, [3]),
    (Op.ADD, (2, 3), None, None, [5]),
    (Op.ADD, (0.5, 0.25), None, None, [0.75]),
    (Op.SUB, (2, 3), None, None, [-1]),
    (Op.MUL, (1 << 40, 1 << 40), None, None, [1 << 80]),
    (Op.DIV, (-7, 2), None, None, [-3]),
    (Op.DIV, (7, -2), None, None, [-3]),
    (Op.DIV, (1, 0), None, None, (ArithmeticJavaError, "/ by zero")),
    (Op.DIV, (7.0, 2.0), None, None, [3.5]),
    (Op.DIV, (1, 2.0), None, None, [0.5]),
    (Op.DIV, (-1.0, 0.0), None, None, [-INF]),
    (Op.DIV, (1.0, -0.0), None, None, [-INF]),
    (Op.DIV, (0.0, 0.0), None, None, [NAN]),
    (Op.DIV, (1 << 2000, 2.0), None, None,
     (ArithmeticJavaError, "(double) of an int beyond the double range")),
    (Op.REM, (-7, 2), None, None, [-1]),
    (Op.REM, (7, -2), None, None, [1]),
    (Op.REM, (1, 0), None, None, (ArithmeticJavaError, "% by zero")),
    (Op.REM, (-7.5, 2.0), None, None, [-1.5]),
    (Op.REM, (1.0, 0.0), None, None, [NAN]),
    (Op.REM, (INF, 2.0), None, None, [NAN]),
    (Op.REM, (3.0, INF), None, None, [3.0]),
    (Op.REM, (1 << 2000, 2.0), None, None,
     (ArithmeticJavaError, "(double) of an int beyond the double range")),
    (Op.NEG, (5,), None, None, [-5]),
    (Op.NEG, (0.0,), None, None, [-0.0]),
    (Op.SHL, (3, 70), None, None, [3 << 70]),
    (Op.SHR, (-9, 1), None, None, [-5]),
    (Op.USHR, (-1, 60), None, None, [15]),
    (Op.USHR, (256, 4), None, None, [16]),
    (Op.SHL, (1, -1), None, None,
     (ArithmeticJavaError, "negative shift count")),
    (Op.SHR, (1, -1), None, None,
     (ArithmeticJavaError, "negative shift count")),
    (Op.USHR, (1, -1), None, None,
     (ArithmeticJavaError, "negative shift count")),
    (Op.AND, (12, 10), None, None, [8]),
    (Op.OR, (12, 10), None, None, [14]),
    (Op.XOR, (12, 10), None, None, [6]),
    (Op.CMP, (1.0, 2.0), None, None, [-1]),
    (Op.CMP, (2.0, 2.0), None, None, [0]),
    (Op.CMP, (3.0, 2.0), None, None, [1]),
    (Op.CMP, (NAN, 1.0), None, None, [1]),
    (Op.CMP, (1.0, NAN), None, None, [1]),
    (Op.I2D, (3,), None, None, [3.0]),
    (Op.I2D, (1 << 2000,), None, None,
     (ArithmeticJavaError, "(double) of an int beyond the double range")),
    (Op.D2I, (-2.9,), None, None, [-2]),
    (Op.D2I, (NAN,), None, None, [0]),
    (Op.D2I, (-INF,), None, None,
     (ArithmeticJavaError, "(int) of infinite double")),
    (Op.CONCAT, (None, 1.0), None, None, ["null1.0"]),
    (Op.CONCAT, ("x", NAN), None, None, ["xNaN"]),
    (Op.CONCAT, (INF, -INF), None, None, ["Infinity-Infinity"]),
    (Op.CONCAT, (1.5, 12), None, None, ["1.512"]),
    (Op.POP, (1, 2), None, None, [1]),
    (Op.DUP, (1, 2), None, None, [1, 2, 2]),
    (Op.DUP_X1, (1, 2), None, None, [2, 1, 2]),
    (Op.SWAP, (0, 1, 2), None, None, [0, 2, 1]),
    (Op.NEW, (), "Sub", None, ["Sub"]),
    (Op.NEW, (), "Missing", None, (LinkError, "class Missing not loaded")),
    (Op.NEWARRAY, (3,), "int", None, ["int[]"]),
    (Op.NEWARRAY, (-1,), "int", None,
     (NegativeArraySizeError, "array length -1")),
    (Op.ARRAYLENGTH, ("int[]",), None, None, [4]),
    (Op.ARRAYLENGTH, (None,), None, None,
     (NullPointerError, "arraylength on null")),
    (Op.GETSTATIC, (), "Base", "n", [5]),
    (Op.PUTSTATIC, (1, 9), "Base", "n", [1]),    # static checked below
    (Op.INSTANCEOF, ("Sub",), "Base", None, [1]),
    (Op.INSTANCEOF, ("Base",), "Sub", None, [0]),
    (Op.INSTANCEOF, (None,), "Base", None, [0]),
    (Op.INSTANCEOF, ("s",), "String", None, [1]),
    (Op.INSTANCEOF, ("int[]",), "int[]", None, [1]),
    (Op.CHECKCAST, ("Sub",), "Base", None, ["Sub"]),
    (Op.CHECKCAST, (None,), "Other", None, [None]),
    (Op.CHECKCAST, ("Sub",), "Other", None,
     (ClassCastError, "Sub -> Other")),
    (Op.CHECKCAST, ("s",), "Other", None, (ClassCastError, "str -> Other")),
    (Op.GETFIELD, ("Sub",), "Base", "v", [3]),
    (Op.GETFIELD, (None,), "Base", "v",
     (NullPointerError, "getfield Base.v")),
    # A field that does not link fails where it runs, after the null test.
    (Op.GETFIELD, ("Sub",), "Sub", "nope", (LinkError, "no field Sub.nope")),
    (Op.GETFIELD, (None,), "Sub", "nope",
     (NullPointerError, "getfield Sub.nope")),
    (Op.PUTFIELD, ("Sub", 9), "Base", "v", []),  # field checked below
    (Op.PUTFIELD, (None, 9), "Base", "v",
     (NullPointerError, "putfield Base.v")),
    (Op.PUTFIELD, ("Sub", 9), "Missing", "v",
     (LinkError, "class Missing not loaded")),
    (Op.ARRLOAD, ("int[]", 3), None, None, [0]),
    (Op.ARRLOAD, ("int[]", 4), None, None,
     (ArrayIndexError, "index 4, length 4")),
    (Op.ARRLOAD, (None, 0), None, None, (NullPointerError, "arrload on null")),
    (Op.ARRSTORE, ("int[]", 1, 5), None, None, []),  # element checked below
    (Op.ARRSTORE, ("int[]", -1, 5), None, None,
     (ArrayIndexError, "index -1, length 4")),
    (Op.ARRSTORE, (None, 0, 5), None, None,
     (NullPointerError, "arrstore on null")),
]


def _heap(jvm, operands):
    """Operands with class names turned into objects of that class."""
    def make(v):
        if v in ("Base", "Sub", "Other"):
            return jvm.new_instance(v)
        return jvm.new_array("int", 4) if v == "int[]" else v
    return tuple(make(v) for v in operands)


def _same(got, want):
    """Equal, where NaN equals NaN, 0.0 is not -0.0 and 1 is not 1.0."""
    if isinstance(want, float):
        return isinstance(got, float) and (
            math.isnan(got) if math.isnan(want)
            else got == want and math.copysign(1, got) == math.copysign(1, want))
    if want in ("Base", "Sub", "Other"):
        return isinstance(got, Obj) and got.class_name == want
    if want == "int[]":
        return isinstance(got, ArrayObj) and got.class_name == want
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("tier", (0, 1))
@pytest.mark.parametrize(
    "op, operands, a, b, want", ROWS,
    ids=[f"{r[0].name}{list(r[1])}" + (f"-{r[2]}" if r[2] is not None else "")
         for r in ROWS])
def test_row_against_literal(op, operands, a, b, want, tier):
    jvm = row_jvm()
    operands = _heap(jvm, operands)
    got = run_row(jvm, tier, op, operands, a, b)
    if isinstance(want, tuple):
        kind, message = want
        assert type(got) is kind
        assert str(got) == f"{message} at T.m pc={len(operands)} (line 7) [t]"
        return
    stack, local_vars, cost = got
    assert len(stack) == len(want) and all(map(_same, stack, want)), stack
    plain = jvm.interpreter.cost_tables[0]
    assert cost == len(operands) * plain[Op.LOAD] + plain[op]
    if op is Op.STORE:
        assert local_vars == [4, 4]
    elif op is Op.IINC:
        assert local_vars == [-2]
    else:
        assert all(map(_same, local_vars, operands))
    assert jvm.classes["Base"].statics["n"] == (
        9 if op is Op.PUTSTATIC else 5)
    if op is Op.PUTFIELD:
        assert operands[0].fields[jvm.field_index("Base", "v")] == 9
    elif op is Op.ARRSTORE:
        assert operands[0].data == [0, 5, 0, 0]


def test_every_row_has_a_literal():
    assert {row[0] for row in ROWS} == set(SEMANTICS)
    for op, operands, *_ in ROWS:
        # LOAD and SWAP get spare operands: something to load, something
        # that must stay where it is.
        assert len(operands) >= STACK_EFFECT[op][0]


# (op, operands, a, b) of a checked access -> what the race detector is
# told: (the reference operand, slot, is_write); None = not told (NPE).
OBSERVED = [
    (Op.GETFIELD, ("Sub",), "Base", "v", (0, "v", False)),
    (Op.PUTFIELD, ("Sub", 9), "Base", "v", (0, "v", True)),
    (Op.ARRLOAD, ("int[]", 3), None, None, (0, 3, False)),
    (Op.ARRSTORE, ("int[]", 1, 5), None, None, (0, 1, True)),
    (Op.ARRLOAD, ("int[]", 4), None, None, (0, 4, False)),  # then AIOOBE
    (Op.GETFIELD, (None,), "Base", "v", None),
    (Op.ARRSTORE, (None, 1, 5), None, None, None),
]


@pytest.mark.parametrize("tier", (0, 1))
@pytest.mark.parametrize("op, operands, a, b, told", OBSERVED,
                         ids=[f"{r[0].name}{list(r[1])}" for r in OBSERVED])
def test_an_observed_access_tells_what_its_marker_names(
        op, operands, a, b, told, tier):
    """One ``observe`` marker per row: both tiers build the race call
    from it, after the null test and before the effect."""
    jvm = row_jvm()
    seen = []
    jvm.interpreter.race_hook = (
        lambda thread, ref, slot, is_write, frame, instr:
        seen.append((ref, slot, is_write, frame.pc, instr.line)))
    operands = _heap(jvm, operands)
    got = run_row(jvm, tier, op, operands, a, b, checked=True)
    if told is None:
        assert isinstance(got, NullPointerError) and seen == []
        return
    ref, slot, is_write = told
    assert seen == [(operands[ref], slot, is_write, len(operands), 7)]
    assert isinstance(got, ArrayIndexError) == (slot == 4)


# T.m(flag, ref): ``if (flag != 0) return ref.nope; return 7;`` — a
# field of a loaded class that the class does not declare.
OFF_PATH = [Instr(Op.LOAD, 0), Instr(Op.IF, "eq", 5), Instr(Op.LOAD, 1),
            Instr(Op.GETFIELD, "Sub", "nope", line=7), Instr(Op.RETVAL),
            Instr(Op.CONST, 7), Instr(Op.RETVAL)]


def _run_off_path(tier, flag, ref):
    """The result of ``T.m(flag, ref)`` run to its end, or its error."""
    jvm = row_jvm()
    method = MethodInfo("m", ["int", "Base"], "int", code=OFF_PATH,
                        max_locals=2, flags={"static"}, klass="T")
    frame = Frame(method, [flag, ref and jvm.new_instance(ref)])
    thread = JThread(jvm, frame, name="t")
    try:
        if tier == 1:  # the traces run from the fused list
            tier1(jvm)(method)
        jvm.interpreter.run(thread, 10 ** 9)
    except JVMError as exc:
        return str(exc)
    return thread.result


@pytest.mark.parametrize("tier", (0, 1))
def test_an_unlinkable_field_fails_only_where_it_runs(tier):
    """Tier 0 links at decode and tier 1 at compile time; a field that
    does not link then is a wrapper / a deopt site, so a path that never
    reaches it runs clean, and the one that does fails there — on a
    null receiver with the NPE, as an access that linked would."""
    assert _run_off_path(tier, 0, "Sub") == 7
    assert _run_off_path(tier, 1, "Sub") == \
        "no field Sub.nope at T.m pc=3 (line 7) [t]"
    assert _run_off_path(tier, 1, None) == \
        "getfield Sub.nope at T.m pc=3 (line 7) [t]"


def test_a_link_rule_that_breaks_is_not_a_link_error(monkeypatch):
    """Only ``LinkError`` means "does not link": anything else out of the
    link rule is a bug, and fails the decode / the compile instead of
    quietly becoming a wrapper or a deopt site."""
    jvm = row_jvm()
    monkeypatch.setattr(jvm, "field_index", lambda a, b: {}[a])
    method = MethodInfo("m", [], "void", code=OFF_PATH, max_locals=2,
                        flags={"static"}, klass="T")
    with pytest.raises(KeyError):
        jvm.interpreter.decode(method)
    with pytest.raises(KeyError):
        tier1(jvm)(method)


# ---------------------------------------------------------------------------
# Values the helpers produce by design must print; an int no double can
# hold must fail as a Java error.  Each used to abort the run with a raw
# Python ValueError / OverflowError out of a helper both tiers bind.
# ---------------------------------------------------------------------------
NOT_A_NUMBER = """
class Main {
    static int main() {
        double zero = 0.0;
        for (int i = 0; i < 3; i++) {
            Sys.println("" + (zero / zero) + " " + (1.0 / zero));
            Sys.println((-1.0 / zero) + " " + (5.0 % zero));
        }
        return 7;
    }
}
"""
TOO_BIG_FOR_A_DOUBLE = """
class Main {
    static double widen(int x) { return x; }
    static int main() {
        int x = 2;
        for (int i = 0; i < 11; i++) { x = x * x; widen(i); }
        return (int) widen(x);
    }
}
"""


def _run(source, how):
    if how == "original":
        return run_original(source=source)
    config = RuntimeConfig(num_nodes=2, seed=0, jit_enable=how == "jit",
                           jit_threshold=1)
    report = build_runtime(source, config).run()
    assert how != "jit" or report.jit["compiles"] > 0
    return report


@pytest.mark.parametrize("how", ("original", "run", "jit"))
def test_nan_and_infinity_print_as_java_prints_them(how):
    report = _run(NOT_A_NUMBER, how)
    assert report.result == 7
    assert report.console == ["NaN Infinity", "-Infinity NaN"] * 3


@pytest.mark.parametrize("how", ("original", "run", "jit"))
def test_widening_an_int_no_double_holds_is_a_java_error(how):
    with pytest.raises(ArithmeticJavaError) as failure:
        _run(TOO_BIG_FOR_A_DOUBLE, how)
    prefix = "" if how == "original" else "javasplit."
    assert re.fullmatch(
        r"\(double\) of an int beyond the double range at "
        + prefix + r"Main\.widen pc=1 \(line 3\) \[main\]",
        str(failure.value))


# ---------------------------------------------------------------------------
# Emitted text, pinned at the parent commit
# ---------------------------------------------------------------------------
# SHA-256 over every compiled method's text (sorted by method; the text
# names no object, so nothing in it is normalised) of seed 0 on 3 nodes,
# the trace exits per reason and the instructions run outside a trace.
# The hashes were re-pinned when tier 1 gained traces, when the heap
# accesses became rows, when a call to ``Math`` became its ``MATH`` row,
# when tier 1 came to be written by tier 0's line writer, and when tier
# 1 became its traces alone, each one tier 0's handler at its head.
PARENT_TEXT = {
    ("series", 0): ("6f4f42964dba053e", {"leave": 898}, 62079),
    ("series", 2): ("6f4f42964dba053e", {"leave": 934}, 61480),
    ("tsp", 0): ("5683519f0bc4c6e2", {"block_read": 5, "block_write": 406,
                                      "budget": 119, "leave": 5079}, 43830),
    ("tsp", 2): ("a95305a19cb53a1b", {"block_read": 3, "block_write": 250,
                                      "budget": 83, "leave": 5253}, 37619),
    ("raytracer", 0): ("5fe5e71d332340bd", {"leave": 964, "return": 43},
                       89987),
    ("raytracer", 2): ("4cfb5db87ae2c451", {"leave": 4557, "return": 43},
                       31215),
}


def emitted_text(runtime) -> str:
    texts = []
    for name, fns in sorted(compiled_fns(runtime).items()):
        assert len({fn.source for fn in fns}) == 1, name
        texts.append(fns[0].source)
    return "\n".join(texts)


@pytest.mark.parametrize("check_elim", (0, 2))
@pytest.mark.parametrize("app", APPS)
def test_emitted_text_is_the_parents(app, check_elim):
    runtime, report = run_runtime(app, jit=True, check_elim=check_elim)
    text = emitted_text(runtime)
    steps = sum(node["interp_steps"] for node in report.jit["nodes"])
    assert (hashlib.sha256(text.encode()).hexdigest()[:16],
            report.jit["exit_reasons"], steps) == PARENT_TEXT[app, check_elim]
