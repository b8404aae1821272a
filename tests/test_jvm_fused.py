"""Tier 0's fused runs are exact: to the quantum, to the trap, to the alias.

``Interpreter.run`` dispatches one handler for a whole straight-line run
of pure opcodes (``repro.jvm.fuse``).  That is a bytecode-to-bytecode
transformation, so it is held to what the per-instruction handlers do —
they stay, behind ``Interpreter.step`` and the quantum's tail, and are
the reference here: same state at every budget, same error at every
trap, same values through every alias (through the heap too), same
simulated time on whole programs, one compiled text per method whatever
the brand, and no observed access ever inside a run.  The writer of a
run's text writes tier 1's straight lines too, over registers: they are
held to stepping the same way, and tier 0's text stays the parent's.
"""

from __future__ import annotations

import hashlib
import math
import os

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from repro.check.runner import app_source
from repro.heap import ArrayObj, JVMError, Obj
from repro.jvm import ClassBuilder, Instr, MethodInfo, Op
from repro.jvm import interpreter as tier0
from repro.jvm.bytecode import (ACCESSES, DSM_OPS, INVOKES, MATH, SEMANTICS,
                                STACK_EFFECT, native_of)
from repro.jvm.frame import Frame
from repro.jvm.fuse import NOT_FUSED, fused_runs, fused_source
from repro.jit.codegen import R_DEOPT
from repro.jvm.jvm import JThread
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.sim.node import StreamState

from conftest import make_jvm
from test_property import (_ACC_PLUS_CELL, _BUMP_CELL, _GEN_SRC, _I_IS_ODD,
                           _fold_increments, _java, _shape, _statement)


def _by_step(thread, budget_ns):
    """A quantum over the per-instruction handlers: the budget rule of
    ``Interpreter.run``, one ``step`` at a time."""
    consumed = 0
    step = thread.jvm.interpreter.step
    while consumed < budget_ns and thread.state is StreamState.RUNNABLE:
        consumed += step(thread)
    return consumed


def _by_run(thread, budget_ns):
    return thread.jvm.interpreter.run(thread, budget_ns)


def _plain(value):
    """A snapshot of a stack or a local array in which a heap reference
    is something two separate heaps compare on."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, Obj):
        return value.class_name, [_plain(v) for v in value.fields]
    if isinstance(value, ArrayObj):
        return value.class_name, [_plain(v) for v in value.data]
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _state(thread, frame):
    return (frame.pc, _plain(frame.stack), _plain(frame.locals),
            thread.instructions, thread.state)


def _outcome(thread, quantum, budget_ns=10**12):
    """Everything a quantum leaves behind, error included."""
    frame = thread.frames[-1]
    try:
        consumed, error = quantum(thread, budget_ns), None
    except JVMError as exc:
        consumed, error = None, str(exc).replace(thread.name, "main")
    return (consumed, error, *_state(thread, frame))


def _method_thread(code, max_locals=4, args=(), jvm=None):
    jvm = jvm or make_jvm()[2]
    method = MethodInfo("m", [], "int", code=code, max_locals=max_locals,
                        flags={"static"}, klass="T")
    return JThread(jvm, Frame(method, list(args)))


# ---------------------------------------------------------------------------
# (a) The quantum boundary: every budget, generated methods
# ---------------------------------------------------------------------------
def _gen_thread(jvm):
    """A thread about to run ``Gen.run(box, cells, 2)`` on fresh objects
    (original classes: the accesses are plain, nothing can block)."""
    gen, box = jvm.new_instance("Gen"), jvm.new_instance("Box")
    box.fields[:] = [3, 1.5]
    cells = jvm.new_array("int", 8)
    cells.data[:] = [5, -2, 0, 7, 1, 1, -9, 4]
    method = jvm.resolve_method("Gen", "run")
    return JThread(jvm, Frame(method, [gen, box, jvm.new_instance("Box"),
                                       cells, 2]))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.lists(st.one_of(_statement, _shape), min_size=1, max_size=3),
       brand=st.sampled_from(["sun", "ibm"]))
@example(body=[_BUMP_CELL, ("loop", "j", 2, [
    _ACC_PLUS_CELL, ("ret", (">", ("var", "acc"), ("lit", 40)))])],
    brand="ibm")
@example(body=[("if", _I_IS_ODD,
                [("set", ("var", "box.fi"), ("var", "i")), _BUMP_CELL,
                 ("set", ("var", "box.fd"), ("i2d", ("var", "acc")))],
                [_ACC_PLUS_CELL])], brand="sun")
@example(body=[_BUMP_CELL, ("set", ("var", "box.fd"), (
    "+", ("math", "sqrt", ("math", "abs", ("i2d", ("var", "acc")))),
    ("math", "max", ("var", "box.fd"), ("lit", 1.5)))),
    ("set", ("var", "acc"), ("math", "imin", ("var", "acc"), ("cell", 3)))],
    brand="ibm")
def test_every_budget_leaves_the_state_stepping_leaves(body, brand):
    classfiles = compile_source(
        _GEN_SRC % "\n".join(_java(stmt) for stmt in body))
    method = next(cf for cf in classfiles if cf.name == "Gen").methods["run"]
    _fold_increments(method)  # IINC, which the compiler never emits
    runs = fused_runs(method.code)
    assert runs
    # Every Math call is a row inside a run: the budgets below cut those
    # runs through their natives too.
    assert all(any(start < pc < end for start, end in runs)
               for pc, instr in enumerate(method.code) if native_of(instr))
    # The reference once: the state after every instruction, and what
    # the quantum had consumed when it got there.
    _, _, jvm = make_jvm(brand)
    jvm.load_classes(classfiles)
    thread = _gen_thread(jvm)
    frame = thread.frames[-1]
    after = [(0, _state(thread, frame))]
    while thread.state is StreamState.RUNNABLE:
        after.append((after[-1][0] + _by_step(thread, 1),
                      _state(thread, frame)))
    total = after[-1][0]
    assert after[-1][1][-1] is StreamState.FINISHED
    for budget_ns in range(1, total + 2):
        # Stepping stops at the first instruction boundary at or past
        # the budget (the last one, once the budget is past the RETVAL).
        expected = next((step for step in after if step[0] >= budget_ns),
                        after[-1])
        thread = _gen_thread(jvm)
        frame = thread.frames[-1]
        assert (_by_run(thread, budget_ns),
                _state(thread, frame)) == expected, (budget_ns, brand)
    assert jvm.interpreter.margin > 0


# ---------------------------------------------------------------------------
# (b) Traps: one per trapping row, in the middle of a run
# ---------------------------------------------------------------------------
TRAPS = {
    "/ by zero": [Instr(Op.CONST, 1), Instr(Op.CONST, 0), Instr(Op.DIV)],
    "% by zero": [Instr(Op.CONST, 1), Instr(Op.CONST, 0), Instr(Op.REM)],
    "negative shift count": [Instr(Op.CONST, 1), Instr(Op.CONST, -1),
                             Instr(Op.SHL)],
    "(int) of infinite double": [Instr(Op.CONST, math.inf), Instr(Op.D2I)],
    "(double) of an int beyond the double range": [
        Instr(Op.CONST, 10 ** 400), Instr(Op.I2D)],
    "arraylength on null": [Instr(Op.CONST, None), Instr(Op.ARRAYLENGTH)],
    "ordered compare on null (lt)": [Instr(Op.CONST, None),
                                     Instr(Op.IF, "lt", 0)],
    "str -> Thread": [Instr(Op.CONST, "s"), Instr(Op.CHECKCAST, "Thread")],
    "array length -1": [Instr(Op.CONST, -1), Instr(Op.NEWARRAY, "int")],
}


@pytest.mark.parametrize("text", TRAPS)
def test_trap_inside_a_run_reads_as_it_does_unfused(text):
    code = ([Instr(Op.CONST, 41), Instr(Op.STORE, 0), Instr(Op.LOAD, 0)]
            + TRAPS[text]
            + [Instr(Op.STORE, 1), Instr(Op.CONST, 0), Instr(Op.RETVAL)])
    trap_pc = 3 + len(TRAPS[text]) - 1
    start, end = fused_runs(code)[0]
    assert start == 0 and trap_pc < end
    # (What a dead thread's operand stack holds is not kept.)
    fused, stepped = (_outcome(_method_thread(code), quantum)
                      for quantum in (_by_run, _by_step))
    assert fused[:3] + fused[4:] == stepped[:3] + stepped[4:]
    consumed, error, pc, _stack, local_vars, instructions, state = fused
    assert error == f"{text} at T.m pc={trap_pc} [main]"
    assert (consumed, pc, local_vars[0], instructions, state) == (
        None, trap_pc, 41, trap_pc, StreamState.FINISHED)


def test_conversion_trap_names_its_source_line():
    """The compiler stamps I2D / D2I: ``(int)`` of an infinity, three
    instructions into a fused run, names the line it was written on."""
    source = """
class Main {
    static int main() {
        double d = 1.0;
        d = d / 0.0;
        int kept = 41;
        int bad = kept + (int) d;
        return bad;
    }
}
"""
    outcomes = []
    for quantum in (_by_run, _by_step):
        _, _, jvm = make_jvm()
        jvm.load_classes(compile_source(source))
        thread = jvm.start_main("Main")
        outcomes.append(_outcome(thread, quantum))
        assert " (line 7) " in outcomes[-1][1]
        assert "(int) of infinite double at Main.main pc=" in outcomes[-1][1]
    (fused, stepped) = outcomes
    assert fused[:3] + fused[4:] == stepped[:3] + stepped[4:]
    assert 41 in fused[4]


# A loop of field and array traffic whose fifth trip fails in mid-run:
# ``c.a[4]`` is out of bounds, or ``c`` went null at the end of the
# fourth.
ACCESS_TRAP_SOURCE = """
class Cell { int v; int[] a; Cell next; }
class Main {
    static int main() {
        Cell c = new Cell();
        c.a = new int[4];
        int s = 0;
        for (int i = 0; i < 9; i++) {
            c.v = c.v + i;
            s = s + c.a[%s] * 2 + c.v;
            if (i == 3) { c = %s; }
        }
        return s;
    }
}
"""
ACCESS_TRAPS = {  # error -> the index, the next c, the line it fails on
    "index 4, length 4": ("i", "c", 10),
    "getfield Cell.v": ("i % 4", "c.next", 9),
}


@pytest.mark.parametrize("text", ACCESS_TRAPS)
def test_an_access_trap_in_mid_run_counts_exactly_at_any_quantum(text):
    """The NPE of a GETFIELD and the out-of-bounds ARRLOAD each inside a
    fused run: per-quantum consumption, error, pc and instruction count
    are stepping's at every one of the seven quantum sizes."""
    index, after, line = ACCESS_TRAPS[text]
    classfiles = compile_source(ACCESS_TRAP_SOURCE % (index, after))
    main = next(cf for cf in classfiles if cf.name == "Main").methods["main"]
    for quantum_ns in (1, 7, 53, 400, 1000, 4999, 50000):
        outcomes = []
        for quantum in (_by_run, _by_step):
            _, _, jvm = make_jvm()
            jvm.load_classes(classfiles)
            thread = jvm.start_main("Main")
            frame, spent = thread.frames[-1], []
            with pytest.raises(JVMError) as failure:
                while True:
                    spent.append(quantum(thread, quantum_ns))
            outcomes.append((spent, str(failure.value), frame.pc,
                             thread.instructions))
        assert outcomes[0] == outcomes[1], quantum_ns
        spent, error, pc, _ = outcomes[0]
        assert error.startswith(f"{text} at Main.main pc={pc} (line {line})")
        assert any(start < pc < end for start, end in fused_runs(main.code))


# ---------------------------------------------------------------------------
# (c) Aliasing: a forwarded expression is never observed stale or twice
# ---------------------------------------------------------------------------
ALIASING = {
    # body -> the operand stack it leaves, over the 100 already there
    # (locals: 7, 9).  DUP; I2D assigns its operand: the copy stays int.
    "dup-i2d": ([Instr(Op.LOAD, 0), Instr(Op.DUP), Instr(Op.I2D)],
                [100, 7, 7.0]),
    "dup_x1": ([Instr(Op.LOAD, 0), Instr(Op.LOAD, 1), Instr(Op.DUP_X1)],
               [100, 9, 7, 9]),
    "swap": ([Instr(Op.LOAD, 0), Instr(Op.LOAD, 1), Instr(Op.SWAP),
              Instr(Op.SUB)], [100, 2]),
    "swap-below": ([Instr(Op.LOAD, 1), Instr(Op.SWAP)], [9, 100]),
    "pop-below": ([Instr(Op.LOAD, 1), Instr(Op.POP), Instr(Op.NEG)], [-100]),
    # A pending read of a local is taken before the local changes.
    "load-iinc-add": ([Instr(Op.LOAD, 0), Instr(Op.IINC, 0, 5),
                       Instr(Op.LOAD, 0), Instr(Op.ADD)], [100, 19]),
    "load-store-add": ([Instr(Op.LOAD, 0), Instr(Op.CONST, 30),
                        Instr(Op.STORE, 0), Instr(Op.LOAD, 0),
                        Instr(Op.ADD)], [100, 37]),
    "pending-sum-store": ([Instr(Op.LOAD, 0), Instr(Op.LOAD, 1),
                           Instr(Op.ADD), Instr(Op.LOAD, 0),
                           Instr(Op.NEG), Instr(Op.STORE, 1)], [100, 16]),
    "dup-of-sum": ([Instr(Op.LOAD, 0), Instr(Op.LOAD, 1), Instr(Op.MUL),
                    Instr(Op.DUP), Instr(Op.IINC, 0, 1), Instr(Op.MUL)],
                   [100, 63 * 63]),
    "negative-literals": ([Instr(Op.CONST, -3), Instr(Op.NEG),
                           Instr(Op.CONST, -2), Instr(Op.SUB)], [100, 5]),
    "no-literal": ([Instr(Op.CONST, math.inf), Instr(Op.CONST, math.nan),
                    Instr(Op.CMP)], [100, 1]),
}


@pytest.mark.parametrize("name", ALIASING)
def test_aliases_and_pending_reads(name):
    body, expected = ALIASING[name]
    code = body + [Instr(Op.RETURN)]  # ends the run, leaves the stack
    assert fused_runs(code) == [(0, len(body))]
    outcomes = []
    for quantum in (_by_run, _by_step):
        thread = _method_thread(code, args=[7, 9])
        thread.frames[-1].stack.append(100)
        outcomes.append(_outcome(thread, quantum))
    assert outcomes[0] == outcomes[1]
    stack = outcomes[0][3]
    assert stack == expected
    assert [type(value) for value in stack] == [type(v) for v in expected]


BOX, CELLS, SEVEN = (Instr(Op.LOAD, k) for k in range(3))
GET, PUT = Instr(Op.GETFIELD, "Box", "f"), Instr(Op.PUTFIELD, "Box", "f")
AT_2 = Instr(Op.CONST, 2)
HEAP_ALIASING = {
    # body over locals (a Box with f = 0, an int[4] of zeros, 7) -> the
    # operand stack it leaves over the 100 already there.
    "write-then-read": ([BOX, SEVEN, PUT, BOX, GET], [100, 7]),
    "read-write-read": ([BOX, GET, BOX, SEVEN, PUT, BOX, GET, Instr(Op.SUB)],
                        [100, -7]),
    "dup-ref": ([BOX, Instr(Op.DUP), SEVEN, PUT, GET], [100, 7]),
    "array": ([CELLS, AT_2, SEVEN, Instr(Op.ARRSTORE),
               CELLS, AT_2, Instr(Op.ARRLOAD), CELLS, AT_2, Instr(Op.ARRLOAD),
               Instr(Op.MUL)], [100, 49]),
    "array-read-write-read": ([CELLS, AT_2, Instr(Op.ARRLOAD),
                               CELLS, AT_2, SEVEN, Instr(Op.ARRSTORE),
                               CELLS, AT_2, Instr(Op.ARRLOAD), Instr(Op.SUB)],
                              [100, -7]),
}


@pytest.mark.parametrize("name", HEAP_ALIASING)
def test_a_run_reads_what_it_just_wrote(name):
    """Accesses join a run: a field or element read after a write in the
    same run sees the write, one read before it does not."""
    body, expected = HEAP_ALIASING[name]
    code = body + [Instr(Op.RETURN)]
    assert fused_runs(code) == [(0, len(body))]
    outcomes = []
    for quantum in (_by_run, _by_step):
        _, _, jvm = make_jvm()
        jvm.load_classes([ClassBuilder("Box").field("f", "int").build()])
        thread = _method_thread(code, args=[
            jvm.new_instance("Box"), jvm.new_array("int", 4), 7], jvm=jvm)
        thread.frames[-1].stack.append(100)
        outcomes.append(_outcome(thread, quantum))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][3] == expected


_STRAIGHT_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.NEG, Op.AND,
                 Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.USHR, Op.CMP, Op.I2D,
                 Op.D2I, Op.POP, Op.DUP, Op.DUP_X1, Op.SWAP, Op.CONCAT]


@st.composite
def _straight_line(draw):
    """A run of rows — pure opcodes and ``Math`` calls — that never
    underflows a 3-deep stack."""
    code, depth = [], 3
    for _ in range(draw(st.integers(2, 14))):
        instr = draw(st.one_of(
            st.sampled_from(_STRAIGHT_OPS).map(Instr),
            st.sampled_from([-3, -1, 0, 1, 2, 7, 0.5, -2.0, 1e3, math.inf,
                             math.nan, None, "s"]).map(
                                 lambda v: Instr(Op.CONST, v)),
            st.builds(Instr, st.sampled_from([Op.LOAD, Op.STORE]),
                      st.integers(0, 2)),
            st.builds(Instr, st.just(Op.IINC), st.integers(0, 2),
                      st.integers(-2, 2)),
            st.builds(Instr, st.just(Op.INVOKESTATIC),
                      st.sampled_from(["Math", "javasplit.Math"]),
                      st.sampled_from(sorted(MATH)))))
        native = native_of(instr)
        pops, pushes = (native.arity, 1) if native else STACK_EFFECT[instr.op]
        if pops <= depth:
            code.append(instr)
            depth += pushes - pops
    return code


_ONE_JVM = make_jvm()[2]  # 600 bootstraps would be most of the test


@settings(max_examples=200, deadline=None)
@given(body=_straight_line(), operands=st.lists(
    st.sampled_from([-5, 0, 1, 3, 64, 2.5, -0.0]), min_size=6, max_size=6))
@example(body=[Instr(Op.LOAD, 0), Instr(Op.INVOKESTATIC, "Math", "log"),
               Instr(Op.CONST, 1e3),
               Instr(Op.INVOKESTATIC, "javasplit.Math", "exp"),
               Instr(Op.INVOKESTATIC, "Math", "min"), Instr(Op.DUP),
               Instr(Op.INVOKESTATIC, "Math", "floor"), Instr(Op.LOAD, 1),
               Instr(Op.INVOKESTATIC, "Math", "imax")],
         operands=[-5, 0, 1, 3, 64, 2.5])
def test_any_straight_line_is_its_instructions_one_by_one(body, operands):
    code = body + [Instr(Op.RETURN)]
    outcomes = []
    for quantum in (_by_step, _by_run):
        thread = _method_thread(code, args=operands[:3], jvm=_ONE_JVM)
        thread.frames[-1].stack.extend(operands[3:])
        try:
            outcomes.append(_outcome(thread, quantum))
        except Exception:
            # Ill-typed code (2.5 & 1, (double) "s") crashes the simulator
            # with a raw Python error; where, is not a JVM observable.
            assume(quantum is _by_run)
            raise
    stepped, fused = outcomes
    if stepped[1] is None:
        assert fused == stepped
    else:  # a trap: what the dead thread's stack holds is not kept
        assert fused[:3] + fused[4:] == stepped[:3] + stepped[4:]


def _snapshot(values):
    return [(type(v).__name__, repr(v)) for v in values]


@settings(max_examples=30, deadline=None)
@given(body=_straight_line(), operands=st.lists(
    st.sampled_from([-5, 0, 1, 3, 64, 2.5, -0.0]), min_size=6, max_size=6))
# s1 is assigned while the value below it still reads it: pushed over,
# and converted in place.
@example(body=[Instr(Op.DIV), Instr(Op.SWAP), Instr(Op.CONST, 2),
               Instr(Op.DIV)], operands=[0, 0, 0, 64, 3, 1])
@example(body=[Instr(Op.DIV), Instr(Op.DUP_X1), Instr(Op.SWAP),
               Instr(Op.POP), Instr(Op.I2D)], operands=[0, 0, 0, 64, 3, 1])
@example(body=[Instr(Op.LOAD, 0), Instr(Op.LOAD, 0), Instr(Op.IINC, 0, 1),
               Instr(Op.ADD), Instr(Op.DUP), Instr(Op.STORE, 0)],
         operands=[3, 1, 0, 2, 64, 1])
def test_any_straight_line_is_its_instructions_in_tier_1_too(body, operands):
    """The same writer over tier 1's registers: a line whose operands
    are swapped, duplicated, stored over and assigned in place leaves
    the stack, locals, bill, count and error stepping it leaves."""
    from test_semantics import tier1
    # Ends at a deopt site: compiled code hands the frame back there.
    end = len(operands[3:]) + len(body)
    code = [Instr(Op.CONST, v) for v in operands[3:]] + body + [
        Instr(Op.INVOKESTATIC, "NoSuchClass", "m"), Instr(Op.RETURN)]
    outcomes = []
    for tier in (0, 1):
        thread = _method_thread(code, max_locals=3, args=operands[:3],
                                jvm=_ONE_JVM)
        frame, step = thread.frames[-1], _ONE_JVM.interpreter.step
        try:
            if tier == 0:
                cost = sum(step(thread) for _ in range(end))
            else:  # as the JIT manager runs it: a deopt steps tier 0
                fn, cost = tier1(_ONE_JVM)(frame.method), 0
                while frame.pc < end:
                    used, why = fn(thread, frame, 10 ** 9, 0)
                    cost += used + (step(thread) if why == R_DEOPT
                                    and frame.pc < end else 0)
            error = None
        except JVMError as exc:
            cost, error = None, str(exc).replace(thread.name, "main")
        except Exception:  # ill-typed code, as above
            assume(False)
        outcomes.append((cost, error, thread.instructions, frame.pc,
                         _snapshot(frame.stack) if error is None else None,
                         _snapshot(frame.locals) if error is None else None))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# (d) Whole programs: the parent's numbers at seven quantum sizes
# ---------------------------------------------------------------------------
#: (result, simulated ns, events fired, instructions per thread), taken
#: on the parent commit — one handler per instruction — before any edit.
PARENT = {
    ("series", 1): (7559, 9069368, 218072, (840, 24695, 24698, 24698)),
    ("series", 7): (7559, 9069356, 101503, (840, 24695, 24698, 24698)),
    ("series", 53): (7559, 9069157, 30209, (840, 24695, 24698, 24698)),
    ("series", 400): (7559, 9068097, 8289, (840, 24695, 24698, 24698)),
    ("series", 1000): (7559, 9067095, 3435, (840, 24695, 24698, 24698)),
    ("series", 4999): (7559, 9053301, 800, (840, 24695, 24698, 24698)),
    ("series", 50000): (7559, 8966278, 136, (840, 24695, 24698, 24698)),
    ("tsp", 1): (2511, 60783278, 547714, (3150, 136049, 47165, 39104)),
    ("tsp", 7): (2511, 60783176, 252439, (3150, 136049, 47165, 39104)),
    ("tsp", 53): (2511, 60783075, 133456, (3150, 136049, 47165, 39104)),
    ("tsp", 400): (2511, 60777338, 67450, (3150, 136049, 47165, 39104)),
    ("tsp", 1000): (2511, 60762257, 32793, (3150, 136049, 47165, 39104)),
    ("tsp", 4999): (2511, 60729056, 8003, (3150, 136049, 47165, 39104)),
    ("tsp", 50000): (2511, 60720375, 1168, (3150, 136049, 47165, 39104)),
}


@pytest.mark.parametrize("app", ["series", "tsp"])
def test_whole_programs_keep_the_parents_numbers_at_any_quantum(app):
    rewritten = rewrite_application(compile_source(app_source(app)))
    for quantum_ns in (1, 7, 53, 400, 1000, 4999, 50000):
        runtime = JavaSplitRuntime(rewritten, RuntimeConfig(
            num_nodes=3, seed=0, quantum_ns=quantum_ns))
        report = runtime.run()
        assert (report.result, report.simulated_ns,
                runtime.engine.events_fired,
                tuple(t.instructions for w in runtime.workers
                      for t in w.jvm.threads)) == PARENT[app, quantum_ns]
        assert min(w.jvm.interpreter.margin for w in runtime.workers) > 0


# ---------------------------------------------------------------------------
# (e) One text per method, each brand's own bill
# ---------------------------------------------------------------------------
def test_brands_share_the_text_and_bill_their_own_sum(monkeypatch):
    compiled = []
    monkeypatch.setattr(tier0, "fused_source", lambda code, *rest: (
        compiled.append(code), fused_source(code, *rest))[1])
    code = [Instr(Op.CONST, 6), Instr(Op.STORE, 0), Instr(Op.LOAD, 0),
            Instr(Op.LOAD, 0), Instr(Op.MUL), Instr(Op.I2D),
            Instr(Op.RETVAL)]
    method = MethodInfo("m", [], "double", code=code, max_locals=1,
                        flags={"static"}, klass="T")
    handlers, bills = {}, {}
    for brand in ("sun", "ibm", "sun"):
        _, _, jvm = make_jvm(brand)
        thread = JThread(jvm, Frame(method, []))
        interp = jvm.interpreter
        bills[brand] = interp.run(thread, 10**9)
        assert thread.result == 36.0 and thread.instructions == 7
        assert bills[brand] == sum(interp.cost_tables[0][i.op] for i in code)
        handlers.setdefault(brand, []).append(interp.fuse(method)[0])
        # ...and may run a fused handler while every test inside it would
        # have passed: all of the run (pc 0..5) but its last instruction.
        assert interp.margin == bills[brand] - sum(
            interp.cost_tables[0][op] for op in (Op.I2D, Op.RETVAL))
    assert compiled == [code]
    assert bills["sun"] != bills["ibm"]
    first, second = handlers["sun"]
    assert first is not second  # a closure per JVM over one code object
    assert first.__code__ is second.__code__ is handlers["ibm"][0].__code__


# ---------------------------------------------------------------------------
# (f) What is installed is never skipped: an observed access ends a run
# ---------------------------------------------------------------------------
def _fused_instructions(race_detect):
    """Every instruction inside a run tier 0 fused on a tsp run."""
    rewritten = rewrite_application(compile_source(app_source("tsp")))
    JavaSplitRuntime(rewritten, RuntimeConfig(
        num_nodes=3, seed=0, race_detect=race_detect)).run()
    return [i for cf in rewritten.classfiles.values()
            for method in cf.methods.values() if method.fused
            for start, end in method.fused[2] for i in method.code[start:end]]


def test_no_observed_or_blocking_opcode_is_ever_fused():
    assert NOT_FUSED == set(Op) - set(SEMANTICS) - {Op.GOTO, Op.IF, Op.IF_CMP}
    assert not NOT_FUSED & ACCESSES
    assert NOT_FUSED >= {Op.RETURN, Op.RETVAL, Op.MONITORENTER,
                         Op.MONITOREXIT} | INVOKES | DSM_OPS
    for race_detect in (False, True):
        fused = _fused_instructions(race_detect)
        # The one invoke inside a run is a call that is a MATH row:
        # tsp's Math.sqrt.
        calls = [i for i in fused if i.op in NOT_FUSED]
        assert calls and all(native_of(i) for i in calls)
        assert {(i.op, i.a, i.b) for i in calls} == {
            (Op.INVOKESTATIC, "javasplit.Math", "sqrt")}
        # The rewriter checks every access of tsp: each is observed
        # while a detector is attached, and only then kept out of runs.
        observed = [i for i in fused if i.op in ACCESSES and i.checked]
        assert bool(observed) != race_detect, race_detect


def test_race_detector_still_observes_every_checked_access():
    """Per-node observation counts and simulated time of the parent
    commit (one handler per instruction), with the detector installed."""
    runtime = JavaSplitRuntime(
        rewrite_application(compile_source(app_source("tsp"))),
        RuntimeConfig(num_nodes=3, seed=0, race_detect=True))
    report = runtime.run()
    assert (report.result, report.simulated_ns) == (2511, 69_093_751)
    assert {node: agent.events_observed
            for node, agent in runtime.race.agents.items()} == {
        0: 1434, 1: 414, 2: 384}
    assert min(w.jvm.interpreter.margin for w in runtime.workers) > 0


# ---------------------------------------------------------------------------
# (g) Tier 0's text is pinned: whoever else drives the writer, a run's
# handler is the parent's, byte for byte
# ---------------------------------------------------------------------------
# SHA-256 over ``fused_source`` of every method of the rewritten program
# (sorted by class, then method), unobserved and with every checked
# access cut as a race detector cuts it; the two benchmark programs with
# their placeholders filled in.
PARENT_FUSED_TEXT = {
    ("series", 0): "628c0a4d70229004", ("series", 2): "9b214b561028e889",
    ("tsp", 0): "f36084228a041c46", ("tsp", 2): "339c274ab2adb418",
    ("raytracer", 0): "3b7b46e6f4233102",
    ("raytracer", 2): "e9804a248fe60251",
    ("locks.mj", 0): "283c29e9f4b4cfa6", ("locks.mj", 2): "6383b9e385432969",
    ("bulk.mj", 0): "8fbf3332602e9a76", ("bulk.mj", 2): "6693dd19be1d6b31",
}
_PLACEHOLDERS = {"THREADS": 4, "ITERS": 50, "ROUNDS": 60, "CELLS": 4096}


def _program(name):
    if not name.endswith(".mj"):
        return app_source(name)
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "e2e", "programs", name)) as fh:
        text = fh.read()
    for key, value in _PLACEHOLDERS.items():
        text = text.replace(f"@{key}@", str(value))
    return text


@pytest.mark.parametrize("check_elim", (0, 2))
@pytest.mark.parametrize("program", ("series", "tsp", "raytracer",
                                     "locks.mj", "bulk.mj"))
def test_fused_text_is_the_parents(program, check_elim):
    rewritten = rewrite_application(compile_source(_program(program)),
                                    check_elim=check_elim)
    digest = hashlib.sha256()
    for name in sorted(rewritten.classfiles):
        for _, method in sorted(rewritten.classfiles[name].methods.items()):
            if not method.code:
                continue
            observed = {pc for pc, i in enumerate(method.code)
                        if i.op in ACCESSES and i.checked}
            for cut in ((), observed):
                digest.update(fused_source(method.code, tier0.BOUND,
                                           cut)[0].encode())
    assert digest.hexdigest()[:16] == PARENT_FUSED_TEXT[program, check_elim]
