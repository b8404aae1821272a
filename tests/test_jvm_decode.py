"""The tier-0 decode table and its one dispatch loop.

A method is decoded once per JVM into a list of bound handlers; both
``Interpreter.step`` and the quantum loop (``Interpreter.run``, behind
``JThread.run_quantum``) execute that list.  These tests pin what the
decode step must not change: every opcode has a handler, stepping and
quanta of any size agree instruction for instruction, costs and link
state stay per JVM although ``MethodInfo`` is cluster-shared, and the
race detector's decode-time binding still sees every access.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import pytest

from repro.check.runner import app_source
from repro.heap import JVMError
from repro.jvm import ClassBuilder, Instr, MethodInfo, Op
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.sim import NS_PER_MS
from repro.sim.node import StreamState

from conftest import make_jvm, run_main
from test_dynamic_join import TWO_WAVES

# Operands an instruction needs for its decode-time decisions.
OPERANDS = {
    Op.IF: ("lt", 0), Op.IF_CMP: ("eq", 0),
    Op.DSM_READCHECK: (1,), Op.DSM_WRITECHECK: (2, 0),
}


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_every_opcode_decodes(op):
    _, _, jvm = make_jvm()
    method = MethodInfo("m", [], "void",
                        code=[Instr(op, *OPERANDS.get(op, ()))])
    handlers = jvm.interpreter.decode(method)
    # One handler per instruction plus the fall-off-the-end sentinel.
    assert len(handlers) == 2 and all(callable(h) for h in handlers)
    assert jvm.interpreter.decode(method) is handlers  # cached per JVM


def test_every_opcode_is_declared_in_every_table():
    """The ISA is declared once per concern; a new opcode has a row to
    add in each, and this names every one that is missing (instead of a
    ``KeyError`` out of whichever table was forgotten, mid-run)."""
    from repro.jit.analysis import PURE_OPS, SPECIAL_OPS
    from repro.jit.codegen import _Emitter
    from repro.jvm import interpreter
    from repro.jvm.bytecode import (ACCESSES, BRANCHES, HEAP_ACCESS_COST,
                                    INVOKES, OP_COST, SEMANTICS,
                                    STACK_EFFECT, TERMINATORS, ref_below,
                                    row_text)

    missing = []
    for op in Op:
        if (op in STACK_EFFECT) == (op in INVOKES):
            missing.append(f"{op.name}: wants a bytecode.STACK_EFFECT row "
                           f"xor bytecode.INVOKES membership")
        elif op in STACK_EFFECT and not (
                len(STACK_EFFECT[op]) == 2 and min(STACK_EFFECT[op]) >= 0):
            missing.append(f"{op.name}: STACK_EFFECT row is not "
                           f"(pops, pushes)")
        if op not in OP_COST and op not in HEAP_ACCESS_COST:
            missing.append(f"{op.name}: no cost row in bytecode.OP_COST / "
                           f"HEAP_ACCESS_COST")
        if (op in PURE_OPS) == (op in SPECIAL_OPS):
            missing.append(f"{op.name}: wants jit.analysis PURE_OPS xor "
                           f"SPECIAL_OPS membership")
        # What the op does: said once for both tiers, or by hand in each.
        # An IF / IF_CMP is its ``branch_row``: tier 0 decodes it to the
        # row's handler, and the one line writer emits its test.
        arm = re.compile(rf"\bOp\.{op.name}\b")
        by_hand = tuple(bool(arm.search(inspect.getsource(fn))) for fn in (
            interpreter._decode_instr, _Emitter._straight))
        branch = op in BRANCHES and op not in TERMINATORS
        if op in PURE_OPS and (op in SEMANTICS, branch, *by_hand) not in (
                (True, False, False, False), (False, True, True, False),
                (False, False, True, True)):
            missing.append(f"{op.name}: wants a bytecode.SEMANTICS row, a "
                           f"bytecode.branch_row, or an arm in "
                           f"interpreter._decode_instr and one in "
                           f"codegen._Emitter._straight")
        if op in SEMANTICS:
            row = SEMANTICS[op]
            pops, pushes = STACK_EFFECT[op]
            if op in SPECIAL_OPS or len(row.pushed) != pushes:
                missing.append(f"{op.name}: SEMANTICS row pushes "
                               f"{len(row.pushed)}, STACK_EFFECT says "
                               f"{pushes}")
            named = set(re.findall(r"\{(\w*)\}", row_text(row)))
            if not named <= set("xyz"[:pops]) | {"a", "b", "local", "slot"}:
                missing.append(f"{op.name}: SEMANTICS row names "
                               f"{sorted(named)} with {pops} pops")
            # An access: a null test of the reference it tells the race
            # detector about, which is one of its pops.
            if row.observe and not (
                    row.first.startswith(f"if {row.observe[0]} is None:")
                    and set(row.observe[:2]) <= {"{%s}" % n for n in named}
                    and 0 < ref_below(op) <= pops):
                missing.append(f"{op.name}: observe marker {row.observe} "
                               f"is not a null-tested operand of its row")
    assert set(SEMANTICS) >= {Op.GETFIELD, Op.PUTFIELD, Op.ARRLOAD,
                              Op.ARRSTORE} == ACCESSES
    assert not missing, "\n".join(missing)
    _, _, jvm = make_jvm()  # resolves the cost rows: after they are checked
    for op in Op:
        try:
            jvm.interpreter.decode(MethodInfo(
                "m", [], "void", code=[Instr(op, *OPERANDS.get(op, ()))]))
        except JVMError as exc:
            missing.append(f"{op.name}: no tier-0 arm in "
                           f"interpreter._decode_instr ({exc})")
    assert not missing, "\n".join(missing)
    assert set(STACK_EFFECT) | INVOKES == set(Op)


def test_branch_semantics_are_declared_once():
    """What an IF / IF_CMP tests is ``bytecode.branch_row``, which both
    tiers write from: no other module indexes ``CONDITIONS`` or words
    the ordered compare's null error."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "jvm" / "bytecode.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Subscript) and "CONDITIONS" in (
                    getattr(node.value, "id", None),
                    getattr(node.value, "attr", None)):
                what = "indexes CONDITIONS"
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str) and re.search(
                        r"_NPE\(\s*['\"]ordered compare", node.value):
                what = "builds the ordered compare's NPE"
            else:
                continue
            found.append(f"{path.relative_to(root)}:{node.lineno}: {what}")
    assert not found, "\n".join(found)


@pytest.mark.parametrize("bad", [Instr(0), Instr(Op.IF, "zz", 0),
                                 Instr(Op.IF_CMP, None, 0)],
                         ids=["opcode", "if-cond", "ifcmp-cond"])
def test_undecodable_instruction_fails_at_decode(bad):
    """...not mid-run: the first instruction would have run fine."""
    _, _, jvm = make_jvm()
    method = MethodInfo("m", [], "int", code=[Instr(Op.CONST, 1), bad])
    with pytest.raises(JVMError):
        jvm.interpreter.decode(method)


def test_unreachable_missing_field_still_runs():
    """A field that does not link at decode, or a call target, fails
    when it runs, not when its method is decoded."""
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.const(7)
    mb.retval()
    mb.const(None)                           # dead code from here on
    mb.emit(Op.GETFIELD, "NoSuchClass", "nope")
    mb.invoke(Op.INVOKESTATIC, "NoSuchClass", "nope")
    mb.retval()
    cb.finish(mb)
    _, thread = run_main([cb.build()], "Main")
    assert thread.result == 7


def test_pc_past_the_end_fails_the_thread():
    _, _, jvm = make_jvm()
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.const(1)
    mb.emit(Op.POP)                          # no terminator
    cb.finish(mb)
    jvm.load_classes([cb.build()])
    thread = jvm.start_main("Main")
    with pytest.raises(JVMError, match="fell off method end at Main.main"):
        thread.run_quantum(10**9)
    assert thread.error is not None and thread.instructions == 2


def test_race_hook_cannot_change_under_decoded_code():
    _, _, jvm = make_jvm()
    jvm.interpreter.race_hook = print        # before any decode: fine
    jvm.interpreter.decode(MethodInfo("m", [], "void",
                                      code=[Instr(Op.RETURN)]))
    with pytest.raises(JVMError):
        jvm.interpreter.race_hook = None


# ---------------------------------------------------------------------------
# step() and the quantum loop are the same machine
# ---------------------------------------------------------------------------
MIXED = """
class Acc {
    int total; double scale;
    Acc(double s) { this.scale = s; }
    void add(int v) { this.total += v; }
}
class Main {
    static int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    static int main() {
        Acc acc = new Acc(1.5);
        int[] cells = new int[16];
        for (int i = 0; i < 16; i++) { cells[i] = i * i - 3; }
        for (int i = 0; i < 16; i++) {
            if (cells[i] % 2 == 0) { acc.add(cells[i] / 2); }
            else { acc.add((int) (Math.sqrt(i + 0.0) * acc.scale)); }
        }
        return acc.total + fib(14);
    }
}
"""


def _drive(quantum, budget_ns):
    """Run MIXED to completion, one ``quantum(thread, budget)`` call at
    a time; returns the per-quantum trace, instruction count, result."""
    _, _, jvm = make_jvm()
    jvm.load_classes(compile_source(MIXED))
    thread = jvm.start_main("Main")
    trace = []
    while thread.state is StreamState.RUNNABLE:
        consumed = quantum(thread, budget_ns)
        top = thread.frames[-1] if thread.frames else None
        trace.append((top and top.method.name, top and top.pc, consumed))
    assert thread.error is None
    return trace, thread.instructions, thread.result


def _quantum_by_step(thread, budget_ns):
    consumed = 0
    step = thread.jvm.interpreter.step
    while consumed < budget_ns and thread.state is StreamState.RUNNABLE:
        consumed += step(thread)
    return consumed


def _quantum_by_loop(thread, budget_ns):
    consumed, state = thread.run_quantum(budget_ns)
    assert state is thread.state
    return consumed


def test_step_and_quantum_loop_agree_at_every_budget():
    runs = {}
    for budget_ns in (1, 50_000, 10**18):
        stepped = _drive(_quantum_by_step, budget_ns)
        looped = _drive(_quantum_by_loop, budget_ns)
        assert looped == stepped, budget_ns
        runs[budget_ns] = looped
    # A 1 ns budget is one instruction per quantum (zero-cost ones ride
    # along); an unbounded one is a single quantum.
    trace, instructions, result = runs[1]
    assert len(trace) <= instructions and len(runs[10**18][0]) == 1
    for other in runs.values():
        assert other[1:] == (instructions, result)
        assert sum(q[2] for q in other[0]) == sum(q[2] for q in trace)
    # 50 us quanta overshoot by at most the one instruction that crossed.
    assert all(50_000 <= q[2] < 51_000 for q in runs[50_000][0][:-1])


class _MissOnce:
    """DSM hooks whose first read check misses."""

    def __init__(self):
        self.misses = 1

    def read_check(self, thread, ref, index):
        if self.misses:
            self.misses -= 1
            return False, 40
        return True, 0

    def on_thread_started(self, thread):
        pass

    def on_thread_finished(self, thread):
        pass


def test_blocked_check_reexecutes_and_is_counted_twice():
    engine, _, jvm = make_jvm()
    jvm.hooks = _MissOnce()
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.const("ref")
    mb.emit(Op.DSM_READCHECK, 0)
    mb.emit(Op.POP)
    mb.const(5)
    mb.retval()
    cb.finish(mb)
    jvm.load_classes([cb.build()])
    thread = jvm.start_main("Main")
    engine.run_until_idle()
    assert thread.state is StreamState.BLOCKED
    assert thread.frames[-1].pc == 1         # still on the check
    assert thread.instructions == 2          # CONST + the check that missed
    thread.wake()
    engine.run_until_idle()
    assert thread.result == 5
    assert thread.instructions == 6          # the check ran again


# ---------------------------------------------------------------------------
# Per-JVM state over cluster-shared methods
# ---------------------------------------------------------------------------
def _series(**config):
    return JavaSplitRuntime(
        rewrite_application(compile_source(app_source("series"))),
        RuntimeConfig(num_nodes=3, seed=0, **config))


def test_mixed_brands_bill_from_their_own_tables():
    """One ``MethodInfo`` runs on a sun and an ibm JVM; each decodes it
    against its own cost tables.  Simulated times are the pre-decode
    interpreter's (goldens taken at the parent commit)."""
    mixed = _series(brands=("sun", "ibm", "sun"))
    report = mixed.run()
    assert report.simulated_ns == 7_736_390
    assert _series(brands=("sun",)).run().simulated_ns == 8_966_278
    assert _series(brands=("ibm",)).run().simulated_ns == 1_732_984
    assert [sum(t.instructions for t in w.jvm.threads)
            for w in mixed.workers] == [25_542, 24_698, 24_698]
    sun, ibm = (mixed.workers[i].jvm.interpreter for i in (0, 1))
    assert sun.cost_tables != ibm.cost_tables
    shared = set(sun._decoded) & set(ibm._decoded)
    assert shared, "both JVMs should have run the same worker methods"
    for key in shared:
        (m_sun, h_sun, _), (m_ibm, h_ibm, _) = (sun._decoded[key],
                                                ibm._decoded[key])
        assert m_sun is m_ibm and h_sun is not h_ibm


def test_mixed_brands_compile_their_own_tier1_code():
    """The cluster's code cache is keyed by emitted text, and the text
    carries the brand's cost literals: the two sun JVMs share one code
    object per method, the ibm JVM gets its own, and the per-brand
    simulated times above hold under the JIT."""
    mixed = _series(brands=("sun", "ibm", "sun"), jit_enable=True)
    assert mixed.run().simulated_ns == 7_736_390
    for brand, golden in (("sun", 8_966_278), ("ibm", 1_732_984)):
        assert _series(brands=(brand,),
                       jit_enable=True).run().simulated_ns == golden
    sun, ibm, sun2 = (w.jvm.jit.cache for w in mixed.workers)
    shared = [key for key in sun if sun[key] and ibm.get(key)
              and sun2.get(key)]
    assert shared, "all three JVMs should have compiled a worker method"
    for key in shared:
        assert sun[key].__code__ is sun2[key].__code__
        assert sun[key].__code__ is not ibm[key].__code__
        assert sun[key].source != ibm[key].source
    assert len(mixed.jit.code_cache) == len(
        {fn.__code__ for cache in (sun, ibm, sun2)
         for fn in cache.values() if fn})


def test_late_joiner_reports_every_access_to_the_race_detector():
    """The detector's hook is bound at decode, so it has to be in place
    before a joined JVM first executes.  Per-node observation counts
    are the pre-decode interpreter's (goldens from the parent commit)."""
    rt = JavaSplitRuntime(rewrite_application(compile_source(TWO_WAVES)),
                          RuntimeConfig(num_nodes=2, race_detect=True))
    rt.schedule_join(2 * NS_PER_MS)
    report = rt.run()
    assert report.result == 320 and report.placements.get(2, 0) > 0
    assert {node: agent.events_observed
            for node, agent in rt.race.agents.items()} == {
        0: 417, 1: 607, 2: 161}
