"""Generated code is shared by content, never by equality.

Tier 0's fused runs and tier 1's compiled methods are built once per
process (``repro.jvm.codecache``), keyed by what their text is made of.
Two programs whose bytecode differs only in an operand's type or sign
must each get their own code; so must a flip of each input tier 1 reads
besides the bytecode, with the outcome a cold cache gives.  A second
identical runtime builds nothing, binds only its own objects, and pins
no runtime that came before it.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import pytest

from repro.apps import tsp
from repro.jit import codegen
from repro.jit.analysis import CompileError
from repro.jvm import ClassBuilder, Instr, MethodInfo, Op, codecache
from repro.jvm.frame import Frame
from repro.jvm.jvm import JThread
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime

from conftest import make_jvm
from test_jit import (GOLDEN_SOURCE, compiled_fns, run_runtime, run_source,
                      source_runtime)
from test_semantics import tier1, traced

pytestmark = pytest.mark.usefixtures("cold_code_cache")


def outcome(source, **config):
    """What a run shows: result, simulated time, tier-1 exits and
    declines, what the race detector saw, and the compiled texts."""
    report, runtime = run_source(source, jit=True, **config)
    return (report.result, report.simulated_ns, report.jit["exit_reasons"],
            report.jit["blacklisted"], report.race,
            sorted(fn.source for fns in compiled_fns(runtime).values()
                   for fn in fns))


def assert_a_miss(first, second, built):
    """``second()`` after ``first()`` emits tier-1 text again, and shows
    what it shows on a cold cache."""
    codecache.clear()
    cold = second()
    codecache.clear()
    first()
    del built[:]
    assert second() == cold
    assert [name for name in built if "." in name]


# ---------------------------------------------------------------------------
# Operands: by type and sign, not by ``==``
# ---------------------------------------------------------------------------
HALF = {
    "double": """
class Main {
    static double f(double a) { return a / 2.0; }
    static int main() { return (int) (f(7.0) * 10.0); }
}
""",
    "int": """
class Main {
    static int f(int a) { return a / 2; }
    static int main() { return f(7) * 10; }
}
""",
}


@pytest.mark.parametrize("jit", (False, True))
def test_an_int_and_a_double_operand_are_two_programs(jit):
    """``2 == 2.0`` and both hash alike: an ``==`` key would run the
    first program's ``a / 2.0`` for the second's ``a / 2``."""
    assert [run_source(HALF[kind], jit=jit)[0].result
            for kind in ("double", "int")] == [35, 30]


@pytest.mark.parametrize("tier", (0, 1))
def test_zero_and_negative_zero_are_two_constants(tier):
    """``0.0 == -0.0`` and both hash alike; ``1.0 / -0.0`` is
    ``-Infinity``."""
    results = []
    for zero in (0.0, -0.0):
        _, _, jvm = make_jvm()
        code, end = traced([Instr(Op.CONST, 1.0), Instr(Op.CONST, zero),
                            Instr(Op.DIV)])
        method = MethodInfo("m", [], "double", flags={"static"}, klass="T",
                            code=code)
        frame = Frame(method, [])
        thread = JThread(jvm, frame, name="t")
        if tier == 0:
            for _ in range(end):
                jvm.interpreter.step(thread)
        else:
            tier1(jvm)(method)(thread, end)
        results.append(frame.stack[-1])
    assert results == [math.inf, -math.inf]


# ---------------------------------------------------------------------------
# What else tier 1 reads: each flip is a miss with a cold cache's outcome
# ---------------------------------------------------------------------------
BOX = """
class Box {
    %s
    int get() { return b; }
}
class Main {
    static int twice(int x) { return 2 * x; }
    static int main() {
        Box box = new Box();
        int acc = 0;
        for (int i = 0; i < 20; i++) {
            acc = acc + box.get() + twice(i) %% 7;
        }
        return acc;
    }
}
"""
A_THEN_B = BOX % "int a = 100; int b = 1;"


def test_a_brand_is_a_miss(built):
    assert_a_miss(lambda: outcome(A_THEN_B, brands=("sun",)),
                  lambda: outcome(A_THEN_B, brands=("ibm",)), built)


def test_the_race_switch_is_a_miss(built):
    assert_a_miss(lambda: outcome(A_THEN_B),
                  lambda: outcome(A_THEN_B, race_detect=True), built)


def test_a_field_slot_is_a_miss(built):
    """``get`` is the same bytecode in both programs; ``b``'s slot is
    not, and a slot-blind key would read ``a``."""
    b_then_a = BOX % "int b = 1; int a = 100;"
    assert_a_miss(lambda: outcome(A_THEN_B), lambda: outcome(b_then_a),
                  built)
    assert outcome(b_then_a)[0] == outcome(A_THEN_B)[0]


@pytest.mark.parametrize("limit, value", [("_TRACE_LINES", 0)])
def test_an_emitter_limit_is_a_miss(built, monkeypatch, limit, value):
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(codegen, limit, value)
            return outcome(GOLDEN_SOURCE)
    assert_a_miss(lambda: outcome(GOLDEN_SOURCE), patched, built)


def _caller(native):
    """``T.m(x) = U.f(x)``, run to its end on tier 1, on a JVM where
    ``U.f`` is ``x + 1`` as bytecode, or as a native."""
    _, _, jvm = make_jvm()
    util = ClassBuilder("U")
    if native:
        util.native_method("f", ["int"], "int", static=True)
        jvm.register_native("U", "f", lambda jvm, thread, args: args[0] + 1)
    else:
        mb = util.method("f", ["int"], "int", flags=["static"])
        mb.load(0)
        mb.const(1)
        mb.emit(Op.ADD)
        mb.retval()
        util.finish(mb)
    jvm.load_classes([util.build()])
    method = MethodInfo("m", ["int"], "int", flags={"static"}, klass="T",
                        max_locals=1, code=[
                            Instr(Op.LOAD, 0), Instr(Op.INVOKESTATIC, "U", "f"),
                            Instr(Op.RETVAL)])
    thread = JThread(jvm, Frame(method, [41]), name="t")
    tier1(jvm)(method)
    jvm.interpreter.run(thread, 10 ** 9)
    return thread.result


def test_a_callee_turned_native_is_a_miss(built):
    """What an invoke resolves to is part of the key: the analysis reads
    its arity, which numbers the registers a trace past it uses."""
    assert_a_miss(lambda: _caller(native=False),
                  lambda: _caller(native=True), built)
    assert _caller(native=False) == _caller(native=True) == 42


# ---------------------------------------------------------------------------
# Built once per process, bound per runtime, pinning none
# ---------------------------------------------------------------------------
def test_a_declined_method_is_declined_once_per_brand(built, monkeypatch):
    """Three JVMs of two brands decline ``search`` and ``run``: the
    emitter tries each twice, in the first runtime only."""
    def decline(*args, **kwargs):
        raise CompileError("declined")
    monkeypatch.setattr(codegen, "traces", decline)
    brands = ("sun", "ibm", "sun")
    _, first = run_runtime("tsp", jit=True, brands=brands)
    declined = ["javasplit.TspWorker.run", "javasplit.TspWorker.search"]
    assert sorted(first.jit["blacklisted"]) == declined
    assert sorted(name for name in built if name in declined) == \
        sorted(declined * 2)
    del built[:]
    _, second = run_runtime("tsp", jit=True, brands=brands)
    assert built == []
    assert json.dumps(second.jit["blacklisted"]) == \
        json.dumps(first.jit["blacklisted"])


def _tsp_runtime(race_detect):
    """The ``tsp_jit`` benchmark workload at its quick size."""
    source = tsp.make_source(n_cities=7, n_threads=6, seed=9)
    runtime = JavaSplitRuntime(
        rewrite_application(compile_source(source)),
        RuntimeConfig(num_nodes=3, cpus_per_node=2, brands=("sun",), seed=0,
                      jit_enable=True, race_detect=race_detect))
    return runtime, runtime.run()


def _objects(runtime):
    """ids of every ``MethodInfo`` and ``Instr`` the runtime's JVMs load."""
    methods = [m for w in runtime.workers for rtc in w.jvm.classes.values()
               for m in rtc.classfile.methods.values()]
    return {id(m) for m in methods} | {id(i) for m in methods for i in m.code}


@pytest.mark.parametrize("race_detect", (False, True))
def test_a_second_runtime_builds_nothing_and_binds_its_own(built,
                                                           race_detect):
    first, first_report = _tsp_runtime(race_detect)
    assert "compile" in built
    del built[:]
    second, report = _tsp_runtime(race_detect)
    assert built == []
    assert (report.result, report.simulated_ns, report.jit) == \
        (first_report.result, first_report.simulated_ns, first_report.jit)
    mine, theirs = _objects(second), _objects(first)
    bound = [value for fns in compiled_fns(second).values() for fn in fns
             for value in fn.__globals__.values()
             if isinstance(value, (MethodInfo, Instr))]
    # Traces bind the race observer's instructions, and nothing else.
    assert all(isinstance(v, Instr) for v in bound)
    assert bool(bound) == race_detect
    assert all(id(v) in mine and id(v) not in theirs for v in bound)


def test_a_dropped_runtime_is_collected_and_its_code_stays(built):
    runtime = source_runtime(A_THEN_B, jit=True)
    result = runtime.run().result
    methods = [weakref.ref(m) for w in runtime.workers
               for rtc in w.jvm.classes.values()
               for m in rtc.classfile.methods.values()]
    del runtime
    gc.collect()
    assert methods and all(ref() is None for ref in methods)
    del built[:]
    assert run_source(A_THEN_B, jit=True)[0].result == result
    assert built == []
