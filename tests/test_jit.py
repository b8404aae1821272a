"""Differential proof that the tiered JIT is observationally invisible.

Tier-1 compiled execution must be *bit-identical* to the interpreter in
every observable: program result, console, simulated clock, per-type
protocol message counts, final master heap — while only the wall clock
changes.  These tests run every benchmark app with the JIT off and on
under identical configs and diff everything, compose the JIT with the
fault/race/locality/policy/proc subsystems under the consistency
oracle, and pin per-opcode semantics (integer division/remainder
truncation, double division by zero, NaN conversion, unsigned shift)
with golden interpreter-vs-compiled runs.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Tuple

import pytest

from repro.check.runner import DEFAULT_JITTER_NS, app_source, run_check
from repro.dsm.protocol import DsmConfig
from repro.jit import REASON_NAMES, N_REASONS
from repro.jit.analysis import CHECKS, SPECIAL_OPS, traces
from repro.jvm import Instr, MethodInfo
from repro.jvm.bytecode import BRANCHES, Op
from repro.jvm.disasm import resolve_cost_tables
from repro.jvm.errors import ArithmeticJavaError
from repro.heap import ArrayObj, Obj
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime

from test_procnet import heap_fingerprint

APPS = ("series", "tsp", "raytracer")


def run_runtime(app: str, jit: bool, seed: int = 0, check_elim: int = 0,
                **overrides) -> Tuple:
    config = RuntimeConfig(
        num_nodes=3,
        net_jitter_ns=DEFAULT_JITTER_NS,
        seed=seed,
        jit_enable=jit,
        **overrides,
    )
    rewritten = rewrite_application(compile_source(app_source(app)),
                                    check_elim=check_elim)
    runtime = JavaSplitRuntime(rewritten, config)
    return runtime, runtime.run()


def run_app(app: str, jit: bool, **kwargs) -> Tuple:
    runtime, report = run_runtime(app, jit, **kwargs)
    return report, final_state(runtime)


def final_state(runtime) -> Dict:
    """What a finished runtime holds beyond its report."""
    return {"heap": heap_fingerprint(runtime),
            "instructions": [sum(t.instructions for t in w.jvm.threads)
                             for w in runtime.workers]}


def compiled_fns(runtime) -> Dict[str, list]:
    """Method name -> the tier-1 function of each JVM that compiled it."""
    out: Dict[str, list] = {}
    for agent in runtime.jit.agents:
        for key, fn in agent.cache.items():
            if fn is not False:
                method = agent.methods[key]
                out.setdefault(f"{method.klass}.{method.name}",
                               []).append(fn)
    return out


def assert_identical(base, base_state, jit, jit_state) -> None:
    """Every observable the interpreter produces, bit-for-bit."""
    assert jit.result == base.result
    assert sorted(jit.console) == sorted(base.console)
    assert jit.simulated_ns == base.simulated_ns
    assert jit.threads_run == base.threads_run
    assert jit.net.messages == base.net.messages
    assert jit.net.bytes == base.net.bytes
    # Per-type protocol counts: one reordered fetch or early/late diff
    # (a single mis-charged nanosecond) shows up here.
    assert jit.net.by_type == base.net.by_type
    assert jit_state == base_state
    assert base_state["heap"], "fingerprint should cover a non-trivial heap"


# ---------------------------------------------------------------------------
# The core differential: every app, multiple seeds, and quanta that put
# budget exits and resumes on arms all over the dispatch ladder
# ---------------------------------------------------------------------------
# (app, quantum_ns) -> per-reason exits and interpreter steps of seed 0,
# taken at the parent commit (the ``elif`` chain): a layout change may
# move neither an exit nor a resume.  None = the default 50 us quantum.
PARENT_EXITS = {
    ("series", None): ({"budget": 10, "return": 1052}, 33212),
    ("series", 997): ({"budget": 1032, "return": 372}, 10615),
    ("series", 4999): ({"budget": 197, "return": 407}, 11465),
    ("tsp", None): ({"block_acquire": 10, "block_read": 5, "budget": 243,
                     "return": 439}, 13541),
    ("tsp", 997): ({"block_acquire": 15, "block_read": 13, "budget": 10700,
                    "call_exit": 3, "return": 1204}, 34512),
    ("tsp", 4999): ({"block_acquire": 13, "block_read": 9, "budget": 2486,
                     "return": 1113}, 11990),
    ("raytracer", None): ({"block_read": 2, "budget": 68, "return": 56},
                          17025),
    ("raytracer", 997): ({"block_read": 2, "budget": 2716, "return": 68},
                         28836),
    ("raytracer", 4999): ({"block_read": 2, "budget": 738, "return": 65},
                          14032),
}


def check_observationally_identical(app, seed, quantum_ns=None):
    quantum = {} if quantum_ns is None else {"quantum_ns": quantum_ns}
    base, base_state = run_app(app, jit=False, seed=seed, **quantum)
    jit, jit_state = run_app(app, jit=True, seed=seed, **quantum)
    assert_identical(base, base_state, jit, jit_state)
    # And the run genuinely went through compiled code.
    assert base.jit is None
    assert jit.jit is not None
    assert jit.jit["compiles"] > 0
    assert not jit.jit["blacklisted"]
    assert jit.jit["exit_reasons"].get("return", 0) > 0
    if seed == 0:
        steps = sum(node["interp_steps"] for node in jit.jit["nodes"])
        assert (jit.jit["exit_reasons"], steps) == \
            PARENT_EXITS[app, quantum_ns]


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", (0, 3))
def test_jit_observationally_identical(app, seed):
    check_observationally_identical(app, seed)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("quantum_ns", (997, 4999))
def test_jit_observationally_identical_at_odd_quanta(app, seed, quantum_ns):
    check_observationally_identical(app, seed, quantum_ns)


@pytest.mark.parametrize("app", APPS)
def test_jit_identical_on_eliminated_code(app):
    """The JIT consumes level-2 (region + loop-hoisted) check-elim
    output; elimination changes the observables, the JIT must not."""
    base, base_state = run_app(app, jit=False, check_elim=2)
    jit, jit_state = run_app(app, jit=True, check_elim=2)
    assert_identical(base, base_state, jit, jit_state)
    assert jit.jit["compiles"] > 0


# ---------------------------------------------------------------------------
# Verifier coverage of post-elimination code
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("level", (1, 2))
def test_post_elimination_code_verifies(app, level):
    # rewrite_application runs verify_classfiles on its output; a
    # malformed elimination (bad stack depth, dangling branch) raises.
    rewritten = rewrite_application(compile_source(app_source(app)),
                                    check_elim=level)
    assert rewritten.stats["checks_eliminated"] > 0


# ---------------------------------------------------------------------------
# Composition: the JIT under faults, races, locality, policies, proc
# ---------------------------------------------------------------------------
def test_jit_composed_kill_race_locality():
    report = run_check(app="series", seeds=2, kill="random", race=True,
                       locality="all", jit=True, jit_threshold=5)
    assert report.ok, report.summary()


def test_jit_composed_policy():
    report = run_check(app="raytracer", seeds=2, policy="all", jit=True)
    assert report.ok, report.summary()


def test_jit_proc_backend_identical(proc_guard):
    """Sim + jit must match proc + jit (and therefore sim interpreted,
    by transitivity with the tier-0 cross-backend tests)."""
    base, base_state = run_app("series", jit=True)
    proc, proc_state = run_app("series", jit=True,
                               transport_backend="proc")
    assert_identical(base, base_state, proc, proc_state)
    assert proc.jit["compiles"] > 0


# ---------------------------------------------------------------------------
# Per-opcode golden differentials
# ---------------------------------------------------------------------------
GOLDEN_SOURCE = """
class Edge {
    // Hot enough to compile at threshold 1; exercises the opcode
    // corners where Java and Python semantics diverge.
    int idiv(int a, int b) { return a / b; }
    int irem(int a, int b) { return a % b; }
    double ddiv(double a, double b) { return a / b; }
    int shifts(int a, int b) { return (a >> b) + (a >>> b) + (a << 1); }
    int d2i(double x) { return (int) x; }
    double drem(double a, double b) { return a % b; }
    int refs(Edge a, Edge b) {
        int r = 0;
        if (a == b) { r += 1; }
        if (a != b) { r += 2; }
        if (a == null) { r += 4; }
        if (b != null) { r += 8; }
        return r;
    }

    int run() {
        int acc = 0;
        Edge other = new Edge();
        for (int i = 0; i < 12; i++) {
            acc += refs(this, this) + 16 * refs(this, other);   // identity
            acc += 256 * refs(null, other) + 4096 * refs(null, null);
            acc += idiv(-7, 2);          // Java truncates toward zero: -3
            acc += idiv(7, -2);
            acc += irem(-7, 2);          // sign follows dividend: -1
            acc += irem(7, -2);
            acc += shifts(-8, 1);
            acc += d2i(3.99);            // truncation, not rounding
            acc += d2i(0.0 / 0.0);       // NaN -> 0
            if (ddiv(1.0, 0.0) > 0.0) { acc += 1; }   // +inf
            if (ddiv(-1.0, 0.0) < 0.0) { acc += 1; }  // -inf
            if (ddiv(0.0, 0.0) == ddiv(0.0, 0.0)) { acc += 100; } // NaN != NaN
            double inf = ddiv(1.0, 0.0);
            if (drem(inf, 2.0) == drem(inf, 2.0)) { acc += 1000; } // inf % x is NaN
            if (drem(5.5, inf) == 5.5) { acc += 3; }    // x % inf is x
            if (drem(-7.5, 2.0) == -1.5) { acc += 5; }  // sign follows dividend
        }
        return acc;
    }
}

class EdgeMain {
    static int main() {
        Edge e = new Edge();
        int r = e.run();
        Sys.print("edges = " + r);
        Sys.print("mix = " + (1.0 / 3.0) + " " + (0.5 + 0.25));
        return r;
    }
}
"""

# ``hot`` runs compiled from its second call on; the last call raises.
FAILING_SOURCE = """
class Boom {
    int hot(int d) { return %s; }
}

class BoomMain {
    static int main() {
        Boom b = new Boom();
        int acc = 0;
        for (int i = 5; i >= 0; i--) { acc += b.hot(i); }
        return acc;
    }
}
"""

# The same failure behind a branch: ``hot`` then runs as one trace.
TRACED_FAILING_SOURCE = FAILING_SOURCE.replace(
    "return %s;", "if (d < 9) { return %s; } return 0;")

# Expression over ``d`` that fails at d == 0 -> the error's message.
# The middle two used to leak OverflowError / ValueError out of the
# engine; the last fails in the middle of a pre-summed run.
FAILING_EXPRS = {
    "100 / d": "/ by zero",
    "(int) (1.0 / d)": "(int) of infinite double",
    "1 << (d - 1)": "negative shift count",
    "100 / d + d * 3 - d": "/ by zero",
}


def source_runtime(source: str, jit: bool, **overrides):
    config = RuntimeConfig(num_nodes=2, seed=0, jit_enable=jit,
                           jit_threshold=1, **overrides)
    rewritten = rewrite_application(compile_source(source))
    return JavaSplitRuntime(rewritten, config)


def run_source(source: str, jit: bool, **overrides):
    runtime = source_runtime(source, jit, **overrides)
    return runtime.run(), runtime


def test_golden_opcode_edges():
    base, _ = run_source(GOLDEN_SOURCE, jit=False)
    jit, rt = run_source(GOLDEN_SOURCE, jit=True)
    assert jit.result == base.result
    assert jit.console == base.console
    assert jit.simulated_ns == base.simulated_ns
    assert jit.jit["compiles"] > 0
    # The hot method really ran compiled, not just compiled-and-ignored.
    assert jit.jit["exit_reasons"].get("return", 0) > 0


def failing_run(source: str, jit: bool):
    runtime = source_runtime(source, jit)
    with pytest.raises(ArithmeticJavaError) as failure:
        runtime.run()
    return runtime, str(failure.value), [
        t.instructions for w in runtime.workers for t in w.jvm.threads]


def test_golden_exception_identical():
    """A JVMError raised from compiled code must fail the thread with
    the interpreter's exact message (same pc, same frame.where()) and
    having counted the instructions before it — in an arm, which counts
    a run before running it, and in a trace, which counts at its exits."""
    for template, expr in itertools.product(
            (FAILING_SOURCE, TRACED_FAILING_SOURCE), FAILING_EXPRS):
        _, base_error, base_count = failing_run(template % expr, jit=False)
        runtime, error, count = failing_run(template % expr, jit=True)
        assert error == base_error, expr
        assert count == base_count, expr
        assert error.startswith(
            FAILING_EXPRS[expr] + " at javasplit.Boom.hot pc="), expr
        (hot,) = compiled_fns(runtime)["javasplit.Boom.hot"]
        assert ("while used" in hot.source) == (
            template is TRACED_FAILING_SOURCE), expr


TAIL_FAILING_SOURCE = """
class Boom {
    int hot(int d) {
        int s = 0;
        for (int k = 0; k < 7; k++) { s += 100 / (d + 3 - k); }
        return s;
    }
}

class BoomMain {
    static int main() {
        Boom b = new Boom();
        int acc = 0;
        for (int i = 3; i >= 0; i--) { acc += b.hot(i); }
        return acc;
    }
}
"""


def test_interp_steps_counted_when_budget_tail_fails():
    """At a 60 ns quantum the division by zero lands in the interpreter
    tail after an ``R_BUDGET`` exit; the tail's instructions before the
    failing one are still counted (golden from the per-step loop)."""
    config = RuntimeConfig(num_nodes=2, seed=0, jit_enable=True,
                           jit_threshold=1, quantum_ns=60)
    runtime = JavaSplitRuntime(
        rewrite_application(compile_source(TAIL_FAILING_SOURCE)), config)
    with pytest.raises(ArithmeticJavaError, match="/ by zero"):
        runtime.run()
    assert runtime.workers[0].jvm.jit.interp_steps == 112


# ---------------------------------------------------------------------------
# Code layout: arms in pc order under a skip tree, no dispatch chain
# ---------------------------------------------------------------------------
# Entries per compiled method at the parent commit.
PARENT_ENTRY_COUNTS = {
    "javasplit.SeriesWorker.f": 5, "javasplit.SeriesWorker.integrate": 29,
    "javasplit.TspWorker.run": 105, "javasplit.TspWorker.search": 81,
    "javasplit.RtWorker.trace": 82, "javasplit.ReqQueue.put": 34,
    "javasplit.ReqQueue.take": 30, "javasplit.Stripe.record": 27,
}


# Emitted lines per compiled method at the parent commit (arms only).
# ``compile()`` holds ~2.75 KB per line until it returns, so the largest
# text is the process's peak RSS: a layout change may add a fifth.
PARENT_LINES = {
    "javasplit.SeriesWorker.f": 97, "javasplit.SeriesWorker.integrate": 805,
    "javasplit.TspWorker.run": 1925, "javasplit.TspWorker.search": 1565,
    "javasplit.RtWorker.trace": 1672, "javasplit.ReqQueue.put": 618,
    "javasplit.ReqQueue.take": 558, "javasplit.Stripe.record": 496,
}


def entry_set(method) -> set:
    """Where a compiled function must be enterable: method entry, branch
    targets, each special op and its successor (none of these apps has
    unreachable code or a deopt site)."""
    pcs = {0}
    for pc, instr in enumerate(method.code):
        if instr.op in BRANCHES:
            pcs.add(instr.a if instr.op is Op.GOTO else instr.b)
        if instr.op in SPECIAL_OPS:
            pcs |= {pc, pc + 1}
    return pcs


def serve_runtime():
    from test_serve import SMALL
    from repro.serve.scenario import run_scenario

    grabbed = []
    doc = run_scenario(SMALL, seed=0, jit=True, on_runtime=grabbed.append)
    assert doc["ok"], doc
    return grabbed[0]


@pytest.mark.parametrize("app", APPS + ("serve",))
def test_every_compiled_method_is_a_ladder_over_the_parents_entries(app):
    runtime = (serve_runtime() if app == "serve"
               else run_runtime(app, jit=True)[0])
    fns = compiled_fns(runtime)
    assert fns
    for name, per_jvm in fns.items():
        for fn in per_jvm:
            assert "elif pc ==" not in fn.source, name
            assert fn.entries == entry_set(fn.method), name
            assert len(fn.entries) == PARENT_ENTRY_COUNTS[name]
            assert fn.source.count("\n") <= 1.2 * PARENT_LINES[name], name
            # Ascending pc order is what makes falling through right.
            arms = [int(line.split("==")[1].rstrip(":"))
                    for line in fn.source.splitlines()
                    if line.lstrip().startswith("if pc == ")]
            assert arms == sorted(fn.entries), name


def test_traces_are_cut_hottest_first(monkeypatch):
    """A method's traces fit ``_TRACE_LINES`` lines per bytecode or go,
    the deepest static loop last and the method entry after it; the
    arms behind them do not care which."""
    for per_bytecode, kept in (1, [0, 81, 136]), (0.7, [81, 136]), (0, []):
        monkeypatch.setattr("repro.jit.codegen._TRACE_LINES", per_bytecode)
        runtime, report = run_runtime("tsp", jit=True)
        lines = compiled_fns(runtime)[
            "javasplit.TspWorker.search"][0].source.splitlines()
        assert [int(lines[i - 1].split("==")[1].rstrip(":"))
                for i, line in enumerate(lines)
                if line.lstrip().startswith("while used + ")] == kept
        steps = sum(node["interp_steps"] for node in report.jit["nodes"])
        assert (report.jit["exit_reasons"], steps) == PARENT_EXITS["tsp", None]


def test_reference_equality_is_pythons_default():
    """``IF_CMP eq/ne`` compiles to plain ``==`` / ``!=``: identity on
    heap references only as long as these define no ``__eq__``."""
    for cls in (Obj, ArrayObj):
        assert cls.__eq__ is object.__eq__
        assert cls.__ne__ is object.__ne__


# ---------------------------------------------------------------------------
# The inlined access-check hit and the per-cluster code cache
# ---------------------------------------------------------------------------
def test_inline_check_reads_the_live_region_table():
    """Threshold 1 compiles every method before the first split array is
    promoted: the inlined hit must still send its elements to the
    engine, region by region."""
    options = dict(dsm=DsmConfig(array_region_elems=4), jit_threshold=1)
    base, base_state = run_app("tsp", jit=False, **options)
    jit, jit_state = run_app("tsp", jit=True, **options)
    assert_identical(base, base_state, jit, jit_state)
    assert jit.total_dsm().region_fetches > 0
    assert jit.jit["exit_reasons"]["block_read"] > 0
    assert not jit.jit["blacklisted"]


READ_MISS_SOURCE = """
class Cell { int v; }
class Reader extends Thread {
    Cell c;
    int got;
    Reader(Cell c) { this.c = c; }
    void run() { got = c.v + 1; }
}
class Main {
    static int main() {
        Cell c = new Cell();
        c.v = 41;
        Reader[] rs = new Reader[3];
        for (int i = 0; i < 3; i++) { rs[i] = new Reader(c); rs[i].start(); }
        int total = 0;
        for (int i = 0; i < 3; i++) { rs[i].join(); total += rs[i].got; }
        return total;
    }
}
"""


def test_compiled_read_miss_blocks_where_the_interpreter_does():
    """The slow path of the inlined check stores ``frame.pc`` before the
    handler runs, so ``hooks.block`` subscribers see the same position
    from both tiers."""
    seen = {}
    for jit in (False, True):
        config = RuntimeConfig(num_nodes=2, seed=0, jit_enable=jit,
                               jit_threshold=1)
        runtime = JavaSplitRuntime(
            rewrite_application(compile_source(READ_MISS_SOURCE)), config)
        fetches = seen[jit] = []
        for worker in runtime.workers:
            def on_block(thread, kind, gid, region, carrier,
                         agent=worker.jvm.jit):
                if kind == "fetch":
                    frame = thread.frames[-1]
                    compiled = bool(agent
                                    and agent.cache.get(id(frame.method)))
                    fetches.append((frame.where(), compiled))
            worker.dsm.hooks.block.append(on_block)
        report = runtime.run()
        assert report.result == 3 * 42
    assert [where for where, _ in seen[True]] == \
        [where for where, _ in seen[False]]
    from_compiled = [where for where, compiled in seen[True] if compiled]
    assert any("Reader.run" in where for where in from_compiled)
    assert report.jit["exit_reasons"]["block_read"] >= len(from_compiled) > 0


def test_same_brand_jvms_share_one_code_object(monkeypatch):
    """The emitter runs once per (method, brand) of a runtime; a JVM of
    a brand already seen only execs the code object over its hooks."""
    from repro.jit.codegen import _Emitter

    emitted = []
    emit = _Emitter.compile
    monkeypatch.setattr(_Emitter, "compile", lambda self: (
        emitted.append(self.method.name), emit(self))[1])
    for brands, texts in (("sun", "sun", "sun"), 1), (("sun", "ibm", "sun"), 2):
        del emitted[:]
        runtime, report = run_runtime("tsp", jit=True, brands=brands)
        fns = compiled_fns(runtime)
        assert len(emitted) == len(runtime.jit.code_cache) == texts * len(fns)
        assert report.jit["compiles"] == sum(map(len, fns.values())) > len(fns)
        for per_jvm in fns.values():
            assert len({fn.__code__ for fn in per_jvm}) == texts
            assert len({id(fn.source) for fn in per_jvm}) == texts
            assert len({id(fn.__globals__) for fn in per_jvm}) == len(per_jvm)


# ---------------------------------------------------------------------------
# What a trace may assume
# ---------------------------------------------------------------------------
SWEEP_SOURCE = """
class Cell { int v; int[] a; }
class Loop {
    Cell c;
    int run(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            if (c.a[i % 4] > 1) { s += c.v; }
            c.a[i % 4] = (s + i) % 5;
        }
        return s + c.v;
    }
}
class Main {
    static int main() {
        Loop l = new Loop();
        l.c = new Cell();
        l.c.v = 3;
        l.c.a = new int[4];
        int t = 0;
        for (int k = 0; k < 3; k++) { t += l.run(6 + k); }
        return t;
    }
}
"""

# quantum_ns -> exits and interpreter steps of SWEEP_SOURCE at the
# parent commit (arms only), and a digest over the rows of all 403
# quanta: a trace may move neither a budget exit nor a resume.
PARENT_SWEEP = {
    1: ({"budget": 225, "call_exit": 4}, 782),
    7: ({"budget": 199, "call_exit": 4}, 753),
    60: ({"budget": 163, "call_exit": 4, "return": 4}, 614),
    150: ({"budget": 155, "call_exit": 4, "return": 4}, 588),
    400: ({"budget": 91, "call_exit": 4, "return": 5}, 431),
    997: ({"budget": 39, "call_exit": 4, "return": 4}, 133),
    4999: ({"budget": 8, "call_exit": 4, "return": 7}, 48),
    50000: ({"call_exit": 4, "return": 5}, 4),
}
PARENT_SWEEP_DIGEST = "46266fabb6f37b5c"


def test_budget_sweep_a_trace_moves_no_exit():
    """Every quantum from 1 to 400 ns (each trace of ``Loop.run`` is
    entered with every remainder of the budget, its guard failing at
    every prefix) and three long ones: result, simulated time and
    per-thread instructions are the interpreter's, the exit histogram
    and interpreter steps the parent's."""
    rewritten = rewrite_application(compile_source(SWEEP_SOURCE))
    digest = hashlib.sha256()
    for quantum_ns in (*range(1, 401), 997, 4999, 50000):
        seen = []
        for jit in (False, True):
            runtime = JavaSplitRuntime(rewritten, RuntimeConfig(
                num_nodes=2, seed=0, jit_enable=jit, jit_threshold=1,
                quantum_ns=quantum_ns))
            report = runtime.run()
            seen.append((report.result, report.simulated_ns,
                         [t.instructions for w in runtime.workers
                          for t in w.jvm.threads]))
        assert seen[0] == seen[1], quantum_ns
        assert seen[0][0] == 36
        exits = report.jit["exit_reasons"]
        steps = sum(node["interp_steps"] for node in report.jit["nodes"])
        if quantum_ns in PARENT_SWEEP:
            assert (exits, steps) == PARENT_SWEEP[quantum_ns]
        digest.update(repr((quantum_ns, sorted(exits.items()),
                            steps)).encode())
    (run,) = compiled_fns(runtime)["javasplit.Loop.run"]
    assert "while used" in run.source and "continue" in run.source
    assert digest.hexdigest()[:16] == PARENT_SWEEP_DIGEST


def trace_of(code, head=0):
    """The trace from ``head`` of a static ``T.m(Cell, Cell)``."""
    method = MethodInfo("m", ["Cell", "Cell"], "int", code=code,
                        flags={"static"}, klass="T")
    return traces(method, resolve_cost_tables("sun"))[head]


def line_of(code, head=0):
    """``[(op, known), ...]`` of the checks and field reads on it."""
    return [(code[pc].op, known)
            for pc, _, _, known in trace_of(code, head).steps
            if code[pc].op in CHECKS or code[pc].op is Op.GETFIELD]


def read_v(local):
    """``<local>.v`` under its read check, value left on the stack."""
    return [Instr(Op.LOAD, local), Instr(Op.DSM_READCHECK, 0),
            Instr(Op.GETFIELD, "Cell", "v", checked=True)]


RC, GF = Op.DSM_READCHECK, Op.GETFIELD
TAIL = [Instr(Op.ADD), Instr(Op.RETVAL)]


def test_value_numbering_keeps_a_check_it_cannot_prove():
    # The same local twice: the second check and both null tests go.
    assert line_of(read_v(0) + read_v(0) + TAIL) == [
        (RC, False), (GF, True), (RC, True), (GF, True)]
    # A copy of the checked value is the checked value ...
    assert line_of(read_v(0) + [Instr(Op.LOAD, 0), Instr(Op.STORE, 1)]
                   + read_v(1) + TAIL)[2:] == [(RC, True), (GF, True)]
    # ... a STORE over the checked local, or an IINC of it, is not.
    for clobber in ([Instr(Op.LOAD, 1), Instr(Op.STORE, 0)],
                    [Instr(Op.IINC, 0, 1)]):
        assert line_of(read_v(0) + clobber + read_v(0) + TAIL)[2:] == [
            (RC, False), (GF, True)]
    # A write check proves the null test, not the read check.
    assert line_of([Instr(Op.LOAD, 0), Instr(Op.CONST, 1),
                    Instr(Op.DSM_WRITECHECK, 1),
                    Instr(Op.PUTFIELD, "Cell", "v", checked=True)]
                   + read_v(0) + read_v(0) + TAIL) == [
        (Op.DSM_WRITECHECK, False), (RC, False), (GF, True),
        (RC, True), (GF, True)]
    # A call, an acquire and a static-ref end the line: what follows is
    # another trace, which knows nothing.
    for special in ([Instr(Op.INVOKESTATIC, "T", "m")],
                    [Instr(Op.LOAD, 1), Instr(Op.DSM_ACQUIRE)],
                    [Instr(Op.DSM_STATICREF, "T"), Instr(Op.POP)]):
        code = read_v(0) + special + read_v(0) + read_v(0) + [
            Instr(Op.ADD)] + TAIL
        assert line_of(code) == [(RC, False), (GF, True)]
        after = 3 + len(special) - (special[-1].op is Op.POP)
        assert line_of(code, head=after)[:3] == [
            (RC, False), (GF, True), (RC, True)]
    # A loop that closes on its own head re-proves per trip.
    loop = read_v(0) + [Instr(Op.POP)] + read_v(0) + [
        Instr(Op.IF, "eq", 9), Instr(Op.GOTO, 0), Instr(Op.CONST, 0),
        Instr(Op.RETVAL)]
    assert line_of(loop) == [(RC, False), (GF, True), (RC, True), (GF, True)]
    assert trace_of(loop).stop is None


TWO_OBJECTS_SOURCE = """
class Cell { int v; }
class Reader extends Thread {
    Cell a; Cell b;
    int got;
    Reader(Cell a, Cell b) { this.a = a; this.b = b; }
    void run() {
        int s = 0;
        for (int i = 0; i < 3; i++) { s += a.v + b.v; }
        got = s;
    }
}
class Main {
    static int main() {
        Cell a = new Cell();
        Cell b = new Cell();
        a.v = 40;
        b.v = 2;
        Reader[] rs = new Reader[3];
        for (int i = 0; i < 3; i++) { rs[i] = new Reader(a, b); rs[i].start(); }
        int total = 0;
        for (int i = 0; i < 3; i++) { rs[i].join(); total += rs[i].got; }
        return total;
    }
}
"""


def test_a_miss_inside_a_trace_blocks_at_the_arms_pc():
    """``b`` is the second object on the loop's trace: its miss leaves
    the trace for the check's arm, which blocks where the interpreter
    does, having charged what the interpreter charged."""
    seen = {}
    for jit in (False, True):
        runtime = source_runtime(TWO_OBJECTS_SOURCE, jit)
        fetches = []
        for worker in runtime.workers:
            worker.dsm.hooks.block.append(
                lambda thread, kind, *_, fetches=fetches: kind == "fetch"
                and fetches.append(thread.frames[-1].where()))
        report = runtime.run()
        assert report.result == 3 * 3 * 42
        seen[jit] = (fetches, report.simulated_ns,
                     final_state(runtime)["instructions"])
    assert seen[True] == seen[False]
    assert sum("Reader.run" in where for where in seen[True][0]) >= 2
    (run, *_) = compiled_fns(runtime)["javasplit.Reader.run"]
    assert "while used" in run.source


def test_a_split_array_is_never_proven():
    """Every read check of a split array's element goes to the engine,
    region by region — from an arm, never folded into a trace's hit
    test or skipped as already passed: the handler sees a split array
    as often as under the interpreter."""
    calls = {}
    for jit in (False, True):
        config = RuntimeConfig(num_nodes=3, seed=0, jit_enable=jit,
                               net_jitter_ns=DEFAULT_JITTER_NS,
                               jit_threshold=1,
                               dsm=DsmConfig(array_region_elems=4))
        runtime = JavaSplitRuntime(rewrite_application(
            compile_source(app_source("tsp"))), config)
        count = calls[jit] = []
        for worker in runtime.workers:
            def counted(thread, ref, index=None, dsm=worker.dsm,
                        real=worker.dsm.read_check):
                if ref.header is not None and ref.header.gid in dsm._regions:
                    count.append(index)
                return real(thread, ref, index)
            worker.dsm.read_check = counted
        runtime.run()
    assert sorted(calls[True], key=repr) == sorted(calls[False], key=repr)
    assert len(calls[True]) > 1000


def test_the_race_observer_sees_every_checked_access_of_a_trace():
    seen = {}
    for jit in (False, True):
        runtime = source_runtime(SWEEP_SOURCE, jit)
        observed = seen[jit] = []
        for worker in runtime.workers:
            worker.jvm.interpreter.race_hook = (
                lambda thread, ref, slot, is_write, frame, instr:
                observed.append((frame.where(), slot, is_write)))
        assert runtime.run().result == 36
    assert seen[True] == seen[False] and len(seen[True]) > 100
    (run,) = compiled_fns(runtime)["javasplit.Loop.run"]
    traced = run.source[run.source.index("while used"):]
    assert "_race(" in traced[:traced.index("else:")]


# ---------------------------------------------------------------------------
# No silent fallback on an emitter bug
# ---------------------------------------------------------------------------
def test_emitter_bug_fails_the_run(monkeypatch):
    def broken(method, agent):
        raise KeyError("emitter bug")

    monkeypatch.setattr("repro.jit.manager.compile_method", broken)
    with pytest.raises(KeyError, match="emitter bug"):
        run_source(GOLDEN_SOURCE, jit=True)


HUGE_SOURCE = """
class Huge {
    static int bump(int x) { return x + 1; }
    static int run() {
        int acc = 0;
%s        return acc;
    }
}
class HugeMain {
    static int main() { return Huge.run() + Huge.run(); }
}
"""


@pytest.mark.parametrize("calls, lift_cap", [(300, False), (1100, False),
                                             (1100, True)])
def test_huge_method_compiles_or_is_declined(calls, lift_cap, monkeypatch):
    """Two entries per call site.  600 entries compile; 2 200 exceed the
    statement cap, and the emitter says so itself (``CompileError``)
    rather than leaving it to ``compile()``; with that cap lifted the
    2 200-arm ladder (ten skip-tree levels) compiles and runs."""
    if lift_cap:
        monkeypatch.setattr("repro.jit.codegen._MAX_STATEMENTS", 10 ** 6)
    source = HUGE_SOURCE % ("        acc = Huge.bump(acc);\n" * calls)
    base, _ = run_source(source, jit=False)
    jit, runtime = run_source(source, jit=True)
    assert jit.result == base.result == 2 * calls
    assert jit.simulated_ns == base.simulated_ns
    fns = compiled_fns(runtime)
    declined = jit.jit["blacklisted"]
    assert all(why.startswith("CompileError") for why in declined.values())
    assert ("javasplit.Huge.run" in declined) == (calls == 1100
                                                  and not lift_cap)
    if not declined:
        assert len(fns["javasplit.Huge.run"][0].entries) >= 2 * calls


def test_nesting_past_the_indent_cap_is_declined(monkeypatch):
    monkeypatch.setattr("repro.jit.codegen._MAX_INDENT", 6)
    base, _ = run_source(GOLDEN_SOURCE, jit=False)
    jit, _ = run_source(GOLDEN_SOURCE, jit=True)
    assert jit.result == base.result
    assert jit.simulated_ns == base.simulated_ns
    assert "javasplit.Edge.run" in jit.jit["blacklisted"]
    assert all(why.startswith("CompileError")
               for why in jit.jit["blacklisted"].values())


# ---------------------------------------------------------------------------
# Knob-off regression + report shape
# ---------------------------------------------------------------------------
def test_jit_off_by_default():
    config = RuntimeConfig()
    assert config.jit_enable is False
    assert config.jit_enable is False
    base, base_state = run_app("series", jit=False)
    default_cfg = RuntimeConfig(num_nodes=3,
                                net_jitter_ns=DEFAULT_JITTER_NS, seed=0)
    rewritten = rewrite_application(compile_source(app_source("series")))
    runtime = JavaSplitRuntime(rewritten, default_cfg)
    assert runtime.jit is None
    report = runtime.run()
    assert report.jit is None
    assert runtime.workers[0].jvm.jit is None
    assert report.simulated_ns == base.simulated_ns
    assert report.net.by_type == base.net.by_type
    assert final_state(runtime) == base_state


def test_jit_report_shape():
    jit, _ = run_app("series", jit=True)
    rep = jit.jit
    assert rep["threshold"] == 10
    assert rep["compiles"] == sum(n["compiled"] for n in rep["nodes"])
    assert len(REASON_NAMES) == N_REASONS
    for info in rep["methods"].values():
        assert info["tier"] == 1
        assert set(info["exits"]) <= set(REASON_NAMES)
    # Deopt counter is derived from the exit histogram.
    assert rep["deopts"] == rep["exit_reasons"].get("deopt", 0)


def test_jit_metrics_published():
    jit, _ = run_app("series", jit=True, obs_metrics=True)
    metrics = jit.obs["metrics"]
    counters = metrics["counters"]
    assert counters["jit.compiles"]["total"] > 0
    assert counters["jit.exit.return"]["total"] > 0
