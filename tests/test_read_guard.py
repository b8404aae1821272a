"""A read check that hits is part of its run.

Tier 0 fuses a ``DSM_READCHECK`` into a straight-line run as a *guard*
(:mod:`repro.jvm.fuse`): the run tests the read-miss predicate — the
one tier 1 tests, :data:`~repro.jvm.fuse.READ_MISS` — on the checked
reference in line and goes on.  On a miss it flushes its pending values,
leaves ``frame.pc`` on the check and bills what it ran before it; the
check's own handler then takes the slow path, and execution resumes
after the check in a *tail run*, the rest of the run up to the next
guard fused on its own.
Each program below misses on every lock hand-over between its two
nodes: ``mid_run`` inside its runs, ``first_pc`` at a check that would
start one.  Its result, the bytecodes its threads ran, its simulated
nanoseconds and the events its engine fired are pinned as literals,
taken when every check was a dispatch of its own, interpreted and under
tier 1 at threshold 1, at a quantum that ends mid-method and at the
default one; and quantum by quantum it consumes, counts and stops where
one instruction at a time does.
"""

import collections
import itertools

import pytest

from repro.dsm.directory import NODE_SHIFT
from repro.dsm.objectstate import DSMHeader, ObjState, RegionInfo
from repro.heap import ArrayObj, Obj
from repro.jvm import ClassBuilder, Instr, Op
from repro.jvm.fuse import (_TAIL_ROWS, READ_MISS, fused_runs, fused_source,
                            read_miss_names)
from repro.jvm.interpreter import BOUND, Interpreter
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.sim.node import StreamState

from conftest import make_jvm
from dsm_script import Layout, ScriptRuntime
from test_jvm_decode import _MissOnce
from test_jvm_fused import _by_run, _by_step, _method_thread, _outcome

#: Both workers meet at a gate before their loop, so the lock passes
#: between the two nodes on every trip and each check below misses.
GATE = """
class Gate { int n; }
class Shared extends Thread {
    void meet(Gate g) {
        synchronized (g) {
            g.n = g.n + 1;
            if (g.n < 2) { g.wait(); } else { g.notifyAll(); }
        }
    }
}"""

PROGRAMS = {
    # ``c.v``, ``p.v`` and ``q.v`` are read in one run right after the
    # lock is taken.  No one writes ``c``: its check hits.  The other
    # node wrote ``p`` and ``q``: the run misses at the second check,
    # and what resumes after it at the third, which its own handler
    # dispatches.
    "mid_run": GATE + """
class Cell { int v; }
class Worker extends Shared {
    Cell k;
    Cell x;
    Cell y;
    Gate g;
    Worker(Cell k, Cell x, Cell y, Gate g) {
        this.k = k; this.x = x; this.y = y; this.g = g;
    }
    void run() {
        meet(g);
        Cell c = k;
        Cell p = x;
        Cell q = y;
        for (int i = 0; i < 40; i++) {
            synchronized (p) {
                int s = i * 3 + c.v + p.v;
                int t = s - i + q.v * 2;
                p.v = s + 1 - i * 3;
                q.v = t % 1000;
            }
        }
    }
}
class Main {
    static int main() {
        Cell k = new Cell();
        k.v = 7;
        Cell x = new Cell();
        Cell y = new Cell();
        Gate g = new Gate();
        Worker[] ws = new Worker[2];
        for (int n = 0; n < 2; n++) {
            ws[n] = new Worker(k, x, y, g);
            ws[n].start();
        }
        for (int n = 0; n < 2; n++) { ws[n].join(); }
        return x.v * 1000 + y.v;
    }
}""",
    # The index comes back from a call, so the element's check is the
    # first pc of the run after it: never a guard.
    "first_pc": GATE + """
class Worker extends Shared {
    int[] a;
    Gate g;
    Worker(int[] a, Gate g) { this.a = a; this.g = g; }
    static int at(int i) { return i % 4; }
    void run() {
        meet(g);
        int[] arr = a;
        for (int i = 0; i < 30; i++) {
            synchronized (arr) {
                int s = arr[at(i)];
                arr[at(i + 1)] = s + i;
            }
        }
    }
}
class Main {
    static int main() {
        int[] a = new int[4];
        Gate g = new Gate();
        Worker[] ws = new Worker[2];
        for (int k = 0; k < 2; k++) { ws[k] = new Worker(a, g); ws[k].start(); }
        for (int k = 0; k < 2; k++) { ws[k].join(); }
        return a[0] + a[1] * 10 + a[2] * 100 + a[3] * 1000;
    }
}""",
}

#: The two quanta, in simulated ns: one that ends quanta inside short
#: methods, and the runtime's default.
QUANTA = (1000, RuntimeConfig().quantum_ns)

#: (case, tier 1 on, quantum) -> (result, bytecodes, simulated ns, events
#: fired), taken while every read check was a dispatch of its own.
PARENT = {
    ("first_pc", False, 1000): (398938, 2588, 115131321, 1052),
    ("first_pc", False, 50000): (398938, 2588, 115056368, 645),
    ("first_pc", True, 1000): (398938, 2588, 115131321, 1052),
    ("first_pc", True, 50000): (398938, 2588, 115056368, 645),
    ("mid_run", False, 1000): (640355, 4564, 203319803, 1500),
    ("mid_run", False, 50000): (640355, 4564, 203276632, 1093),
    ("mid_run", True, 1000): (640355, 4564, 203319803, 1500),
    ("mid_run", True, 50000): (640355, 4564, 203276632, 1093),
}

#: Quanta that end quanta all through the guarded runs.
STEPPED_QUANTA = (1, 7, 53, 211, 400, 997, 4999)


def _runtime(case, jit=False, quantum_ns=QUANTA[1]):
    return JavaSplitRuntime(
        rewrite_application(compile_source(PROGRAMS[case])),
        RuntimeConfig(num_nodes=2, seed=0, quantum_ns=quantum_ns,
                      jit_enable=jit, jit_threshold=1))


def outcome(runtime):
    """What one run leaves: its result, the bytecodes its threads ran,
    the simulated ns it took and the events its engine fired."""
    report = runtime.run()
    return (report.result, sum(t.instructions for w in runtime.workers
                               for t in w.jvm.threads),
            report.simulated_ns, runtime.engine.events_fired)


def _stepped(self, thread, budget_ns, consumed=0):
    """``Interpreter.run`` one ``step`` at a time: no run is dispatched."""
    while consumed < budget_ns and thread.state is StreamState.RUNNABLE:
        consumed += self.step(thread)
    return consumed


def _quanta(case, quantum_ns, run):
    """Every quantum of ``case`` under ``run``: the thread, its budget,
    the ns it consumed, its instruction count and pcs after."""
    log = []

    def logged(self, thread, budget_ns, consumed=0):
        consumed = run(self, thread, budget_ns, consumed)
        log.append((thread.name, budget_ns, consumed, thread.instructions,
                    [frame.pc for frame in thread.frames]))
        return consumed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interpreter, "run", logged)
        return outcome(_runtime(case, quantum_ns=quantum_ns)), log


def _guards(method):
    """The read checks a run of ``method`` tests in line, each with the
    end of its run."""
    return {pc: end for start, end in fused_runs(method.code)
            for pc in range(start + 1, end)
            if method.code[pc].op is Op.DSM_READCHECK}


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_a_guarded_read_keeps_the_parents_numbers(case):
    for jit, quantum_ns in itertools.product((False, True), QUANTA):
        assert outcome(_runtime(case, jit, quantum_ns)) == \
            PARENT[case, jit, quantum_ns], (jit, quantum_ns)


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_every_quantum_ends_where_steps_would(case):
    """Quantum by quantum, the guarded runs consume the ns, count the
    instructions and stop at the pcs that one step at a time does."""
    for quantum_ns in STEPPED_QUANTA:
        assert _quanta(case, quantum_ns, Interpreter.run) == \
            _quanta(case, quantum_ns, _stepped), quantum_ns


def test_a_miss_leaves_its_run_and_resumes_in_its_tail():
    """Both of ``mid_run``'s guards miss; the rows after each, up to the
    next guard, are a tail run if there are ``_TAIL_ROWS`` of them, so
    what follows a miss is one dispatch again."""
    runtime = _runtime("mid_run")
    misses = collections.Counter()
    for worker in runtime.workers:
        def spy(thread, ref, index=None, check=worker.dsm.read_check):
            ok, extra = check(thread, ref, index)
            if not ok:
                misses[thread.frames[-1].pc] += 1
            return ok, extra
        worker.dsm.read_check = spy  # bound at decode: before the run
    assert outcome(runtime) == PARENT["mid_run", False, QUANTA[1]]
    method = runtime.workers[0].jvm.resolve_method("javasplit.Worker", "run")
    guards = _guards(method)
    # p.v and q.v, on each of the 40 trips of the worker away from their
    # home node.
    assert sorted(misses[pc] for pc in guards)[-2:] == [40, 40], misses
    interp = runtime.workers[1].jvm.interpreter
    per_pc, per_run = interp.decode(method), interp.fuse(method)
    for pc, end in guards.items():
        assert per_run[pc] is per_pc[pc]
        stop = min([g for g in guards if pc < g < end] or [end])
        assert (per_run[pc + 1] is not per_pc[pc + 1]) == (
            stop - pc - 1 >= _TAIL_ROWS + (stop < end)), pc


def test_a_check_at_a_runs_first_pc_is_never_a_guard():
    code = rewrite_application(compile_source(PROGRAMS["first_pc"])) \
        .classfiles["javasplit.Worker"].methods["run"].code
    runs = fused_runs(code)
    checks = [pc for pc, i in enumerate(code) if i.op is Op.DSM_READCHECK]
    assert not {start for start, _ in runs} & set(checks)
    # The element's check after the call: the run starts past it.
    after_call = [pc for pc in checks if code[pc - 1].op is Op.INVOKESTATIC]
    assert after_call and all(
        pc + 1 in dict(runs) and not any(s < pc < e for s, e in runs)
        for pc in after_call)
    # Checks in a row open a run: it starts after both, and its check
    # further down is a guard, whose two rows after it are too few for a
    # tail of their own (``_TAIL_ROWS``).
    code = [Instr(Op.INVOKESTATIC, "T", "f"), Instr(Op.DSM_READCHECK, 0),
            Instr(Op.DSM_READCHECK, 0), Instr(Op.LOAD, 0),
            Instr(Op.DSM_READCHECK, 0), Instr(Op.POP), Instr(Op.POP),
            Instr(Op.RETURN)]
    assert fused_runs(code) == [(3, 7)]


#: A run whose guard finds its reference below the run's own values,
#: on ``frame.stack``, with ``L[0] * 3`` still pending above it.
BELOW = [Instr(Op.LOAD, 0), Instr(Op.CONST, 3), Instr(Op.MUL),
         Instr(Op.DSM_READCHECK, 1), Instr(Op.POP), Instr(Op.ARRAYLENGTH),
         Instr(Op.RETVAL)]


@pytest.mark.parametrize("state", [ObjState.LOCAL, ObjState.INVALID, None],
                         ids=lambda v: getattr(v, "name", "null"))
def test_a_guard_leaves_the_frame_as_steps_do(state):
    """A hit runs on; a miss leaves the pending value on the stack, the
    pc on the check and the thread blocked in its handler; a null
    reference fails there, with the text and count of stepping."""
    assert fused_runs(BELOW) == [(0, 6)]
    outcomes = []
    for quantum in (_by_run, _by_step):
        _, _, jvm = make_jvm()
        jvm.hooks = ScriptRuntime(2, {}, {}, []).workers[0].dsm
        ref = None
        if state is not None:
            ref = ArrayObj("int", 5)
            ref.header = DSMHeader(ref.class_name)
            ref.header.state = state
            ref.header.gid = (1 << NODE_SHIFT) + 7  # homed on node 1
        thread = _method_thread(BELOW, args=[7], jvm=jvm)
        thread.frames[-1].stack.append(ref)
        outcomes.append(_outcome(thread, quantum))
    (fused, stepped), plain = outcomes, lambda o: o[:3] + o[4:]
    assert plain(fused) == plain(stepped)
    consumed, error, pc, stack, _, count, after = fused
    if state is ObjState.LOCAL:
        assert (error, stack, count, after) == (
            None, [], 7, StreamState.FINISHED)
    elif state is ObjState.INVALID:
        assert (pc, stack[1:], count, after) == (  # the check counts
            3, [21], 4, StreamState.BLOCKED)
    else:
        assert error == "read check on null at T.m pc=3 [main]"
        assert count == 3


#: A guard right before the access whose reference it tests: the access
#: drops its own null test, in the run and in the tail after the guard.
PROVEN = [Instr(Op.LOAD, 0), Instr(Op.CONST, 1), Instr(Op.DSM_READCHECK, 1),
          Instr(Op.ARRLOAD), Instr(Op.CONST, 1), Instr(Op.ADD),
          Instr(Op.RETVAL)]


@pytest.mark.parametrize("state", [ObjState.LOCAL, None],
                         ids=lambda v: getattr(v, "name", "null"))
def test_a_guarded_access_skips_its_null_test_and_null_fails_in_the_check(
        state):
    """The guard's own null test stands for the access's: a null
    reference still fails in the check, with its text, pc and count."""
    assert fused_runs(PROVEN) == [(0, 6), (3, 6)]
    text, _ = fused_source(PROVEN, BOUND)
    assert "_NPE" not in text  # a guard, then arrload: none of its own
    outcomes = []
    for quantum in (_by_run, _by_step):
        _, _, jvm = make_jvm()
        jvm.hooks = ScriptRuntime(2, {}, {}, []).workers[0].dsm
        ref = None
        if state is not None:
            ref = ArrayObj("int", 5)
            ref.data[1] = 41
            ref.header = DSMHeader(ref.class_name)
            ref.header.state = state
        outcomes.append(_outcome(_method_thread(PROVEN, args=[ref], jvm=jvm),
                                 quantum))
    (fused, stepped), plain = outcomes, lambda o: o[:3] + o[4:]
    assert plain(fused) == plain(stepped)
    consumed, error, pc, stack, _, count, after = fused
    if state is None:
        assert (error, pc, count) == ("read check on null at T.m pc=2 [main]",
                                      2, 2)
    else:
        assert (error, count, after) == (None, 7, StreamState.FINISHED)


def test_hooks_that_are_no_engine_keep_their_checks_cut():
    """A JVM whose hooks are no DSM engine has no region table for a
    guard to read: its checks stay out of runs, each its own dispatch."""
    engine, _, jvm = make_jvm()
    jvm.hooks = _MissOnce()
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.const(2)
    mb.const("ref")
    mb.emit(Op.DSM_READCHECK, 0)
    mb.emit(Op.POP)
    mb.const(5)
    mb.emit(Op.ADD)
    mb.retval()
    cb.finish(mb)
    jvm.load_classes([cb.build()])
    thread = jvm.start_main("Main")
    engine.run_until_idle()
    thread.wake()
    engine.run_until_idle()
    assert thread.result == 7
    method = jvm.resolve_method("Main", "main")
    cut, _, runs = method.fused
    assert 2 in cut and runs == [(0, 2), (3, 6)]
    assert fused_runs(method.code) == [(0, 6), (3, 6)]  # on an engine


#: gid -> the state of each region of the array it names, or None
#: when it names no split array.
GIDS = {0: None, 5: None, 9: ObjState.INVALID, 10: ObjState.VALID}


@pytest.mark.parametrize("state, gid", [(None, 0), *itertools.product(
    ObjState, GIDS)], ids=lambda v: getattr(v, "name", str(v)))
def test_the_read_miss_predicate_agrees_with_read_check(state, gid):
    """Both tiers' predicate, over every header a check meets: no
    header; each state with ``gid`` 0, a ``gid`` of no split array, and
    of one whose regions are INVALID or VALID.  A hit is a
    ``read_check`` that passes and changes nothing; on a miss the
    handler fetches, attaches a header or reads the element's region."""
    dsm = ScriptRuntime(2, {"C": ["v"]}, {}, []).workers[1].dsm
    regions = GIDS[gid]
    ref = Obj(Layout("C", ["v"])) if regions is None else ArrayObj("int", 8)
    if state is not None:
        ref.header = DSMHeader(ref.class_name)
        ref.header.state, ref.header.gid = state, gid
    if regions is not None:
        dsm._regions[gid] = RegionInfo(8, 4, regions, 0)
    before = (ref.header and (ref.header.state, ref.header.gid),
              dict(dsm._fetch_waiters), dsm.stats.fetches)
    miss = eval(READ_MISS, dict(read_miss_names(dsm), _h=ref.header))
    assert bool(miss) == (state is None or state is ObjState.INVALID
                          or regions is not None)
    ok, extra = dsm.read_check(object(), ref, 1)
    after = (ref.header and (ref.header.state, ref.header.gid),
             dict(dsm._fetch_waiters), dsm.stats.fetches)
    if state is None:  # the handler attached a header
        assert (ok, extra) == (True, 0) and ref.header is not None
    elif not miss or regions is ObjState.VALID:
        assert (ok, extra) == (True, 0) and after == before
    else:  # INVALID, or a split array's INVALID region: a fetch
        assert not ok and after != before
