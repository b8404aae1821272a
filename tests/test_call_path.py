"""The call path: what a call site binds, bills and raises.

A tier-0 call site pushes its callee's frame itself (with the callee's
fused list when its JVM has built one), a virtual site keeps its last
object receiver's class and target, and RETURN / RETVAL pop back to the
caller in place (:mod:`repro.jvm.interpreter`).  Each program below
drives one kind of call site.  Its result, the bytecodes its threads
ran and its simulated nanoseconds (or its error text) are pinned as
literals, taken when a call still went through a per-call helper that
resolved every virtual target, interpreted and under tier 1 at
threshold 1, at a quantum that ends mid-method and at the default one.
A quantum in which a callee is first reached must stop where one
instruction at a time would have.
"""

import itertools

import pytest

from repro.heap import JVMError
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig

from conftest import make_jvm

PROGRAMS = {
    # The receiver is null on the third call: the run fails there.
    "null_receiver": """
class P { int x; int f() { return x + 1; } }
class Main {
    static P make(int k) { if (k > 2) { return new P(); } return null; }
    static int main() {
        int s = 0;
        for (int i = 0; i < 5; i++) { P p = make(4 - i); s += p.f(); }
        return s;
    }
}""",
    "string_receiver": """
class Main {
    static int main() {
        String s = "abc" + 12;
        int t = 0;
        for (int i = 0; i < 9; i++) { t += s.length() * 7 + s.charAt(i % 5); }
        return t;
    }
}""",
    # Object's methods on an array: a virtual call that resolves to a
    # native of the object class.
    "array_receiver": """
class Main {
    static int main() {
        int[] a = new int[4];
        for (int i = 0; i < 6; i++) {
            synchronized (a) { a.notifyAll(); a[i % 4] += i; }
        }
        return a[0] * 100 + a[1] * 10 + a[2] + a[3];
    }
}""",
    # One site alternates between two subclasses and a third joins late:
    # the site's binding misses and re-binds, and every target counts.
    "polymorphic": """
class Shape { int area(int k) { return k; } }
class Square extends Shape { int area(int k) { return k * k; } }
class Tri extends Shape { int area(int k) { return k * 3 + 1; } }
class Main {
    static int main() {
        Shape[] s = new Shape[3];
        s[0] = new Square(); s[1] = new Tri(); s[2] = new Shape();
        int t = 0;
        for (int i = 0; i < 40; i++) {
            int n = 2;
            if (i > 30) { n = 3; }
            t = t * 3 % 100003 + s[i % n].area(i);
        }
        return t;
    }
}""",
    # Natives: a static one, a blocking one (join) and a virtual one on
    # a thread object.
    "native": """
class Worker extends Thread {
    int out;
    void run() { int s = 0; for (int i = 0; i < 30; i++) { s += i; } out = s; }
}
class Main {
    static int main() {
        Worker w = new Worker();
        w.setPriority(7);
        w.start();
        w.join();
        int p = w.getPriority();
        Sys.println("joined " + w.out);
        return w.out * 10 + p;
    }
}""",
    # Static calls (recursion, so frames stack deep) and constructors
    # chained through ``super(...)`` (INVOKESPECIAL).
    "static_special": """
class Base { int v; Base(int v) { this.v = v; } int get() { return v; } }
class Derived extends Base {
    Derived(int v) { super(v * 2); }
    int get() { return v + 1; }
}
class Main {
    static int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    static int main() {
        Derived d = new Derived(fib(11));
        return d.get() + fib(7);
    }
}""",
    # ``late`` is first called deep inside a quantum, so its frame is
    # pushed before its JVM has fused it; its long straight line raises
    # the interpreter's margin while that quantum runs.
    "first_mid_quantum": """
class Main {
    static int late(int a, int b) {
        int c = a * 3 + b * 5 - a * b + (a + b) * (a - b) + a * a * 7;
        int d = c * 2 - a + b * 11 - c * 3 + (c + a) * (b - 1) - a * b * c;
        return c + d * 13 - (a + 1) * (b + 2) * (c - 3) + d * d;
    }
    static int main() {
        int t = 0;
        for (int i = 0; i < 60; i++) {
            t = t + i;
            if (i == 37) { t = t + late(i, t); }
            if (i > 50) { t = late(t % 1000, i) % 100003; }
        }
        return t;
    }
}""",
}

#: The two quanta, in simulated ns: one that ends quanta inside short
#: methods, and the runtime's default.
QUANTA = (1000, RuntimeConfig().quantum_ns)

#: (case, tier 1 on, quantum) -> (result or error text, bytecodes,
#: simulated ns, events fired: one per quantum and message), taken
#: before call sites bound their callees.
NPE = ("NullPointerError: invoke javasplit.P.f on null at "
       "javasplit.Main.main pc=14 [main]")
PARENT = {
    ("array_receiver", False, 1000): (465, 212, 11974, 36),
    ("array_receiver", False, 50000): (465, 212, 11974, 3),
    ("array_receiver", True, 1000): (465, 212, 11974, 36),
    ("array_receiver", True, 50000): (465, 212, 11974, 3),
    ("first_mid_quantum", False, 1000): (21037, 1927, 7118, 24),
    ("first_mid_quantum", False, 50000): (21037, 1927, 7118, 3),
    ("first_mid_quantum", True, 1000): (21037, 1927, 7118, 24),
    ("first_mid_quantum", True, 50000): (21037, 1927, 7118, 3),
    ("native", False, 1000): (4357, 449, 4883146, 38),
    ("native", False, 50000): (4357, 449, 4882146, 26),
    ("native", True, 1000): (4357, 449, 4883146, 38),
    ("native", True, 50000): (4357, 449, 4882146, 26),
    ("null_receiver", False, 1000): (NPE, 89, 1181, 4),
    ("null_receiver", False, 50000): (NPE, 89, 0, 1),
    ("null_receiver", True, 1000): (NPE, 89, 1181, 4),
    ("null_receiver", True, 50000): (NPE, 89, 0, 1),
    ("polymorphic", False, 1000): (45387, 1373, 30658, 69),
    ("polymorphic", False, 50000): (45387, 1373, 30658, 3),
    ("polymorphic", True, 1000): (45387, 1373, 30658, 69),
    ("polymorphic", True, 50000): (45387, 1373, 30658, 3),
    ("static_special", False, 1000): (192, 2976, 29857, 90),
    ("static_special", False, 50000): (192, 2976, 29857, 3),
    ("static_special", True, 1000): (192, 2976, 29857, 90),
    ("static_special", True, 50000): (192, 2976, 29857, 3),
    ("string_receiver", False, 1000): (1051, 202, 2105, 9),
    ("string_receiver", False, 50000): (1051, 202, 2105, 3),
    ("string_receiver", True, 1000): (1051, 202, 2105, 9),
    ("string_receiver", True, 50000): (1051, 202, 2105, 3),
}


def outcome(case, jit, quantum_ns):
    """What one run of ``case`` leaves: its result or error text, the
    bytecodes its threads ran, the simulated ns it took and the events
    its engine fired."""
    rewritten = rewrite_application(compile_source(PROGRAMS[case]))
    runtime = JavaSplitRuntime(rewritten, RuntimeConfig(
        num_nodes=2, seed=0, quantum_ns=quantum_ns, jit_enable=jit,
        jit_threshold=1))
    try:
        report = runtime.run()
        result, now = report.result, report.simulated_ns
    except JVMError as exc:
        result, now = f"{type(exc).__name__}: {exc}", runtime.engine.now
    bytecodes = sum(t.instructions for w in runtime.workers
                    for t in w.jvm.threads)
    return result, bytecodes, now, runtime.engine.events_fired


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_a_call_site_keeps_the_parents_numbers(case):
    for jit, quantum_ns in itertools.product((False, True), QUANTA):
        assert outcome(case, jit, quantum_ns) == PARENT[case, jit, quantum_ns]


def _main_thread(classes):
    """A fresh JVM's interpreter and a thread about to run main."""
    _, _, jvm = make_jvm()
    jvm.load_classes(classes)
    return jvm.interpreter, jvm.start_main("Main")


def _where(thread):
    return thread.instructions, [(f.method.name, f.pc) for f in thread.frames]


def test_a_callee_first_reached_mid_quantum_ends_it_where_steps_would():
    """``late`` is fused only once its first frame runs, which raises
    the margin inside a quantum: a quantum of the dispatch loop must
    still stop where one instruction at a time would have, for every
    budget up to that first call's return."""
    classes = compile_source(PROGRAMS["first_mid_quantum"])
    interp, thread = _main_thread(classes)
    steps, consumed, called = [], 0, False  # (ns so far, where) per step
    while not called or len(thread.frames) > 1:
        consumed += interp.step(thread)
        steps.append((consumed, _where(thread)))
        called = called or len(thread.frames) > 1
    for budget_ns in range(1, consumed + 1, 3):
        interp, thread = _main_thread(classes)
        got = interp.run(thread, budget_ns)
        want = next(step for step in steps if step[0] >= budget_ns)
        assert (got, _where(thread)) == want, budget_ns
