"""Bootstrap native-method behaviour (Math / Sys / String / Object)."""

import math

import pytest

from repro.jvm import ClassBuilder, Op

from conftest import run_main


def run_expr_src(lang_src):
    from repro.lang import compile_source
    from repro.runtime import run_original

    return run_original(source=lang_src)


def test_math_unary_functions_match_python():
    src = """
    class Main {
        static double main() {
            double s = 0.0;
            s += Math.sqrt(2.0);
            s += Math.sin(1.0);
            s += Math.cos(1.0);
            s += Math.tan(0.5);
            s += Math.log(10.0);
            s += Math.exp(1.0);
            return s;
        }
    }
    """
    expected = (math.sqrt(2) + math.sin(1) + math.cos(1) + math.tan(0.5)
                + math.log(10) + math.exp(1))
    assert abs(run_expr_src(src).result - expected) < 1e-12


def test_math_floor_ceil_return_doubles():
    src = """
    class Main {
        static double main() { return Math.floor(2.7) + Math.ceil(2.1); }
    }
    """
    assert run_expr_src(src).result == 2.0 + 3.0


def test_math_abs_and_minmax():
    src = """
    class Main {
        static double main() {
            return Math.abs(-2.5) + Math.min(1.0, 2.0) + Math.max(1.0, 2.0)
                 + (double) Math.iabs(-3) + (double) Math.imin(5, 9)
                 + (double) Math.imax(5, 9);
        }
    }
    """
    assert run_expr_src(src).result == 2.5 + 1.0 + 2.0 + 3 + 5 + 9


def test_math_atan2_quadrants():
    src = """
    class Main {
        static double main() { return Math.atan2(1.0, -1.0); }
    }
    """
    assert abs(run_expr_src(src).result - math.atan2(1, -1)) < 1e-12


NAN, INF = math.nan, math.inf

#: A ``Math`` call over ``zero``, ``one``, ``inf`` and ``nan`` (locals,
#: so nothing is folded) -> Java's result.  Each out-of-domain case used
#: to abort the run with a raw Python ValueError / OverflowError, or gave
#: Python's answer (``min(1.0, NaN)`` 1.0, ``max(-0.0, 0.0)`` -0.0).
JAVA_MATH = [
    ("sqrt(2.0 * one)", math.sqrt(2.0)), ("sqrt(-one)", NAN),
    ("sqrt(-zero)", -0.0), ("sqrt(inf)", INF),
    ("log(zero)", -INF), ("log(-zero)", -INF), ("log(-one)", NAN),
    ("log(inf)", INF), ("log(one)", 0.0),
    ("exp(1000.0 * one)", INF), ("exp(-inf)", 0.0), ("exp(nan)", NAN),
    ("sin(inf)", NAN), ("sin(-inf)", NAN), ("sin(-zero)", -0.0),
    ("cos(-inf)", NAN), ("tan(inf)", NAN), ("tan(-inf)", NAN),
    ("floor(inf)", INF), ("floor(-inf)", -INF), ("floor(nan)", NAN),
    ("floor(-zero)", -0.0), ("floor(-0.5 * one)", -1.0),
    ("floor(0.5 * one)", 0.0), ("floor(2.7 * one)", 2.0),
    ("ceil(inf)", INF), ("ceil(-inf)", -INF), ("ceil(nan)", NAN),
    ("ceil(-0.5 * one)", -0.0), ("ceil(-zero)", -0.0), ("ceil(2.1 * one)", 3.0),
    ("abs(-zero)", 0.0), ("abs(-inf)", INF), ("abs(-2.5 * one)", 2.5),
    ("pow(10.0 * one, 400.0)", INF), ("pow(-10.0 * one, 401.0)", -INF),
    ("pow(-10.0 * one, 400.0)", INF), ("pow(2.0 * one, 10.0)", 1024.0),
    ("pow(one, nan)", NAN), ("pow(nan, zero)", 1.0), ("pow(nan, -zero)", 1.0),
    ("pow(nan, one)", NAN), ("pow(-one, inf)", NAN), ("pow(one, -inf)", NAN),
    ("pow(zero, -one)", INF), ("pow(-zero, -one)", -INF),
    ("pow(-zero, -2.0)", INF), ("pow(-zero, -1.5)", INF),
    ("pow(-zero, 3.0)", -0.0), ("pow(-8.0 * one, one / 3.0)", NAN),
    ("pow(0.5 * one, inf)", 0.0), ("pow(-inf, 3.0)", -INF),
    ("atan2(-zero, -one)", -math.pi), ("atan2(one, zero)", math.pi / 2),
    ("atan2(nan, one)", NAN),
    ("min(one, nan)", NAN), ("min(nan, one)", NAN), ("max(one, nan)", NAN),
    ("max(nan, one)", NAN), ("max(-zero, zero)", 0.0),
    ("max(zero, -zero)", 0.0), ("min(zero, -zero)", -0.0),
    ("min(-zero, zero)", -0.0), ("min(-inf, one)", -INF),
    ("max(2.0 * one, one)", 2.0),
    ("iabs(-3)", 3), ("imin(5, -9)", -9), ("imax(5, -9)", 5),
]
JAVA_MATH_SOURCE = """
class Main {
    static void show(double zero, double one) {
        double inf = one / zero;
        double nan = zero / zero;
%s
    }
    static int main() {
        for (int i = 0; i < 3; i++) { show(0.0, 1.0); }
        return 7;
    }
}
""" % "\n".join(f'        Sys.println("" + Math.{call});'
                for call, _ in JAVA_MATH)


def _bits(line, want):
    """The printed value against Java's, bit for bit: NaN by ``isnan``,
    a zero's sign by ``copysign``, an int as an int."""
    if isinstance(want, int):
        return line == str(want)
    got = float(line)
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1, got) == math.copysign(1, want)


@pytest.mark.parametrize("how", ("original", "fused", "stepped", "jit"))
def test_math_gives_javas_results_on_every_path(how):
    """One table, four paths: the single JVM; tier 0 on the cluster,
    with each call fused into a run; tier 0 one instruction at a time
    (a 1 ns quantum is below any run's margin); tier 1."""
    from repro.jvm.bytecode import native_of
    from repro.runtime import RuntimeConfig, build_runtime, run_original

    if how == "original":
        report = run_original(source=JAVA_MATH_SOURCE)
    else:
        runtime = build_runtime(JAVA_MATH_SOURCE, RuntimeConfig(
            num_nodes=2, seed=0, quantum_ns=1 if how == "stepped" else 50_000,
            jit_enable=how == "jit", jit_threshold=1))
        report = runtime.run()
        show = runtime.rewritten.classfiles["javasplit.Main"].methods["show"]
        calls = [pc for pc, i in enumerate(show.code) if native_of(i)]
        assert len(calls) == len(JAVA_MATH)
        if how == "fused":
            assert all(any(start < pc < end for start, end in show.fused[2])
                       for pc in calls)
        if how == "jit":
            assert "javasplit.Main.show" in report.jit["compiled_methods"]
    assert report.result == 7
    assert len(report.console) == 3 * len(JAVA_MATH)
    wrong = [(call, line) for (call, want), line in zip(
        JAVA_MATH * 3, report.console) if not _bits(line, want)]
    assert not wrong


def test_sys_time_reflects_simulated_clock():
    src = """
    class Main {
        static int main() {
            int t0 = Sys.nanoTime();
            double x = 0.0;
            for (int i = 0; i < 1000; i++) { x += Math.sqrt((double) i); }
            int t1 = Sys.nanoTime();
            return t1 - t0;
        }
    }
    """
    elapsed = run_expr_src(src).result
    assert elapsed > 0


def test_sys_current_time_millis_units():
    src = """
    class Main {
        static int main() { return Sys.currentTimeMillis(); }
    }
    """
    # At the very start of the simulation the clock is < 1 ms.
    assert run_expr_src(src).result == 0


def test_string_natives():
    src = """
    class Main {
        static int main() {
            String s = "hello world";
            int acc = 0;
            acc += s.length();                       // 11
            acc += s.indexOf("o");                   // 4
            acc += s.indexOf("zz");                  // -1
            acc += s.substring(0, 5).length();       // 5
            if (s.substring(6, 11).equalsStr("world") == 1) { acc += 100; }
            return acc;
        }
    }
    """
    assert run_expr_src(src).result == 11 + 4 - 1 + 5 + 100


def test_string_charat():
    src = """
    class Main {
        static int main() { return "abc".length(); }
    }
    """
    # String literals receive instance methods directly.
    assert run_expr_src(src).result == 3


def test_print_polymorphic_concat():
    src = """
    class Box { int v; }
    class Main {
        static int main() {
            Box b = new Box();
            Sys.print("box=" + b + " null=" + null + " d=" + 0.5);
            return 0;
        }
    }
    """
    rep = run_expr_src(src)
    line = rep.console[0]
    assert line.startswith("box=Box@")
    assert "null=null" in line
    assert line.endswith("d=0.5")


def test_notify_without_waiters_is_noop():
    src = """
    class Main {
        static int main() {
            Object o = new Object();
            synchronized (o) { o.notify(); o.notifyAll(); }
            return 1;
        }
    }
    """
    assert run_expr_src(src).result == 1
