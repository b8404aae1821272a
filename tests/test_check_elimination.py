"""Tests for the redundant read-check elimination pass (§6.2)."""

import pytest

from repro.jvm import Op, verify_classfiles
from repro.lang import compile_source
from repro.rewriter import PREFIX, rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig, run_original


def counts(src, optimize=True):
    rw = rewrite_application(compile_source(src), check_elim=int(optimize))
    verify_classfiles(rw.all_classfiles())
    return rw


def method_ops(rw, klass, name):
    return [i.op for i in rw.classfiles[PREFIX + klass].methods[name].code]


def test_straight_line_rereads_deduplicated():
    src = """
    class P { int x; int y; }
    class Main {
        static int main() {
            P p = new P();
            return p.x + p.y + p.x;   // three reads, one check needed
        }
    }
    """
    rw = counts(src)
    assert rw.stats["checks_eliminated"] == 2
    ops = method_ops(rw, "Main", "main")
    assert ops.count(Op.DSM_READCHECK) == 1
    assert ops.count(Op.GETFIELD) == 3


def test_elimination_resets_across_loop_boundaries():
    """A check inside a loop body is a branch target region: the first
    check of each iteration must survive."""
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P p = new P();
            int s = 0;
            for (int i = 0; i < 10; i++) { s += p.x + p.x; }
            return s;
        }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    # Two reads per iteration: one check kept, one eliminated.
    assert rw.stats["checks_eliminated"] >= 1
    assert Op.DSM_READCHECK in ops


def test_calls_are_barriers():
    src = """
    class P { int x; }
    class Main {
        static int probe(P p) { return p.x; }
        static int main() {
            P p = new P();
            int a = p.x;
            int b = probe(p);   // callee may acquire: barrier
            int c = p.x;        // must be re-checked
            return a + b + c;
        }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    assert ops.count(Op.DSM_READCHECK) == 2  # before a and after the call


def test_synchronization_is_a_barrier():
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P p = new P();
            int a = p.x;
            synchronized (p) { }
            int b = p.x;   // acquire passed: must re-check
            return a + b;
        }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    assert ops.count(Op.DSM_READCHECK) == 2


def test_store_to_slot_evicts_validation():
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P p = new P();
            int a = p.x;
            p = new P();    // slot now holds a different object
            int b = p.x;    // must be checked again
            return a + b;
        }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    assert ops.count(Op.DSM_READCHECK) == 2


@pytest.mark.parametrize("level", [1, 2])
def test_store_alone_evicts_validation(level):
    """A reassignment by a plain ``STORE``, with no call in between (a
    constructor call is itself a barrier, which would hide a ``STORE``
    that kept its slot's fact): the second ``p.x`` reads another
    object, so it keeps its own read check."""
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P[] ps = new P[2];
            ps[0] = new P();
            ps[1] = new P();
            P p = ps[0];
            int a = p.x;
            p = ps[1];      // slot now holds a different object
            int b = p.x;    // must be checked again
            return a + b;
        }
    }
    """
    rw = rewrite_application(compile_source(src), check_elim=level)
    verify_classfiles(rw.all_classfiles())
    code = rw.classfiles[PREFIX + "Main"].methods["main"].code
    reads = [pc for pc, i in enumerate(code) if i.op is Op.GETFIELD]
    assert len(reads) == 2
    assert all(code[pc - 1].op is Op.DSM_READCHECK for pc in reads)
    assert [i.op for i in code].count(Op.DSM_READCHECK) == 2


def test_write_check_validates_for_reading():
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P p = new P();
            p.x = 5;          // write check fetches + twins
            return p.x;       // read check redundant
        }
    }
    """
    rw = counts(src)
    assert rw.stats["checks_eliminated"] == 1
    ops = method_ops(rw, "Main", "main")
    assert Op.DSM_WRITECHECK in ops
    assert Op.DSM_READCHECK not in ops


def test_write_checks_never_eliminated():
    src = """
    class P { int x; }
    class Main {
        static int main() {
            P p = new P();
            p.x = 1;
            p.x = 2;
            p.x = 3;
            return p.x;
        }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    assert ops.count(Op.DSM_WRITECHECK) == 3


def test_array_rereads_deduplicated():
    src = """
    class Main {
        static int main() {
            int[] a = new int[4];
            a[0] = 3;
            return a[0] + a[1] + a[2];
        }
    }
    """
    rw = counts(src)
    assert rw.stats["checks_eliminated"] >= 2


def test_static_holder_rereads_deduplicated():
    src = """
    class Cfg { static int c; }
    class Main {
        static int main() { return Cfg.c + Cfg.c; }
    }
    """
    rw = counts(src)
    ops = method_ops(rw, "Main", "main")
    # The holder is a per-class singleton: the second check goes.
    assert ops.count(Op.DSM_READCHECK) == 1
    assert rw.stats["checks_eliminated"] == 1


def test_disabled_by_default():
    src = "class P { int x; } class Main { static int main() { P p = new P(); return p.x + p.x; } }"
    rw = rewrite_application(compile_source(src))
    assert rw.stats["checks_eliminated"] == 0


# ---------------------------------------------------------------------------
# End-to-end correctness with the optimization on
# ---------------------------------------------------------------------------
APPS = []

def _app_cases():
    from repro.apps import raytracer, series, tsp
    return [
        ("tsp", tsp.make_source(n_cities=7, n_threads=4)),
        ("series", series.make_source(n_coeffs=12, steps=16, n_threads=4)),
        ("raytracer", raytracer.make_source(resolution=8, n_threads=4, n_spheres=8)),
    ]


@pytest.mark.parametrize("name,src", _app_cases())
def test_optimized_apps_bit_identical(name, src):
    base = run_original(source=src)
    rw = rewrite_application(compile_source(src), check_elim=1)
    assert rw.stats["checks_eliminated"] > 0, name
    for nodes in (1, 3):
        report = JavaSplitRuntime(rw, RuntimeConfig(num_nodes=nodes)).run()
        assert report.result == base.result, (name, nodes)


def test_optimization_reduces_simulated_time():
    from repro.apps import tsp

    src = tsp.make_source(n_cities=7, n_threads=2)
    plain = JavaSplitRuntime(
        rewrite_application(compile_source(src)),
        RuntimeConfig(num_nodes=1),
    ).run()
    opt = JavaSplitRuntime(
        rewrite_application(compile_source(src), check_elim=1),
        RuntimeConfig(num_nodes=1),
    ).run()
    assert opt.result == plain.result
    assert opt.simulated_ns < plain.simulated_ns


# ---------------------------------------------------------------------------
# The whole toolchain's output, pinned
# ---------------------------------------------------------------------------
def toolchain_sha(source, level):
    """SHA-256 over everything the rewriter hands the runtime as code:
    every instruction of every class (operands and ``checked`` brand),
    the check-elimination notes, and the transformation counts."""
    import hashlib

    rw = rewrite_application(compile_source(source), check_elim=level)
    h = hashlib.sha256()
    for name in sorted(rw.classfiles):
        for m in rw.classfiles[name].methods.values():
            h.update(f"{name}.{m.name} {m.params} {m.ret} {m.max_locals} "
                     f"{sorted(m.flags)}\n".encode())
            for i in m.code:
                h.update(f" {i.op.name} {i.a!r} {i.b!r} {i.checked!r}\n"
                         .encode())
            notes = getattr(m, "elim_notes", None) or {}
            h.update(repr(sorted(notes.items())).encode())
    h.update(repr(sorted(rw.stats.items())).encode())
    return h.hexdigest()[:16], rw.stats["checks_eliminated"]


def _program(name):
    from repro.check.runner import app_source
    from repro.serve.app import make_source
    return make_source() if name == "serve" else app_source(name)


# (digest, checks eliminated) at check_elim 0 / 1 / 2, taken at the
# commit before the verifier, the check eliminator and the JIT analysis
# moved onto one stack-effect table and one CFG (and level 1 became the
# level-2 transfer function run with empty in-facts): rewritten code is
# an observable, a toolchain refactor may not move a byte of it.
TOOLCHAIN_GOLDEN = {
    "series": [("b8511812d2ea4997", 0), ("ea91893a95f60d6f", 2),
               ("ea91893a95f60d6f", 2)],
    "tsp": [("59cfd05d32f6b9de", 0), ("462060121c05fa94", 32),
            ("873f6202ccdcf76e", 39)],
    "raytracer": [("99e8fcb61fc6c197", 0), ("64cda5bc0717b127", 15),
                  ("1ec88347f6ebd39f", 23)],
    "serve": [("cb244eda963599ff", 0), ("a4d106d957c548e2", 17),
              ("8d1f909c4ffa0a8f", 21)],
}


@pytest.mark.parametrize("app", ["series", "tsp", "raytracer", "serve"])
def test_rewritten_bytecode_is_byte_identical_to_the_pinned_toolchain(app):
    got = [toolchain_sha(_program(app), level) for level in (0, 1, 2)]
    assert got == TOOLCHAIN_GOLDEN[app]
