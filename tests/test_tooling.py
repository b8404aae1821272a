"""Tests for the developer tooling: disassembler, tracer, CLI."""

import os

import pytest

from repro.jvm.disasm import disassemble, disassemble_class, disassemble_method
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer
from repro.cli import main as cli_main

SRC = """
class Counter { int v; synchronized void bump() { v += 1; } }
class Worker extends Thread {
    Counter c;
    Worker(Counter c) { this.c = c; }
    void run() { for (int i = 0; i < 20; i++) { c.bump(); } }
}
class Main {
    static int main() {
        Counter c = new Counter();
        Worker a = new Worker(c);
        a.start(); a.join();
        return c.v;
    }
}
"""


# ---------------------------------------------------------------------------
# Disassembler
# ---------------------------------------------------------------------------
def test_disassemble_original_class():
    text = disassemble(compile_source(SRC))
    assert "class Counter extends Object" in text
    assert "synchronized void bump()" in text
    assert "MONITORENTER" in text
    assert "GETFIELD" in text


def test_disassemble_rewritten_shows_instrumentation():
    rewritten = rewrite_application(compile_source(SRC))
    text = disassemble(rewritten.all_classfiles())
    assert "[instrumented]" in text
    assert "DSM_ACQUIRE" in text
    assert "DSM_READCHECK" in text
    assert "[checked]" in text
    assert "MONITORENTER" not in text


def test_disassemble_marks_branch_targets():
    text = disassemble(compile_source(SRC))
    assert ">" in text  # loop heads are marked


def test_disassemble_native_methods():
    from repro.jvm import bootstrap_classfiles

    text = disassemble(bootstrap_classfiles())
    assert "[native]" in text
    assert "class Thread extends Object" in text


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
def _traced_run(limit=None):
    rewritten = rewrite_application(compile_source(SRC))
    rt = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=2))
    tracer = DsmTracer.attach(rt, max_events=limit)
    report = rt.run()
    return tracer, report


def test_tracer_records_protocol_events():
    tracer, report = _traced_run()
    assert report.result == 20
    counts = tracer.counts()
    assert counts.get("promote", 0) >= 2
    assert counts.get("dsm.spawn", 0) == 1
    assert counts.get("dsm.fetch_req", 0) > 0


def test_tracer_timestamps_monotonic():
    tracer, _ = _traced_run()
    times = [e.time_ns for e in tracer.events]
    assert times == sorted(times)


def test_tracer_filters_and_formats():
    tracer, _ = _traced_run()
    spawns = tracer.events_of_type("dsm.spawn")
    assert len(spawns) == 1
    text = tracer.format(kind="dsm.spawn")
    assert "dsm.spawn" in text and "-> n" in text


def test_tracer_event_limit():
    tracer, _ = _traced_run(limit=5)
    assert len(tracer) == 5


def test_tracing_does_not_change_results():
    plain = JavaSplitRuntime(
        rewrite_application(compile_source(SRC)), RuntimeConfig(num_nodes=2)
    ).run()
    _, traced = _traced_run()
    assert plain.result == traced.result
    assert plain.simulated_ns == traced.simulated_ns  # zero-overhead probe


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "app.mj"
    path.write_text(SRC)
    return str(path)


def test_cli_run(src_file, capsys):
    assert cli_main(["run", src_file, "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "result            : 20" in out
    assert "token transfers" in out


def test_cli_original(src_file, capsys):
    assert cli_main(["original", src_file, "--brand", "ibm"]) == 0
    out = capsys.readouterr().out
    assert "result            : 20" in out


def test_cli_disasm(src_file, capsys):
    assert cli_main(["disasm", src_file]) == 0
    assert "MONITORENTER" in capsys.readouterr().out
    assert cli_main(["disasm", src_file, "--rewritten"]) == 0
    assert "DSM_ACQUIRE" in capsys.readouterr().out


def test_cli_disasm_costs_brackets_what_tier0_fuses(tmp_path, capsys):
    """``--costs`` on the benchmark's lock program: a ``; fused`` line
    sits exactly where tier 0 dispatches one handler for a whole run; a
    ``; trace`` line at every head tier 1 runs a trace from, with the
    budget it tests before it runs."""
    import re
    from repro.jvm.disasm import resolve_cost_tables
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "e2e", "programs", "locks.mj")) as fh:
        source = fh.read().replace("@THREADS@", "4").replace("@ITERS@", "50")
    path = tmp_path / "locks.mj"
    path.write_text(source)
    assert cli_main(["disasm", str(path), "--rewritten", "--costs", "sun"]) == 0
    out = capsys.readouterr().out
    assert ("      ; trace pc 10..15: 19 ns pre-charged, 0 of 0 checks proven\n"
            "      ; fused pc 10..12: 10 ns\n"
            "   >  10  LOAD 3\n") in out
    assert "      ; trace pc 0..9: 382 ns pre-charged, 1 of 2 checks proven\n" in out
    rewritten = rewrite_application(compile_source(source))
    runtime = JavaSplitRuntime(rewritten, RuntimeConfig(
        num_nodes=2, jit_enable=True, jit_threshold=1))
    runtime.run()
    worker_run = next(fn for fn in runtime.jit.agents[0].cache.values()
                      if fn and fn.method.klass.endswith("LockWorker")
                      and fn.method.name == "run")
    listed = re.findall(r"; trace pc (\d+)\.\.\S+(?: \(\S+\))*: (\d+) ns",
                        disassemble_method(worker_run.method,
                                           resolve_cost_tables("sun")))
    assert len(listed) >= 3
    listed = [(head, total) for head, total in listed
              if int(head) in worker_run.heads]
    assert len(listed) == len(worker_run.heads) >= 2
    for head, total in listed:
        assert re.search(rf"def _t{head}\(thread, frame, left\):\n"
                         rf" +if left <= {total}:", worker_run.source)
    plain = JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=2))
    plain.run()
    interp = plain.workers[0].jvm.interpreter
    for cf in rewritten.classfiles.values():
        for method in cf.methods.values():
            if method.is_native:
                continue
            per_instr, per_run = interp.decode(method), interp.fuse(method)
            listing = disassemble_method(method, resolve_cost_tables("sun"))
            assert [int(pc) for pc in re.findall(r"; fused pc (\d+)", listing)
                    ] == [pc for pc in range(len(method.code))
                          if per_run[pc] is not per_instr[pc]]


def test_cli_disasm_costs_bills_a_math_row_like_both_tiers(tmp_path, capsys):
    """``SeriesWorker.f`` is one fused run through ``Math.log`` and
    ``Math.exp``: each call is a row billed INVOKE + NATIVE, what the
    call cost when it went through the native registry."""
    from repro.apps.series import make_source
    from repro.sim import cost_model as cm
    path = tmp_path / "series.mj"
    path.write_text(make_source())
    assert cli_main(["disasm", str(path), "--rewritten", "--costs", "sun"]) == 0
    assert ("  double f(double)\n"
            "    max_locals=2\n"
            "      ; fused pc 0..6: 177 ns\n") in capsys.readouterr().out
    sun = cm.get_brand("sun")
    assert 177 == 13 + sun[cm.ARITH] + 2 * (sun[cm.INVOKE] + sun[cm.NATIVE])


def test_cli_disasm_costs_marks_a_guard_and_its_tail(tmp_path, capsys):
    """``SeriesWorker.integrate`` reads ``this.steps`` at its entry: its
    read check is a guard of the run from pc 0, and the rest of that run
    is a tail, where a miss resumes after the check's handler."""
    from repro.apps.series import make_source
    path = tmp_path / "series.mj"
    path.write_text(make_source())
    assert cli_main(["disasm", str(path), "--rewritten", "--costs", "sun"]) == 0
    out = capsys.readouterr().out
    assert ("      ; fused pc 0..20: 244 ns\n"
            "       0  CONST 3.141592653589793\n"
            ) in out[out.index("  double integrate(int, int)"):]
    assert ("       8  LOAD 0\n"
            "       9  DSM_READCHECK 0  ; guard: tested in line\n"
            "      ; fused pc 10..20: 215 ns, resumes after the check at pc 9\n"
            "      10  GETFIELD 'javasplit.SeriesWorker' 'steps' [checked]\n"
            ) in out[out.index("  double integrate(int, int)"):]


def test_cli_trace(src_file, capsys):
    assert cli_main(["trace", src_file, "--nodes", "2", "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "promote" in out
    assert "result            : 20" in out


def test_cli_run_with_extensions(src_file, capsys):
    assert cli_main([
        "run", src_file, "--nodes", "2", "--check-elim", "1",
        "--region-elems", "16", "--vector-timestamps",
    ]) == 0
    assert "result            : 20" in capsys.readouterr().out


def test_cli_rejects_unknown_command(src_file):
    with pytest.raises(SystemExit):
        cli_main(["frobnicate", src_file])
