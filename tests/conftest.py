"""Shared test helpers: quick JVM construction and program execution."""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Any, List, Optional

import pytest

from repro.jvm import JVM, bootstrap_classfiles, codecache
from repro.sim import Node, SimEngine, get_brand


def make_jvm(brand: str = "sun", cpus: int = 2, quantum_ns: int = 50_000):
    """A fresh engine + node + JVM with bootstrap classes loaded."""
    engine = SimEngine()
    node = Node(engine, 0, get_brand(brand), num_cpus=cpus, quantum_ns=quantum_ns)
    jvm = JVM(node)
    jvm.load_classes(bootstrap_classfiles())
    return engine, node, jvm


def run_main(
    classfiles,
    main_class: str,
    args: Optional[List[Any]] = None,
    brand: str = "sun",
    cpus: int = 2,
    max_events: int = 5_000_000,
):
    """Load classes, run static main to completion, return (jvm, thread)."""
    engine, node, jvm = make_jvm(brand=brand, cpus=cpus)
    jvm.load_classes(list(classfiles))
    thread = jvm.start_main(main_class, args)
    engine.run_until_idle(max_events=max_events)
    jvm.check_no_failures()
    return jvm, thread


@pytest.fixture
def jvm_env():
    return make_jvm()


@pytest.fixture
def cold_code_cache():
    """The process's generated-code cache (``repro.jvm.codecache``)
    empty, for a test that counts what the fuser or the emitter builds;
    emptied again after it, so nothing it built under a patch stays."""
    codecache.clear()
    yield
    codecache.clear()


@pytest.fixture
def built(monkeypatch):
    """What is built from here on, in order: ``"fused"`` per tier-0
    text, ``Class.method`` per tier-1 text, ``"compile"`` per
    ``compile()`` of either."""
    from repro.jit import codegen
    from repro.jvm import interpreter

    out = []
    fuse, emit = interpreter.fused_source, codegen._Emitter.compile
    monkeypatch.setattr(interpreter, "fused_source", lambda *args: (
        out.append("fused"), fuse(*args))[1])
    monkeypatch.setattr(codegen._Emitter, "compile", lambda self: (
        out.append(f"{self.method.klass}.{self.method.name}"), emit(self))[1])
    for module in interpreter, codegen:
        monkeypatch.setattr(module, "compile", lambda *args: (
            out.append("compile"), compile(*args))[1], raising=False)
    return out


# ---------------------------------------------------------------------------
# Multiprocess-backend guard rails (tests/test_procnet.py)
# ---------------------------------------------------------------------------

#: Hard wall-clock ceiling for one proc-backend test.  A wedged worker
#: or a lost frame must fail the test, not hang the suite (CI runs
#: without pytest-timeout locally, so the alarm is the backstop).
PROC_TEST_TIMEOUT_S = 120


@pytest.fixture
def proc_guard():
    """Timeout + orphan-reaper for tests that fork worker processes.

    Arms a SIGALRM that raises inside the test if it exceeds the
    ceiling, and at teardown reaps any worker processes the test leaked
    before *failing* the test — leaked children would poison every
    later fork-based test in the session.
    """

    def on_alarm(signum, frame):  # pragma: no cover - only fires on hang
        raise TimeoutError(
            f"proc-backend test exceeded {PROC_TEST_TIMEOUT_S}s "
            "(wedged worker or lost frame?)")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(PROC_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        leaked = multiprocessing.active_children()
        for child in leaked:  # reap so later tests start clean
            try:
                os.kill(child.pid, signal.SIGKILL)
            except OSError:
                pass
            child.join(timeout=5)
    assert not leaked, (
        f"test leaked worker processes: "
        f"{[(c.name, c.pid) for c in leaked]}")
