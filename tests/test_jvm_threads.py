"""Threads, monitors, wait/notify in plain (un-instrumented) execution."""

import pytest

from repro.heap import JavaRuntimeError
from repro.jvm import ClassBuilder, IllegalMonitorStateError, Op

from conftest import run_main


def _worker_class(name="Worker", body=None):
    """A Thread subclass whose run() increments a shared Cell under lock."""
    cb = ClassBuilder(name, super_name="Thread")
    cb.field("cell", "Cell")
    cb.field("reps", "int")
    init = cb.method("<init>", params=["Cell", "int"])
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    init.load(0); init.load(1)
    init.emit(Op.PUTFIELD, name, "cell")
    init.load(0); init.load(2)
    init.emit(Op.PUTFIELD, name, "reps")
    init.ret()
    cb.finish(init)

    run = cb.method("run")
    i = run.alloc_local()
    run.const(0); run.store(i)
    top = run.label(); done = run.label()
    run.mark(top)
    run.load(i); run.load(0); run.emit(Op.GETFIELD, name, "reps")
    run.if_cmp("ge", done)
    # synchronized(cell) { cell.value += 1 }
    run.load(0); run.emit(Op.GETFIELD, name, "cell")
    run.emit(Op.MONITORENTER)
    run.load(0); run.emit(Op.GETFIELD, name, "cell")
    run.emit(Op.DUP)
    run.emit(Op.GETFIELD, "Cell", "value")
    run.const(1); run.emit(Op.ADD)
    run.emit(Op.PUTFIELD, "Cell", "value")
    run.load(0); run.emit(Op.GETFIELD, name, "cell")
    run.emit(Op.MONITOREXIT)
    run.emit(Op.IINC, i, 1)
    run.goto(top)
    run.mark(done)
    run.ret()
    cb.finish(run)
    return cb.build()


def _cell_class():
    cb = ClassBuilder("Cell")
    cb.field("value", "int")
    init = cb.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>")
    init.ret()
    cb.finish(init)
    return cb.build()


def _spawn_main(num_threads, reps):
    """main: create Cell, spawn workers, join all, return cell.value."""
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    cell = mb.alloc_local()
    arr = mb.alloc_local()
    i = mb.alloc_local()
    mb.emit(Op.NEW, "Cell"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Cell", "<init>")
    mb.store(cell)
    mb.const(num_threads); mb.emit(Op.NEWARRAY, "Worker"); mb.store(arr)
    # spawn loop
    mb.const(0); mb.store(i)
    top = mb.label(); done = mb.label()
    mb.mark(top)
    mb.load(i); mb.const(num_threads); mb.if_cmp("ge", done)
    mb.load(arr); mb.load(i)
    mb.emit(Op.NEW, "Worker"); mb.emit(Op.DUP)
    mb.load(cell); mb.const(reps)
    mb.invoke(Op.INVOKESPECIAL, "Worker", "<init>")
    mb.emit(Op.ARRSTORE)
    mb.load(arr); mb.load(i); mb.emit(Op.ARRLOAD)
    mb.invoke(Op.INVOKEVIRTUAL, "Worker", "start")
    mb.emit(Op.IINC, i, 1)
    mb.goto(top)
    mb.mark(done)
    # join loop
    mb.const(0); mb.store(i)
    top2 = mb.label(); done2 = mb.label()
    mb.mark(top2)
    mb.load(i); mb.const(num_threads); mb.if_cmp("ge", done2)
    mb.load(arr); mb.load(i); mb.emit(Op.ARRLOAD)
    mb.invoke(Op.INVOKEVIRTUAL, "Worker", "join")
    mb.emit(Op.IINC, i, 1)
    mb.goto(top2)
    mb.mark(done2)
    mb.load(cell)
    mb.emit(Op.GETFIELD, "Cell", "value")
    mb.retval()
    cb.finish(mb)
    return cb.build()


def test_monitor_protects_counter_across_threads():
    classes = [_cell_class(), _worker_class(), _spawn_main(4, 200)]
    jvm, thread = run_main(classes, "Main", cpus=2)
    assert thread.result == 800
    assert jvm.node.finished_streams == 5  # main + 4 workers


def test_single_thread_monitor_reentrancy():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    o = mb.alloc_local()
    mb.emit(Op.NEW, "Cell"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Cell", "<init>")
    mb.store(o)
    mb.load(o); mb.emit(Op.MONITORENTER)
    mb.load(o); mb.emit(Op.MONITORENTER)   # re-entrant
    mb.load(o); mb.emit(Op.MONITOREXIT)
    mb.load(o); mb.emit(Op.MONITOREXIT)
    mb.const(1)
    mb.retval()
    cb.finish(mb)
    jvm, thread = run_main([_cell_class(), cb.build()], "Main")
    assert thread.result == 1


def test_monitorexit_by_non_owner_raises():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.emit(Op.NEW, "Cell"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Cell", "<init>")
    mb.emit(Op.MONITOREXIT)
    mb.const(0); mb.retval()
    cb.finish(mb)
    with pytest.raises(IllegalMonitorStateError):
        run_main([_cell_class(), cb.build()], "Main")


def test_wait_notify_producer_consumer():
    """Producer sets flag and notifies; consumer waits for it."""
    cell = _cell_class()

    prod = ClassBuilder("Producer", super_name="Thread")
    prod.field("cell", "Cell")
    init = prod.method("<init>", params=["Cell"])
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    init.load(0); init.load(1); init.emit(Op.PUTFIELD, "Producer", "cell")
    init.ret()
    prod.finish(init)
    run = prod.method("run")
    run.load(0); run.emit(Op.GETFIELD, "Producer", "cell")
    run.emit(Op.MONITORENTER)
    run.load(0); run.emit(Op.GETFIELD, "Producer", "cell")
    run.const(42)
    run.emit(Op.PUTFIELD, "Cell", "value")
    run.load(0); run.emit(Op.GETFIELD, "Producer", "cell")
    run.invoke(Op.INVOKEVIRTUAL, "Cell", "notifyAll")
    run.load(0); run.emit(Op.GETFIELD, "Producer", "cell")
    run.emit(Op.MONITOREXIT)
    run.ret()
    prod.finish(run)

    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    c = mb.alloc_local()
    mb.emit(Op.NEW, "Cell"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Cell", "<init>")
    mb.store(c)
    # synchronized(c) { start producer; while (c.value == 0) c.wait(); }
    mb.load(c); mb.emit(Op.MONITORENTER)
    mb.emit(Op.NEW, "Producer"); mb.emit(Op.DUP)
    mb.load(c)
    mb.invoke(Op.INVOKESPECIAL, "Producer", "<init>")
    mb.invoke(Op.INVOKEVIRTUAL, "Producer", "start")
    loop = mb.label(); got = mb.label()
    mb.mark(loop)
    mb.load(c); mb.emit(Op.GETFIELD, "Cell", "value")
    mb.if_("ne", got)
    mb.load(c)
    mb.invoke(Op.INVOKEVIRTUAL, "Cell", "wait")
    mb.goto(loop)
    mb.mark(got)
    mb.load(c); mb.emit(Op.MONITOREXIT)
    mb.load(c); mb.emit(Op.GETFIELD, "Cell", "value")
    mb.retval()
    cb.finish(mb)

    jvm, thread = run_main([cell, prod.build(), cb.build()], "Main")
    assert thread.result == 42


def test_wait_without_monitor_raises():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.emit(Op.NEW, "Cell"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Cell", "<init>")
    mb.invoke(Op.INVOKEVIRTUAL, "Cell", "wait")
    mb.const(0); mb.retval()
    cb.finish(mb)
    with pytest.raises(IllegalMonitorStateError):
        run_main([_cell_class(), cb.build()], "Main")


def test_double_start_raises():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    t = mb.alloc_local()
    mb.emit(Op.NEW, "Thread"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    mb.store(t)
    mb.load(t); mb.invoke(Op.INVOKEVIRTUAL, "Thread", "start")
    mb.load(t); mb.invoke(Op.INVOKEVIRTUAL, "Thread", "start")
    mb.const(0); mb.retval()
    cb.finish(mb)
    with pytest.raises(JavaRuntimeError, match="already started"):
        run_main([cb.build()], "Main")


def test_join_on_unstarted_thread_returns():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.emit(Op.NEW, "Thread"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    mb.invoke(Op.INVOKEVIRTUAL, "Thread", "join")
    mb.const(7); mb.retval()
    cb.finish(mb)
    jvm, thread = run_main([cb.build()], "Main")
    assert thread.result == 7


def test_priority_set_get():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    t = mb.alloc_local()
    mb.emit(Op.NEW, "Thread"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    mb.store(t)
    mb.load(t); mb.const(9)
    mb.invoke(Op.INVOKEVIRTUAL, "Thread", "setPriority")
    mb.load(t)
    mb.invoke(Op.INVOKEVIRTUAL, "Thread", "getPriority")
    mb.retval()
    cb.finish(mb)
    jvm, thread = run_main([cb.build()], "Main")
    assert thread.result == 9


def test_priority_out_of_range_raises():
    cb = ClassBuilder("Main")
    mb = cb.method("main", ret="int", flags=["static"])
    mb.emit(Op.NEW, "Thread"); mb.emit(Op.DUP)
    mb.invoke(Op.INVOKESPECIAL, "Thread", "<init>")
    mb.const(11)
    mb.invoke(Op.INVOKEVIRTUAL, "Thread", "setPriority")
    mb.const(0); mb.retval()
    cb.finish(mb)
    with pytest.raises(JavaRuntimeError):
        run_main([cb.build()], "Main")


def test_many_threads_one_cpu_still_correct():
    classes = [_cell_class(), _worker_class(), _spawn_main(8, 50)]
    jvm, thread = run_main(classes, "Main", cpus=1)
    assert thread.result == 400


def test_parallel_speedup_visible_in_sim_time():
    """Two CPUs should finish two independent workers ~2x faster."""
    from conftest import make_jvm

    def run_with(cpus):
        classes = [_cell_class(), _worker_class(), _spawn_main(2, 2000)]
        engine, node, jvm = make_jvm(cpus=cpus)
        jvm.load_classes(classes)
        jvm.start_main("Main")
        engine.run_until_idle()
        jvm.check_no_failures()
        return engine.now

    t1 = run_with(1)
    t2 = run_with(2)
    assert t2 < t1 * 0.7  # heavy lock traffic, so not a clean 2x
