"""Bootstrap classes and their native-method implementations.

The mini-JVM's analogue of the JDK bootstrap classes the paper discusses
in §4.1: ``Object`` (wait/notify), ``Thread``, ``Math``, ``Sys`` (console
and clock — the low-level I/O the rewriter cannot transform) and
``String``.  Native methods are Python functions registered per
``(class, method)``; the distributed runtime supplies *rewritten*
versions of these classes whose natives route through the DSM (see
:mod:`repro.rewriter.bootstrap`), exactly as the paper hand-wraps native
bootstrap classes.  ``Math`` registers none: each of its methods is a
row of :data:`~repro.jvm.bytecode.MATH` that both tiers run in place
of the call.

A native returns a value, ``NO_VALUE`` (void), or ``BLOCK`` if it parked
the calling thread after arranging its own completion.
"""

from __future__ import annotations

from typing import List

from ..heap import JavaRuntimeError, monitor_of
from .assembler import ClassBuilder
from .bytecode import MATH, Op
from .classfile import ClassFile
from .errors import IllegalMonitorStateError
from .interpreter import BLOCK, NO_VALUE, jstr

# ---------------------------------------------------------------------------
# Bootstrap class files
# ---------------------------------------------------------------------------

def bootstrap_classfiles() -> List[ClassFile]:
    """Class files for the bootstrap library (shared, immutable)."""
    # Object --------------------------------------------------------------
    obj = ClassBuilder("Object", super_name=None, is_bootstrap=True)
    obj.classfile.super_name = None
    obj.native_method("wait")
    obj.native_method("notify")
    obj.native_method("notifyAll")
    # <init> is a no-op so `super()` chains terminate.
    init = obj.method("<init>")
    init.ret()
    obj.finish(init)

    # Thread --------------------------------------------------------------
    th = ClassBuilder("Thread", is_bootstrap=True)
    th.field("priority", "int", init=5)
    th.field("started", "int")
    th.field("finished", "int")
    th.native_method("start")
    th.native_method("join")
    th.native_method("setPriority", params=["int"])
    th.native_method("getPriority", ret="int")
    init = th.method("<init>")
    init.load(0)
    init.invoke(Op.INVOKESPECIAL, "Object", "<init>")
    init.ret()
    th.finish(init)
    run = th.method("run")  # default run() does nothing
    run.ret()
    th.finish(run)

    # Math: declared from its rows, which both tiers run in place of a call.
    m = ClassBuilder("Math", is_bootstrap=True)
    for name, native in MATH.items():
        m.native_method(name, params=[native.kind] * native.arity,
                        ret=native.kind, static=True)

    # Sys -----------------------------------------------------------------
    s = ClassBuilder("Sys", is_bootstrap=True)
    s.native_method("print", params=["str"], static=True)
    s.native_method("println", params=["str"], static=True)
    s.native_method("currentTimeMillis", ret="int", static=True)
    s.native_method("nanoTime", ret="int", static=True)

    # String --------------------------------------------------------------
    st = ClassBuilder("String", is_bootstrap=True)
    st.native_method("length", ret="int")
    st.native_method("charAt", params=["int"], ret="int")
    st.native_method("substring", params=["int", "int"], ret="str")
    st.native_method("equalsStr", params=["str"], ret="int")
    st.native_method("indexOf", params=["str"], ret="int")

    # Serve ----------------------------------------------------------------
    # Request ingestion for serving workloads (src/repro/serve): the
    # open-loop load generator injects arrivals as simulation events and
    # hands them to the program through these natives.  ``next`` blocks
    # the calling thread until the next arrival for the tenant is due
    # (or returns -1 when the schedule is exhausted); ``done`` reports a
    # request completed so the runtime can record its latency.  Appended
    # after the original bootstrap classes so existing class ids are
    # unchanged.
    sv = ClassBuilder("Serve", is_bootstrap=True)
    sv.native_method("next", params=["int"], ret="int", static=True)
    sv.native_method("done", params=["int", "int"], static=True)

    return [obj.build(), th.build(), m.build(), s.build(), st.build(),
            sv.build()]


BOOTSTRAP_CLASS_NAMES = frozenset(
    {"Object", "Thread", "Math", "Sys", "String", "Serve"}
)


# ---------------------------------------------------------------------------
# Native implementations (un-instrumented / single-JVM semantics)
# ---------------------------------------------------------------------------

def _nat_wait(jvm, thread, args):
    receiver = args[0]
    mon = monitor_of(receiver)
    if mon.owner is not thread:
        raise IllegalMonitorStateError("wait() by non-owner")
    saved = mon.count
    mon.owner = None
    mon.count = 0
    mon.wait_set.append((thread, saved))
    jvm.interpreter.grant_next(mon)
    return BLOCK


def _nat_notify(jvm, thread, args):
    mon = monitor_of(args[0])
    if mon.owner is not thread:
        raise IllegalMonitorStateError("notify() by non-owner")
    if mon.wait_set:
        mon.entry_queue.append(mon.wait_set.popleft())
    return NO_VALUE


def _nat_notify_all(jvm, thread, args):
    mon = monitor_of(args[0])
    if mon.owner is not thread:
        raise IllegalMonitorStateError("notifyAll() by non-owner")
    while mon.wait_set:
        mon.entry_queue.append(mon.wait_set.popleft())
    return NO_VALUE


def _thread_field(jvm, obj, name):
    return obj.fields[jvm.field_index("Thread", name)]


def _set_thread_field(jvm, obj, name, value):
    obj.fields[jvm.field_index("Thread", name)] = value


def _nat_thread_start(jvm, thread, args):
    tobj = args[0]
    if _thread_field(jvm, tobj, "started"):
        raise JavaRuntimeError("thread already started")
    _set_thread_field(jvm, tobj, "started", 1)
    jvm.start_thread_obj(tobj, priority=_thread_field(jvm, tobj, "priority"))
    return NO_VALUE


def _nat_thread_join(jvm, thread, args):
    tobj = args[0]
    target = jvm.live_jthreads.get(id(tobj))
    if target is None:
        return NO_VALUE  # finished (or never started): join returns at once
    target.joiners.append(thread)
    return BLOCK


def _nat_set_priority(jvm, thread, args):
    tobj, prio = args
    if not 1 <= prio <= 10:
        raise JavaRuntimeError(f"priority {prio} out of range")
    _set_thread_field(jvm, tobj, "priority", prio)
    live = jvm.live_jthreads.get(id(tobj))
    if live is not None:
        live.priority = prio
    return NO_VALUE


def _nat_get_priority(jvm, thread, args):
    return _thread_field(jvm, args[0], "priority")


def _nat_print(jvm, thread, args):
    jvm.println(jstr(args[0]))
    return NO_VALUE


def _nat_time_millis(jvm, thread, args):
    return jvm.node.engine.now // 1_000_000


def _nat_nano_time(jvm, thread, args):
    return jvm.node.engine.now


def _serve_feed(jvm):
    feed = getattr(jvm, "serve_feed", None)
    if feed is None:
        raise JavaRuntimeError(
            "Serve.* natives need an attached load feed "
            "(see repro.serve.manager.ServeManager)")
    return feed


def _nat_serve_next(jvm, thread, args):
    # Returns the encoded request (or -1 when exhausted), or BLOCK after
    # the feed arranged thread.complete() at the next arrival's sim time.
    return _serve_feed(jvm).next(thread, args[0])


def _nat_serve_done(jvm, thread, args):
    _serve_feed(jvm).done(thread, args[0], args[1])
    return NO_VALUE


def register_standard_natives(jvm) -> None:
    """Install the bootstrap natives into a JVM instance."""
    reg = jvm.register_native
    reg("Object", "wait", _nat_wait)
    reg("Object", "notify", _nat_notify)
    reg("Object", "notifyAll", _nat_notify_all)

    reg("Thread", "start", _nat_thread_start)
    reg("Thread", "join", _nat_thread_join)
    reg("Thread", "setPriority", _nat_set_priority)
    reg("Thread", "getPriority", _nat_get_priority)

    reg("Sys", "print", _nat_print)
    reg("Sys", "println", _nat_print)
    reg("Sys", "currentTimeMillis", _nat_time_millis)
    reg("Sys", "nanoTime", _nat_nano_time)

    reg("Serve", "next", _nat_serve_next)
    reg("Serve", "done", _nat_serve_done)

    reg("String", "length", lambda j, t, a: len(a[0]))
    reg("String", "charAt", lambda j, t, a: ord(a[0][a[1]]))
    reg("String", "substring", lambda j, t, a: a[0][a[1]:a[2]])
    reg("String", "equalsStr", lambda j, t, a: 1 if a[0] == a[1] else 0)
    reg("String", "indexOf", lambda j, t, a: a[0].find(a[1]))
