"""Rewritten bootstrap classes (§4.1).

Bootstrap classes with native methods cannot be rewritten automatically,
so — exactly like the paper — we hand-write their ``javasplit.*``
versions, mostly as wrappers that route the native behaviour through the
distributed runtime:

* ``javasplit.Object`` — wait/notify declarations (call sites are
  redirected to the runtime handler class by the sync pass).
* ``javasplit.Thread`` — ``start`` checks-and-sets the ``started`` flag
  under the DSM lock and calls the spawn handler; ``join`` is a
  synchronized wait on the ``finished`` flag (pure DSM, no dedicated
  protocol); ``__runWrapper`` runs the user ``run()`` and then raises
  ``finished`` under the lock.  All heap accesses here carry hand-placed
  access checks, marked ``checked`` so the automatic pass skips them.
* ``javasplit.Sys`` — console output is low-level I/O (§4's change #4):
  the wrapper forwards lines to the master node's console.
* ``javasplit.Math`` / ``javasplit.String`` / ``javasplit.Serve`` — pure
  functions (or master-side state only), aliased: the twin's native
  declarations are derived from the original class file.
* ``javasplit.JavaSplitRT`` — the runtime handler class the rewriter
  targets (read/write misses are fused instructions, so only sync,
  spawn and I/O handlers appear as methods).
"""

from __future__ import annotations

from typing import List

from ..jvm.assembler import ClassBuilder
from ..jvm.bytecode import Instr, Op
from ..jvm.classfile import ClassFile
from ..jvm.errors import JavaRuntimeError
from ..jvm.interpreter import BLOCK, NO_VALUE, jstr
from ..jvm.intrinsics import bootstrap_classfiles
from .naming import rename_class

RT = "javasplit.JavaSplitRT"
JS_OBJECT = "javasplit.Object"
JS_THREAD = "javasplit.Thread"


def _checked(op: Op, a, b=None) -> Instr:
    instr = Instr(op, a, b)
    instr.checked = True
    return instr


def build_runtime_classes() -> List[ClassFile]:
    """The hand-written javasplit bootstrap class files."""
    # javasplit.JavaSplitRT -------------------------------------------------
    rt = ClassBuilder(RT, super_name=JS_OBJECT, is_bootstrap=True)
    rt.native_method("rtWait", params=[JS_OBJECT], static=True)
    rt.native_method("rtNotify", params=[JS_OBJECT], static=True)
    rt.native_method("rtNotifyAll", params=[JS_OBJECT], static=True)
    rt.native_method("startThread", params=[JS_THREAD], static=True)
    rt.native_method("setLivePriority", params=[JS_THREAD, "int"], static=True)
    rt.native_method("error", params=["str"], static=True)

    # javasplit.Thread ------------------------------------------------------
    th = ClassBuilder(JS_THREAD, super_name=JS_OBJECT, is_bootstrap=True)
    th.field("priority", "int", init=5)
    th.field("started", "int")
    th.field("finished", "int")

    init = th.method("<init>")
    init.load(0)
    init.invoke(Op.INVOKESPECIAL, JS_OBJECT, "<init>")
    init.ret()
    th.finish(init)

    run = th.method("run")  # default run() does nothing
    run.ret()
    th.finish(run)

    # start(): delegate to the spawn handler.  Call sites are rewritten
    # straight to RT.startThread anyway (§4 change #1); the handler owns
    # the double-start check on the ``started`` flag.
    start = th.method("start")
    start.load(0)
    start.invoke(Op.INVOKESTATIC, RT, "startThread")
    start.ret()
    th.finish(start)

    # join(): synchronized { while (finished == 0) wait(this); }
    join = th.method("join")
    join.load(0)
    join.emit(Op.DSM_ACQUIRE)
    loop = join.label("loop")
    done = join.label("done")
    join.mark(loop)
    join.load(0)
    join.emit(Op.DSM_READCHECK, 0)
    join._code.append(_checked(Op.GETFIELD, JS_THREAD, "finished"))
    join.if_("ne", done)
    join.load(0)
    join.invoke(Op.INVOKESTATIC, RT, "rtWait")
    join.goto(loop)
    join.mark(done)
    join.load(0)
    join.emit(Op.DSM_RELEASE)
    join.ret()
    th.finish(join)

    setp = th.method("setPriority", params=["int"])
    setp.load(0)
    setp.load(1)
    setp.emit(Op.DSM_WRITECHECK, 1)
    setp._code.append(_checked(Op.PUTFIELD, JS_THREAD, "priority"))
    setp.load(0)
    setp.load(1)
    setp.invoke(Op.INVOKESTATIC, RT, "setLivePriority")
    setp.ret()
    th.finish(setp)

    getp = th.method("getPriority", ret="int")
    getp.load(0)
    getp.emit(Op.DSM_READCHECK, 0)
    getp._code.append(_checked(Op.GETFIELD, JS_THREAD, "priority"))
    getp.retval()
    th.finish(getp)

    # __runWrapper(): user run(), then synchronized { finished=1; notifyAll }
    wrap = th.method("__runWrapper")
    wrap.load(0)
    wrap.invoke(Op.INVOKEVIRTUAL, JS_THREAD, "run")
    wrap.load(0)
    wrap.emit(Op.DSM_ACQUIRE)
    wrap.load(0)
    wrap.const(1)
    wrap.emit(Op.DSM_WRITECHECK, 1)
    wrap._code.append(_checked(Op.PUTFIELD, JS_THREAD, "finished"))
    wrap.load(0)
    wrap.invoke(Op.INVOKESTATIC, RT, "rtNotifyAll")
    wrap.load(0)
    wrap.emit(Op.DSM_RELEASE)
    wrap.ret()
    th.finish(wrap)

    # javasplit.Object / Math / Sys / String / Serve declare what the
    # originals declare — same methods, same order, so class ids stay in
    # step (Serve is last in both lists: older ids never moved).  Which
    # natives route through the DSM is register_rewritten_natives' job.
    originals = {cf.name: cf for cf in bootstrap_classfiles()}
    twins = [rename_class(originals[name])
             for name in ("Object", "Math", "Sys", "String", "Serve")]
    classes = [twins[0], rt.build(), th.build(), *twins[1:]]
    for cf in classes:
        cf.instrumented = True  # DSM ops allowed (Thread uses them)
    return classes


# ---------------------------------------------------------------------------
# Native implementations routed through the DSM engine (jvm.hooks)
# ---------------------------------------------------------------------------

def _nat_rt_wait(jvm, thread, args):
    jvm.hooks.dsm_wait(thread, args[0])
    return BLOCK


def _nat_rt_notify(jvm, thread, args):
    jvm.hooks.dsm_notify(thread, args[0], all_=False)
    return NO_VALUE


def _nat_rt_notify_all(jvm, thread, args):
    jvm.hooks.dsm_notify(thread, args[0], all_=True)
    return NO_VALUE


def _nat_start_thread(jvm, thread, args):
    tobj = args[0]
    # Best-effort priority read: the starter is almost always the creator
    # (home), so the field is locally readable; a stale replica only
    # degrades the scheduling hint, never correctness.
    try:
        prio = tobj.fields[jvm.field_index(JS_THREAD, "priority")]
    except Exception:  # pragma: no cover - defensive
        prio = 5
    jvm.hooks.spawn(thread, tobj, prio)
    return NO_VALUE


def _nat_set_live_priority(jvm, thread, args):
    tobj, prio = args
    if not 1 <= prio <= 10:
        raise JavaRuntimeError(f"priority {prio} out of range")
    live = jvm.live_jthreads.get(id(tobj))
    if live is not None:
        live.priority = prio
    return NO_VALUE


def _nat_error(jvm, thread, args):
    raise JavaRuntimeError(args[0])


def _nat_js_print(jvm, thread, args):
    jvm.hooks.print_line(jstr(args[0]))
    return NO_VALUE


def register_rewritten_natives(jvm) -> None:
    """Install natives for the javasplit bootstrap classes on one JVM.

    Must run after the standard natives (JVM construction) — the pure
    Math/String/Sys-clock natives are aliased from their originals."""
    reg = jvm.register_native
    reg(RT, "rtWait", _nat_rt_wait)
    reg(RT, "rtNotify", _nat_rt_notify)
    reg(RT, "rtNotifyAll", _nat_rt_notify_all)
    reg(RT, "startThread", _nat_start_thread)
    reg(RT, "setLivePriority", _nat_set_live_priority)
    reg(RT, "error", _nat_error)

    for (owner, name), fn in list(jvm._natives.items()):
        if owner in ("Math", "Sys", "String", "Serve"):
            reg("javasplit." + owner, name, fn)
    reg("javasplit.Sys", "print", _nat_js_print)
    reg("javasplit.Sys", "println", _nat_js_print)
    # Defensive: direct virtual wait/notify should never survive the
    # rewrite, but route them to the DSM if they somehow do.
    reg(JS_OBJECT, "wait", _nat_rt_wait)
    reg(JS_OBJECT, "notify", _nat_rt_notify)
    reg(JS_OBJECT, "notifyAll", _nat_rt_notify_all)
