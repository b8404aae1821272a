"""Synchronization rewriting (§4.4).

``monitorenter``/``monitorexit`` become the DSM acquire/release handlers
(which internally take the §4.4 lock-counter fast path for local
objects), and calls that resolve to ``Object.wait`` / ``notify`` /
``notifyAll`` become static calls into the runtime handler class, whose
natives drive the owner-local wait queues of §3.2.

The compiler has already desugared ``synchronized`` methods into
explicit monitor instructions, so this pass covers both forms uniformly.
"""

from __future__ import annotations

from typing import Dict

from ..jvm.bytecode import Instr, Op
from ..jvm.classfile import ClassFile, resolve_method

RT_CLASS = "javasplit.JavaSplitRT"
OBJECT_CLASS = "javasplit.Object"

_WAIT_NOTIFY = {"wait": "rtWait", "notify": "rtNotify", "notifyAll": "rtNotifyAll"}


def rewrite_synchronization(
    cf: ClassFile, classfiles: Dict[str, ClassFile]
) -> Dict[str, int]:
    """In-place rewrite of one class; returns transformation counts.
    Call sites resolve through the ``classfiles`` table."""
    counts = {"monitors": 0, "wait_notify": 0}
    for method in cf.methods.values():
        for instr in method.code:
            if instr.op is Op.MONITORENTER:
                instr.op = Op.DSM_ACQUIRE
                counts["monitors"] += 1
            elif instr.op is Op.MONITOREXIT:
                instr.op = Op.DSM_RELEASE
                counts["monitors"] += 1
            elif instr.op is Op.INVOKEVIRTUAL and instr.b in _WAIT_NOTIFY:
                declaring = resolve_method(classfiles, instr.a, instr.b)
                if declaring.klass == OBJECT_CLASS:
                    # The receiver on the stack becomes the handler's arg.
                    instr.op = Op.INVOKESTATIC
                    instr.a = RT_CLASS
                    instr.b = _WAIT_NOTIFY[instr.b]
                    counts["wait_notify"] += 1
    return counts
