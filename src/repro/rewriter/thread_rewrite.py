"""Thread-creation rewriting (§4, change #1).

Bytecode that starts a thread — an ``invokevirtual`` resolving to
``Thread.start`` — is substituted with a call to the runtime handler
that ships the thread to a node chosen by the load-balancing function.
``join`` needs no call-site rewrite: the rewritten ``javasplit.Thread``
implements it as a synchronized wait on the Thread object's ``finished``
flag, which rides on the DSM like any other shared state (that is what
makes cross-node join work with zero dedicated protocol messages).
"""

from __future__ import annotations

from typing import Dict

from ..jvm.bytecode import Op
from ..jvm.classfile import ClassFile, resolve_method
from .sync_rewrite import RT_CLASS

THREAD_CLASS = "javasplit.Thread"


def rewrite_thread_starts(cf: ClassFile,
                          classfiles: Dict[str, ClassFile]) -> int:
    """Replace Thread.start call sites with the spawn handler."""
    count = 0
    for method in cf.methods.values():
        for instr in method.code:
            if instr.op is Op.INVOKEVIRTUAL and instr.b == "start":
                declaring = resolve_method(classfiles, instr.a, "start")
                if declaring.klass == THREAD_CLASS:
                    instr.op = Op.INVOKESTATIC
                    instr.a = RT_CLASS
                    instr.b = "startThread"
                    count += 1
    return count
