"""Error hierarchy for the mini-JVM.

``JavaRuntimeError`` subclasses model the runtime exceptions a real JVM
would throw (NPE, bounds, arithmetic...).  They abort the offending
simulated thread; the benchmark programs in this repo are written not to
trigger them, so surfacing them as Python exceptions keeps failures loud
in tests instead of silently corrupting results.

The root and the two errors a heap record raises (bad index, negative
length) live in the core :mod:`repro.heap`, shared with the DSM engine.
"""

from __future__ import annotations

from ..heap import JavaRuntimeError, JVMError


class ClassFormatError(JVMError):
    """A class file is structurally invalid (verifier / linker)."""


class LinkError(JVMError):
    """Unresolvable class, field or method reference."""


class NullPointerError(JavaRuntimeError):
    """Heap access through a null reference."""
    java_name = "java.lang.NullPointerException"


class ArithmeticJavaError(JavaRuntimeError):
    """Integer division or remainder by zero."""
    java_name = "java.lang.ArithmeticException"


class ClassCastError(JavaRuntimeError):
    """checkcast to an incompatible class."""
    java_name = "java.lang.ClassCastException"


class IllegalMonitorStateError(JavaRuntimeError):
    """Monitor operation by a thread that does not own it."""
    java_name = "java.lang.IllegalMonitorStateException"
