"""The mini-JVM substrate.

A stack-based, Java-flavoured virtual machine: bytecode ISA
(:mod:`~repro.jvm.bytecode`), class files (:mod:`~repro.jvm.classfile`),
a programmatic assembler (:mod:`~repro.jvm.assembler`), a steppable
interpreter (:mod:`~repro.jvm.interpreter`), bootstrap classes + natives
(:mod:`~repro.jvm.intrinsics`), a structural verifier
(:mod:`~repro.jvm.verifier`) and the JVM instance itself
(:mod:`~repro.jvm.jvm`).  Heap records and the root errors are the core
:mod:`repro.heap`, shared with the DSM engine.

Stands in for the unmodified commodity JVMs of the paper; the JavaSplit
layers above it only ever see class files and the DSM hook interface.
"""

from .assembler import ClassBuilder, Label, MethodBuilder
from .bytecode import DSM_OPS, Instr, Op
from .classfile import (
    CONSTRUCTOR,
    ClassFile,
    FieldInfo,
    MethodInfo,
    is_array_type,
    is_ref_type,
)
from .errors import (
    ArithmeticJavaError,
    ClassCastError,
    ClassFormatError,
    IllegalMonitorStateError,
    LinkError,
    NullPointerError,
)
from .frame import Frame
from .interpreter import BLOCK, NO_VALUE, Interpreter, jstr
from .intrinsics import BOOTSTRAP_CLASS_NAMES, bootstrap_classfiles
from .jvm import JThread, JVM, RuntimeClass
from .verifier import Verifier, verify_classfiles

__all__ = [
    "ClassBuilder", "Label", "MethodBuilder",
    "DSM_OPS", "Instr", "Op",
    "CONSTRUCTOR", "ClassFile", "FieldInfo", "MethodInfo",
    "is_array_type", "is_ref_type",
    "ArithmeticJavaError", "ClassCastError", "ClassFormatError",
    "IllegalMonitorStateError", "LinkError", "NullPointerError",
    "Frame",
    "BLOCK", "NO_VALUE", "Interpreter", "jstr",
    "BOOTSTRAP_CLASS_NAMES", "bootstrap_classfiles",
    "JThread", "JVM", "RuntimeClass",
    "Verifier", "verify_classfiles",
]
