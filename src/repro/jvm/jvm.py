"""The JVM instance: class linking, heap allocation, thread management.

One :class:`JVM` runs per simulated node.  It links shared
:class:`ClassFile` data into per-JVM :class:`RuntimeClass` objects (field
layouts, vtables, statics), allocates heap objects, registers native
methods, and adapts application threads (:class:`JThread`) to the node
scheduler's :class:`~repro.sim.node.ExecStream` interface.

``hooks`` is the DSM integration point: ``None`` for plain local
execution; the distributed runtime installs an object implementing the
hook methods used by the DSM pseudo-instructions (see
:mod:`repro.jvm.interpreter`).  In the other direction the JVM is the
engine's *host*: ``engine``, ``cost_model``, ``lookup`` and
``start_thread_obj`` are all the engine asks of it (DESIGN.md §3).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..heap import ArrayObj, JVMError, Obj
from ..sim.cost_model import CostModel
from ..sim.node import Node, StreamState
from .classfile import CONSTRUCTOR, ClassFile, FieldInfo, MethodInfo, is_array_type
from .errors import ClassFormatError, LinkError
from .frame import Frame
from .interpreter import NO_VALUE, Interpreter


class RuntimeClass:
    """A linked class: resolved superclass chain, field layout, vtable."""

    def __init__(self, jvm: "JVM", classfile: ClassFile, superclass: Optional["RuntimeClass"]) -> None:
        self.jvm = jvm
        self.classfile = classfile
        self.name = classfile.name
        self.superclass = superclass
        # Instance field layout: superclass fields first, then own.
        if superclass is not None:
            self.field_layout: Dict[str, int] = dict(superclass.field_layout)
            self.field_defaults: List[Tuple[str, Any]] = list(superclass.field_defaults)
            self.field_specs: List[FieldInfo] = list(superclass.field_specs)
            self.vtable: Dict[str, MethodInfo] = dict(superclass.vtable)
        else:
            self.field_layout = {}
            self.field_defaults = []
            self.field_specs = []
            self.vtable = {}
        for f in classfile.instance_fields():
            if f.name in self.field_layout:
                raise LinkError(
                    f"field {classfile.name}.{f.name} shadows an inherited field"
                )
            self.field_layout[f.name] = len(self.field_defaults)
            self.field_defaults.append((f.type, f.init))
            self.field_specs.append(f)
        for m in classfile.methods.values():
            self.vtable[m.name] = m
        # Statics (un-instrumented execution; the rewriter moves statics
        # of instrumented classes into C_static holder objects).
        self.statics: Dict[str, Any] = {
            f.name: f.initial_value() for f in classfile.static_fields()
        }
        self._ancestors = {self.name}
        if superclass is not None:
            self._ancestors |= superclass._ancestors

    def is_subtype_of(self, class_name: str) -> bool:
        return class_name in self._ancestors

    def method(self, name: str) -> MethodInfo:
        try:
            return self.vtable[name]
        except KeyError:
            raise LinkError(f"no method {self.name}.{name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuntimeClass({self.name})"


class JThread:
    """One application thread, adapted to the node scheduler."""

    _ids = itertools.count(1)

    def __init__(
        self,
        jvm: "JVM",
        entry: Frame,
        thread_obj: Optional[Obj] = None,
        priority: int = 5,
        name: str = "",
    ) -> None:
        self.jvm = jvm
        self.tid = next(JThread._ids)
        self.name = name or f"thread-{self.tid}"
        self.frames: List[Frame] = [entry]
        self.state = StreamState.RUNNABLE
        self.thread_obj = thread_obj
        self.priority = priority
        self.block_reason = ""
        self.instructions = 0
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.joiners: List["JThread"] = []
        self.started_at = jvm.node.engine.now
        self.finished_at: Optional[int] = None

    # ------------------------------------------------------------------
    # ExecStream interface
    # ------------------------------------------------------------------
    def run_quantum(self, budget_ns: int) -> tuple[int, StreamState]:
        """ExecStream adapter: interpret until the budget is spent."""
        jit = self.jvm.jit
        if jit is not None:
            return jit.quantum(self, budget_ns)
        return self.jvm.interpreter.run(self, budget_ns), self.state

    # ------------------------------------------------------------------
    # Blocking protocol (see interpreter docstring)
    # ------------------------------------------------------------------
    def block(self, reexec: bool, reason: str = "") -> None:
        if self.state is not StreamState.RUNNABLE:
            raise JVMError(f"block() on non-runnable thread {self.name}")
        self.state = StreamState.BLOCKED
        self.block_reason = reason
        self._reexec = reexec

    def wake(self) -> None:
        """Resume a re-execute-style blocked thread."""
        if self.state is not StreamState.BLOCKED:
            raise JVMError(f"wake() on non-blocked thread {self.name}")
        if not self._reexec:
            raise JVMError("wake() on a complete-style block; use complete()")
        self.state = StreamState.RUNNABLE
        self.block_reason = ""
        self.jvm.node.wake(self)

    def complete(self, value: Any = NO_VALUE) -> None:
        """Finish a complete-style blocked instruction on the thread's
        behalf: push the result (if any), advance the pc, reschedule."""
        if self.state is not StreamState.BLOCKED:
            raise JVMError(f"complete() on non-blocked thread {self.name}")
        if self._reexec:
            raise JVMError("complete() on a re-exec-style block; use wake()")
        frame = self.frames[-1]
        if value is not NO_VALUE:
            frame.stack.append(value)
        frame.pc += 1
        self.state = StreamState.RUNNABLE
        self.block_reason = ""
        self.jvm.node.wake(self)

    # ------------------------------------------------------------------
    def finish(self, result: Any) -> None:
        """Normal thread completion; notifies joiners."""
        self.state = StreamState.FINISHED
        self.result = result
        self.finished_at = self.jvm.node.engine.now
        self.jvm.thread_finished(self)

    def fail(self, exc: BaseException, where: str) -> None:
        """Thread death by runtime error; recorded for check_no_failures."""
        self.state = StreamState.FINISHED
        self.error = exc
        exc.args = (f"{exc.args[0] if exc.args else ''} at {where} "
                    f"[{self.name}]",)
        self.jvm.thread_finished(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JThread({self.name}, {self.state.value})"


NativeFn = Callable[["JVM", JThread, List[Any]], Any]


class JVM:
    """One virtual machine instance bound to a simulated node."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.engine = node.engine
        self.cost_model: CostModel = node.cost_model
        self.classes: Dict[str, RuntimeClass] = {}
        self._classfiles: Dict[str, ClassFile] = {}
        self._natives: Dict[Tuple[str, str], NativeFn] = {}
        self.interpreter = Interpreter(self)
        self.output: List[str] = []
        self.threads: List[JThread] = []
        self.live_jthreads: Dict[int, JThread] = {}  # id(thread_obj) -> JThread
        self.hooks: Any = None
        # Tiered-JIT agent (repro.jit), installed per worker when the
        # jit_enable knob is on; None keeps tier-0 dispatch untouched.
        self.jit: Any = None
        # Bootstrap class names; the distributed runtime points these at
        # the rewritten ("js."-prefixed) versions.
        self.object_class = "Object"
        self.string_class = "String"
        from .intrinsics import register_standard_natives  # late: avoids cycle
        register_standard_natives(self)

    # ------------------------------------------------------------------
    # Class loading / linking
    # ------------------------------------------------------------------
    def load_class(self, classfile: ClassFile) -> RuntimeClass:
        """Link one class; its superclass must already be loaded (or be
        loadable from the same batch via :meth:`load_classes`)."""
        if classfile.name in self.classes:
            raise LinkError(f"class {classfile.name} already loaded")
        superclass = None
        if classfile.super_name is not None:
            superclass = self.classes.get(classfile.super_name)
            if superclass is None:
                raise LinkError(
                    f"superclass {classfile.super_name} of {classfile.name} "
                    f"not loaded"
                )
        rtc = RuntimeClass(self, classfile, superclass)
        self.classes[classfile.name] = rtc
        self._classfiles[classfile.name] = classfile
        return rtc

    def load_classes(self, classfiles: List[ClassFile]) -> None:
        """Link a batch, resolving superclass order automatically."""
        pending = {cf.name: cf for cf in classfiles}
        progress = True
        while pending and progress:
            progress = False
            for name in list(pending):
                cf = pending[name]
                if cf.super_name is None or cf.super_name in self.classes:
                    self.load_class(pending.pop(name))
                    progress = True
        if pending:
            missing = {
                cf.super_name for cf in pending.values()
                if cf.super_name not in pending
            }
            raise LinkError(
                f"could not link {sorted(pending)}; missing/circular "
                f"superclasses: {sorted(missing)}"
            )

    def lookup(self, class_name: str) -> RuntimeClass:
        """The linked RuntimeClass for a name."""
        try:
            return self.classes[class_name]
        except KeyError:
            raise LinkError(f"class {class_name} not loaded") from None

    def field_index(self, class_name: str, field_name: str) -> int:
        """Layout slot of a field (resolved through the hierarchy)."""
        rtc = self.lookup(class_name)
        try:
            return rtc.field_layout[field_name]
        except KeyError:
            raise LinkError(f"no field {class_name}.{field_name}") from None

    def resolve_method(self, class_name: str, method_name: str) -> MethodInfo:
        """MethodInfo for class.name (vtable resolution)."""
        return self.lookup(class_name).method(method_name)

    # ------------------------------------------------------------------
    # Natives
    # ------------------------------------------------------------------
    def register_native(self, class_name: str, method_name: str, fn: NativeFn) -> None:
        """Install a native implementation for (class, method)."""
        self._natives[(class_name, method_name)] = fn

    def native(self, class_name: str, method_name: str) -> NativeFn:
        """Look up a registered native implementation."""
        try:
            return self._natives[(class_name, method_name)]
        except KeyError:
            raise LinkError(
                f"no native implementation for {class_name}.{method_name}"
            ) from None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def new_instance(self, class_name: str) -> Obj:
        """Allocate an instance (fields defaulted; ctor not called)."""
        obj = Obj(self.lookup(class_name))
        if self.hooks is not None:
            self.hooks.on_new(obj)
        return obj

    def new_array(self, elem_type: str, length: int) -> ArrayObj:
        """Allocate an array of the element type's default values."""
        arr = ArrayObj(elem_type, length)
        if self.hooks is not None:
            self.hooks.on_new(arr)
        return arr

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def start_main(self, class_name: str, args: Optional[List[Any]] = None) -> JThread:
        """Start the application's static ``main`` method."""
        method = self.resolve_method(class_name, "main")
        if not method.is_static:
            raise JVMError(f"{class_name}.main must be static")
        thread = JThread(self, Frame(method, list(args or [])), name="main")
        self._register_thread(thread)
        return thread

    def start_thread_obj(
        self,
        thread_obj: Obj,
        method: str = "run",
        priority: int = 5,
        name: str = "",
        before_start: Optional[Callable[[JThread], None]] = None,
    ) -> JThread:
        """Start a Thread object here: a thread running its ``method``.
        ``before_start`` sees the thread before it is registered (the
        DSM engine's ``thread_begin`` hook on a spawn arrival)."""
        thread = JThread(
            self,
            Frame(thread_obj.rtclass.method(method), [thread_obj]),
            thread_obj=thread_obj,
            priority=priority,
            name=name or f"{thread_obj.rtclass.name}-{id(thread_obj) & 0xFFFF:x}",
        )
        self.live_jthreads[id(thread_obj)] = thread
        if before_start is not None:
            before_start(thread)
        self._register_thread(thread)
        return thread

    def _register_thread(self, thread: JThread) -> None:
        self.threads.append(thread)
        if self.hooks is not None:
            self.hooks.on_thread_started(thread)
        self.node.add_stream(thread)

    def thread_finished(self, thread: JThread) -> None:
        """Called when a thread's last frame returns (or it fails)."""
        if thread.thread_obj is not None:
            self.live_jthreads.pop(id(thread.thread_obj), None)
        for joiner in thread.joiners:
            joiner.complete(NO_VALUE)
        thread.joiners.clear()
        if self.hooks is not None:
            self.hooks.on_thread_finished(thread)

    # ------------------------------------------------------------------
    def println(self, text: str) -> None:
        """Append a line to this JVM's console output."""
        self.output.append(text)

    def check_no_failures(self) -> None:
        """Raise the first recorded thread error, if any (test helper)."""
        for t in self.threads:
            if t.error is not None:
                raise t.error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JVM(node={self.node.node_id}, brand={self.cost_model.brand}, "
            f"classes={len(self.classes)}, threads={len(self.threads)})"
        )
