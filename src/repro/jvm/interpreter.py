"""The bytecode interpreter: decode once, dispatch once per run.

One :class:`Interpreter` per JVM instance.  A method is *decoded* the
first time this JVM executes it: every instruction becomes one bound
handler ``h(thread, frame) -> cost_ns`` — a closure holding the
operands, the brand-resolved simulated cost, the branch comparator and
the DSM hook method.  It is then *fused*: the first pc of every
straight-line run of pure opcodes (:mod:`repro.jvm.fuse`) gets one
handler that does the whole run, bills its summed cost and counts its
instructions, and :meth:`Interpreter.run` is the loop that calls
``fused[pc]`` until a quantum's budget is spent.  Both lists are cached
per interpreter: methods are shared by every worker JVM of a cluster,
costs (brands) and link state (field slots, call targets) are per JVM —
only the fused runs' compiled *text* hangs off the ``MethodInfo``.  Link
state is resolved at a handler's first run, so a reference that cannot
link fails at the offending instruction and not when its method is
decoded.

Fusing is exact.  The budget is tested before every instruction, so a
fused handler runs only where each test inside it would have passed
(``consumed + margin < budget_ns``; ``margin`` is the most any run bills
before its last instruction); the quantum's tail, ``step`` and a resume
inside a run need the per-instruction list.  A row that can raise stores
``frame.pc`` first: error text, position and instruction count are kept.

What an instruction *does* is not written here when it can be said
once for both tiers: the pure opcodes are the rows of
:data:`~repro.jvm.bytecode.SEMANTICS`, and each row's handler factory
is compiled from its text at import (:func:`_pure_factory`).  The arms
of :func:`_decode_instr` are what is left — the four race-observed heap
accesses (lazy link), invokes and returns, monitors and DSM hooks.

The interpreter is *steppable*: :meth:`Interpreter.step` calls exactly
one handler of a thread's top frame and returns its simulated cost in
nanoseconds, so the node scheduler can timeshare threads over simulated
CPUs and the DSM can block threads mid-access.

Blocking discipline (see DESIGN.md):

* **re-execute** style — instructions that only *peeked* at the stack
  (DSM access checks, DSM_STATICREF) leave the pc untouched when they
  block; when the protocol wakes the thread the instruction re-executes
  and now passes.  This mirrors the paper's Figure 3, where the read-miss
  handler returns into the access check.
* **complete** style — instructions that already consumed operands
  (MONITORENTER, DSM_ACQUIRE, blocking native calls) block with the pc
  still pointing at them; the waker calls :meth:`JThread.complete`,
  which pushes an optional result and advances the pc.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import cost_model as cm
from ..sim.node import StreamState
from .bytecode import (
    CONDITIONS,
    SEMANTICS,
    STACK_EFFECT,
    Instr,
    Op,
    branch_row,
    cost_tables,
    instantiate,
    instr_cost,
)
from .classfile import MethodInfo
from .errors import (
    ArithmeticJavaError,
    ClassCastError,
    IllegalMonitorStateError,
    JVMError,
    NullPointerError,
)
from .frame import Frame
from .fuse import fused_source
from .heap import ArrayObj, Obj, monitor_of

# Sentinel returned by native methods that produce no value (void).
NO_VALUE = object()
# Sentinel returned by native methods that blocked the thread themselves.
BLOCK = object()

_RUNNABLE = StreamState.RUNNABLE


#: Ints are arbitrary-precision (README Limitations), doubles are not.
TOO_BIG = "(double) of an int beyond the double range"


def java_idiv(a: int, b: int) -> int:
    """Java integer division: truncates toward zero."""
    if b == 0:
        raise ArithmeticJavaError("/ by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_irem(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticJavaError("% by zero")
    return a - java_idiv(a, b) * b


def java_ddiv(a: float, b: float) -> float:
    """Java double division: never traps; yields inf/nan."""
    if b == 0.0:
        if a == 0.0:
            return math.nan
        return math.inf if (a > 0) == (b >= 0 and not math.copysign(1, b) < 0) else -math.inf
    try:
        return a / b
    except OverflowError:  # a mixed operand is an int past the double range
        raise ArithmeticJavaError(TOO_BIG) from None


def java_drem(a: float, b: float) -> float:
    """Java double remainder: never traps.  A zero divisor or an
    infinite dividend yields NaN, an infinite divisor the dividend."""
    try:
        if b == 0 or math.isinf(a):
            return math.nan
        return math.fmod(a, b)
    except OverflowError:
        raise ArithmeticJavaError(TOO_BIG) from None


def java_d2i(v: float) -> int:
    """Java ``(int)`` of a double: truncates toward zero, NaN gives 0.

    Ints here are arbitrary-precision (README Limitations), so there is
    no ``MAX_VALUE`` for an infinity to saturate to: it raises.
    """
    try:
        return int(v)
    except ValueError:  # NaN
        return 0
    except OverflowError:
        raise ArithmeticJavaError("(int) of infinite double") from None


def java_shift(count: int) -> int:
    """A validated shift count.  Java masks the count to the operand
    width; arbitrary-precision ints have no width, so a negative count
    raises instead of leaking Python's ``ValueError``."""
    if count < 0:
        raise ArithmeticJavaError("negative shift count")
    return count


def jstr(value: Any) -> str:
    """Stringify a value the way Java's string concatenation would."""
    if value is None:
        return "null"
    if isinstance(value, bool):  # pragma: no cover - booleans are ints
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if value == math.floor(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, (Obj, ArrayObj)):
        return f"{value.class_name}@{id(value) & 0xFFFFFF:x}"
    return str(value)


#: One decoded instruction: executes it on ``frame`` (top of ``thread``),
#: leaves ``frame.pc`` where execution continues and returns the
#: simulated nanoseconds to bill.
Handler = Callable[[Any, Frame], int]


class Interpreter:
    """Executes bytecode for one JVM instance."""

    # Tiered-JIT agent (repro.jit); set per instance when the jit is
    # enabled so _invoke can bump the callee's invocation counter.
    # Class-level None keeps the disabled path a single attribute test.
    jit = None

    def __init__(self, jvm: "JVM") -> None:  # noqa: F821 - circular typing
        self.jvm = jvm
        self.cost_tables = cost_tables(jvm.cost_model)
        self._native_cost = jvm.cost_model[cm.NATIVE]
        #: This JVM's share of what a ``SEMANTICS`` row may name.
        self.bound = dict(zip(BOUND, (jvm.new_instance, jvm.new_array,
                                      jvm.classes, self._is_instance)))
        # id(method) -> (method, handlers); the entry pins the method so
        # its id stays unique for the life of the cache.
        self._decoded: Dict[int, Tuple[MethodInfo, List[Handler]]] = {}
        self._fused: Dict[int, List[Handler]] = {}  # id(method) -> fuse()
        #: The most any fused run here bills before its last instruction.
        self.margin = 0
        self._race_hook: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    @property
    def race_hook(self) -> Optional[Callable[..., None]]:
        """Race-detector access observer (repro.race), or None:
        ``(thread, ref, slot, is_write, frame, instr)``.  Handlers bind
        it at decode — an access costs nothing while no detector is
        installed — so it must be set before this JVM first executes."""
        return self._race_hook

    @race_hook.setter
    def race_hook(self, hook: Optional[Callable[..., None]]) -> None:
        if self._decoded:
            raise JVMError(
                "race_hook set after this JVM decoded its first method")
        self._race_hook = hook

    # ------------------------------------------------------------------
    def decode(self, method: MethodInfo) -> List[Handler]:
        """``method`` as this JVM's handler list, translated on first
        use; one extra handler past the end reports a fall-off."""
        entry = self._decoded.get(id(method))
        if entry is None:
            tables = self.cost_tables
            handlers = [
                _decode_instr(self, instr, pc, instr_cost(instr, tables))
                for pc, instr in enumerate(method.code)]
            handlers.append(_fell_off_end)
            entry = self._decoded[id(method)] = (method, handlers)
        return entry[1]

    def step(self, thread: "JThread") -> int:  # noqa: F821
        """Execute one instruction; returns its simulated cost in ns."""
        frame = thread.frames[-1]
        try:
            code = frame.decoded
            if code is None:
                code = frame.decoded = self.decode(frame.method)
            cost = code[frame.pc](thread, frame)
        except JVMError as exc:
            thread.fail(exc, frame.where())
            raise
        thread.instructions += 1
        return cost

    def fuse(self, method: MethodInfo) -> List[Handler]:
        """``decode(method)`` with one handler at the first pc of every
        fused run; the pcs inside a run keep their own.  The text is
        compiled once per method and hangs off it, like a native."""
        fused = self._fused.get(id(method))
        if fused is None:
            fused = self._fused[id(method)] = list(self.decode(method))
            if method.fused is None:
                text, runs = fused_source(method.code, BOUND)
                scope: Dict[str, Any] = {}
                exec(compile(text, f"<tier-0 {method.klass}.{method.name}>",
                             "exec"), _FACTORY_GLOBALS, scope)
                method.fused = scope["make"], runs
            make, runs = method.fused
            costs = [[instr_cost(i, self.cost_tables)
                      for i in method.code[start:end]] for start, end in runs]
            for (start, _), handler in zip(runs, make(
                    [sum(c) for c in costs], **self.bound)):
                fused[start] = handler
            self.margin = max([self.margin, *(sum(c[:-1]) for c in costs)])
        return fused

    def run(self, thread: "JThread", budget_ns: int,  # noqa: F821
            consumed: int = 0) -> int:
        """The dispatch loop: execute until ``budget_ns`` is spent or the
        thread stops being runnable; returns the nanoseconds consumed,
        counting from ``consumed``.  The budget is tested before every
        instruction, so a quantum overshoots by at most one: fused runs
        while ``consumed + margin < budget_ns``, then one by one."""
        frames = thread.frames
        steps = 0
        try:
            fused_until = budget_ns - self.margin
            while consumed < fused_until and thread.state is _RUNNABLE:
                frame = frames[-1]
                code = frame.fused
                if code is None:
                    frame.fused = self.fuse(frame.method)
                    fused_until = budget_ns - self.margin
                    continue
                consumed += code[frame.pc](thread, frame)
                steps += 1
            while consumed < budget_ns and thread.state is _RUNNABLE:
                frame = frames[-1]
                code = frame.decoded
                if code is None:
                    code = frame.decoded = self.decode(frame.method)
                consumed += code[frame.pc](thread, frame)
                steps += 1
        except JVMError as exc:
            thread.fail(exc, frame.where())
            raise
        finally:
            thread.instructions += steps
        return consumed

    # ------------------------------------------------------------------
    def _hook(self, name: str) -> Callable[..., Any]:
        """The DSM hook method a handler binds; without hooks installed,
        one that fails the instruction when it executes."""
        hooks = self.jvm.hooks
        if hooks is None:
            def missing(*args: Any) -> Any:
                raise JVMError(
                    "DSM instruction executed without DSM hooks installed")
            return missing
        return getattr(hooks, name)

    def _observed(self, plain: Handler, instr: Instr, ref_at: int,
                  is_write: bool, link: Optional[Callable[[], Any]] = None
                  ) -> Handler:
        """``plain`` behind the race detector's access observation —
        chosen here, at decode: only when a detector is installed and
        the access carries a check brand.  ``ref_at`` is the stack
        position of the accessed reference; the slot is the field name,
        or for arrays the index just above the reference.  ``link``
        resolves a field reference first, so a link error still precedes
        the observation."""
        race = self._race_hook
        if race is None or not instr.checked:
            return plain

        def observed(thread: Any, frame: Frame) -> int:
            stack = frame.stack
            ref = stack[ref_at]
            if ref is not None:  # on null, ``plain`` raises unobserved
                if link is None:
                    slot = stack[ref_at + 1]
                else:
                    link()
                    slot = instr.b
                race(thread, ref, slot, is_write, frame, instr)
            return plain(thread, frame)
        return observed

    def _is_instance(self, ref: Any, class_name: str) -> bool:
        if ref is None:
            return False
        if class_name == self.jvm.object_class:
            return True
        if isinstance(ref, str):
            return class_name in (self.jvm.string_class, "str")
        if isinstance(ref, ArrayObj):
            return ref.class_name == class_name
        return ref.rtclass.is_subtype_of(class_name)

    # ------------------------------------------------------------------
    # Invocation / return
    # ------------------------------------------------------------------
    def _invoke(
        self,
        thread,
        frame: Frame,
        static_m: MethodInfo,
        target: MethodInfo,
    ) -> int:
        stack = frame.stack
        first_arg = len(stack) - static_m.nargs
        args = stack[first_arg:]
        del stack[first_arg:]
        if target.is_native:
            fn = target.native_cache
            if fn is None:
                fn = self.jvm.native(target.klass, target.name)
                # Native implementations are identical (stateless, jvm
                # passed per call) across JVM instances, so the shared
                # MethodInfo may cache the first resolution.
                target.native_cache = fn
            result = fn(self.jvm, thread, args)
            cost = self._native_cost
            if result is BLOCK:
                thread.block(reexec=False, reason=f"native {target.name}")
                return cost
            if result is not NO_VALUE:
                stack.append(result)
            elif target.ret != "void":
                raise JVMError(
                    f"native {target.klass}.{target.name} returned no value"
                )
            frame.pc += 1
            return cost
        thread.frames.append(Frame(target, args))
        if self.jit is not None:
            self.jit.tick(target)
        return 0

    def _return(self, thread, value: Any, has_value: bool) -> None:
        thread.frames.pop()
        if not thread.frames:
            thread.finish(value if has_value else None)
            return
        caller = thread.frames[-1]
        caller.pc += 1
        if has_value:
            caller.stack.append(value)

    # ------------------------------------------------------------------
    # Local monitors (un-instrumented mode)
    # ------------------------------------------------------------------
    def _monitor_enter(self, thread, ref: Any) -> bool:
        """Returns True if entered; False if the thread blocked."""
        mon = monitor_of(ref)
        if mon.owner is None:
            mon.owner = thread
            mon.count = 1
            return True
        if mon.owner is thread:
            mon.count += 1
            return True
        mon.entry_queue.append((thread, 1))
        return False

    def _monitor_exit(self, thread, ref: Any) -> None:
        mon = monitor_of(ref)
        if mon.owner is not thread:
            raise IllegalMonitorStateError("monitorexit by non-owner")
        mon.count -= 1
        if mon.count == 0:
            mon.owner = None
            self.grant_next(mon)

    def grant_next(self, mon) -> None:
        """Hand a free monitor to the next queued thread (if any)."""
        if mon.owner is None and mon.entry_queue:
            next_thread, restore = mon.entry_queue.popleft()
            mon.owner = next_thread
            mon.count = restore
            next_thread.complete(NO_VALUE)


# ----------------------------------------------------------------------
# Decode.  Runs once per instruction per JVM and returns the handler the
# dispatch loop calls; whatever the instruction alone decides (operands,
# cost, hook method, whether the race detector watches) is decided here
# and captured by the closure.  An opcode with a ``SEMANTICS`` row and
# every IF / IF_CMP condition has a handler *factory*, compiled from the
# row once at import; the rest — accesses that link lazily, everything
# that can block or leave the frame — has a hand-written arm below.
# ----------------------------------------------------------------------
#: What a ``SEMANTICS`` row may name besides its operands.  Both tiers
#: bind these, and the ``BOUND`` names per JVM (:attr:`Interpreter.bound`).
HELPERS = {
    "_idiv": java_idiv, "_irem": java_irem, "_ddiv": java_ddiv,
    "_drem": java_drem, "_d2i": java_d2i, "_shift": java_shift,
    "_jstr": jstr, "_NPE": NullPointerError, "_CCE": ClassCastError,
    "_AE": ArithmeticJavaError, "_TOO_BIG": TOO_BIG,
}
BOUND = ("_new", "_newarr", "_classes", "_isinst")
# A copy: exec adds __builtins__ to it.  A fused run catches ``_JVME``.
_FACTORY_GLOBALS = dict(HELPERS, _JVME=JVMError)


def _make(text: str, name: str) -> Callable[..., Any]:
    """The ``make`` that generated tier-0 ``text`` defines."""
    scope: Dict[str, Any] = {}
    exec(compile(text, f"<tier-0 {name}>", "exec"), _FACTORY_GLOBALS, scope)
    return scope["make"]


def _factory(name: str, body: List[str]) -> Callable[..., Handler]:
    """``make(a, b, nxt, cost, **bound) -> handler`` around ``body``:
    the closure an arm of :func:`_decode_instr` would have built (one
    use of the operand stack reads it off the frame, more bind it)."""
    binds = sum(line.count("stack") for line in body) > 1
    body = (["stack = frame.stack"] + body if binds else
            [line.replace("stack", "frame.stack") for line in body])
    lines = [f"def make(a, b, nxt, cost, {', '.join(BOUND)}):",
             f"    def {name}(thread, frame):"]
    lines += ["        " + line for line in "\n".join(body).split("\n")]
    lines += ["        return cost", f"    return {name}"]
    return _make("\n".join(lines), name)


def _pure_factory(op: Op) -> Callable[..., Handler]:
    """The handler factory of one ``SEMANTICS`` row.  Operands above the
    bottom one are popped into locals; the bottom one stays on the stack
    when something is pushed — the first push overwrites it — and is
    read in place when the row names it once, before that overwrite."""
    pops = STACK_EFFECT[op][0]
    pushed, first = SEMANTICS[op]
    names = {"a": "a", "b": "b", "local": "frame.locals[a]",
             "y": "y", "z": "z"}
    body = [f"{name} = stack.pop()" for name in reversed("xyz"[1:pops])]
    if pops:
        names["x"] = "stack[-1]" if pushed else "stack.pop()"
        if ("".join(pushed) + (first or "")).count("{x}") != 1 \
                or "{x}" in "".join(pushed[1:]):
            body.append(f"x = {names['x']}")
            names["x"] = "x"
    lines, values = instantiate(SEMANTICS[op], names)
    body += lines
    for k, value in enumerate(values):
        body.append(f"stack[-1] = {value}" if pops and k == 0
                    else f"stack.append({value})")
    return _factory(op.name, body + ["frame.pc = nxt"])


def _branch_factory(op: Op, cond: str) -> Callable[..., Handler]:
    """IF / IF_CMP on one condition: a = the condition, b = the target."""
    body = ["y = stack.pop()"] if op is Op.IF_CMP else ["x = stack.pop()"]
    lines, (test,) = instantiate(branch_row(op, cond), {
        "a": "a", "x": "x" if op is Op.IF else "stack.pop()", "y": "y"})
    return _factory(f"{op.name}_{cond}",
                    body + lines + [f"frame.pc = b if {test} else nxt"])


_PURE = {op: _pure_factory(op) for op in SEMANTICS}
_BRANCH = {(op, cond): _branch_factory(op, cond)
           for op in (Op.IF, Op.IF_CMP) for cond in CONDITIONS}


def _fell_off_end(thread: Any, frame: Frame) -> int:
    raise JVMError("pc fell off method end")


def _decode_instr(interp: Interpreter, instr: Instr, pc: int,
                  cost: int) -> Handler:
    op, a, b, nxt = instr.op, instr.a, instr.b, pc + 1
    jvm = interp.jvm
    make = _PURE.get(op)
    if make is not None:
        return make(a, b, nxt, cost, **interp.bound)

    # --- control flow: a = condition, b = target (GOTO: a = target) -----
    if op is Op.GOTO:
        def goto(thread, frame):
            frame.pc = a
            return cost
        return goto
    if op is Op.IF or op is Op.IF_CMP:
        make = _BRANCH.get((op, a))
        if make is None:
            raise JVMError(f"bad {op.name} condition {a!r}")
        return make(a, b, nxt, cost, **interp.bound)

    # --- race-observed heap accesses: a = class name, b = field name ----
    if op is Op.GETFIELD or op is Op.PUTFIELD:
        field_index = jvm.field_index
        slot = None

        def link():
            nonlocal slot
            if slot is None:
                slot = field_index(a, b)

        if op is Op.GETFIELD:
            def getfield(thread, frame):
                stack = frame.stack
                ref = stack[-1]
                if ref is None:
                    raise NullPointerError(f"getfield {a}.{b}")
                if slot is None:
                    link()
                stack[-1] = ref.fields[slot]
                frame.pc = nxt
                return cost
            return interp._observed(getfield, instr, -1, False, link)

        def putfield(thread, frame):
            stack = frame.stack
            value = stack.pop()
            ref = stack.pop()
            if ref is None:
                raise NullPointerError(f"putfield {a}.{b}")
            if slot is None:
                link()
            ref.fields[slot] = value
            frame.pc = nxt
            return cost
        return interp._observed(putfield, instr, -2, True, link)
    if op is Op.ARRLOAD:
        def arrload(thread, frame):
            stack = frame.stack
            index = stack.pop()
            ref = stack[-1]
            if ref is None:
                raise NullPointerError("arrload on null")
            stack[-1] = ref.get(index)
            frame.pc = nxt
            return cost
        return interp._observed(arrload, instr, -2, False)
    if op is Op.ARRSTORE:
        def arrstore(thread, frame):
            stack = frame.stack
            value = stack.pop()
            index = stack.pop()
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("arrstore on null")
            ref.set(index, value)
            frame.pc = nxt
            return cost
        return interp._observed(arrstore, instr, -3, True)

    # --- invocation: a = static class name, b = method name -------------
    if op is Op.INVOKEVIRTUAL:
        resolve, invoke = jvm.resolve_method, interp._invoke
        static_m = None
        receiver_at = 0

        def invokevirtual(thread, frame):
            nonlocal static_m, receiver_at
            if static_m is None:
                static_m = resolve(a, b)
                receiver_at = -1 - len(static_m.params)
            receiver = frame.stack[receiver_at]
            if receiver is None:
                raise NullPointerError(f"invoke {a}.{b} on null")
            if isinstance(receiver, str):
                target = resolve(jvm.string_class, b)
            elif isinstance(receiver, ArrayObj):
                target = resolve(jvm.object_class, b)
            else:
                target = receiver.rtclass.vtable.get(b)
                if target is None:
                    target = resolve(a, b)
            return cost + invoke(thread, frame, static_m, target)
        return invokevirtual
    if op is Op.INVOKESTATIC or op is Op.INVOKESPECIAL:
        resolve, invoke = jvm.resolve_method, interp._invoke
        method = None

        def invokedirect(thread, frame):
            nonlocal method
            if method is None:
                method = resolve(a, b)
            return cost + invoke(thread, frame, method, method)
        return invokedirect
    if op is Op.RETURN or op is Op.RETVAL:
        has_value = op is Op.RETVAL
        return_to_caller = interp._return

        def return_(thread, frame):
            return_to_caller(
                thread, frame.stack.pop() if has_value else None, has_value)
            return cost
        return return_

    # --- synchronization (local monitors) -------------------------------
    if op is Op.MONITORENTER:
        monitor_enter = interp._monitor_enter

        def monitorenter(thread, frame):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("monitorenter on null")
            if monitor_enter(thread, ref):
                frame.pc = nxt
            else:  # complete style: the waker advances the pc
                thread.block(reexec=False, reason="monitor enter")
            return cost
        return monitorenter
    if op is Op.MONITOREXIT:
        monitor_exit = interp._monitor_exit

        def monitorexit(thread, frame):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("monitorexit on null")
            monitor_exit(thread, ref)
            frame.pc = nxt
            return cost
        return monitorexit

    # --- DSM pseudo-instructions ----------------------------------------
    if op is Op.DSM_READCHECK or op is Op.DSM_WRITECHECK:
        # a = stack depth of the ref.  For array accesses the element
        # index sits just above it; region-granular coherence (§4.3
        # extension) needs it.
        ref_at = -1 - a
        if op is Op.DSM_READCHECK:
            has_index = a >= 1
            read_check = interp._hook("read_check")

            def dsm_readcheck(thread, frame):
                stack = frame.stack
                ref = stack[ref_at]
                if ref is None:
                    raise NullPointerError("read check on null")
                index = (stack[ref_at + 1]
                         if has_index and isinstance(ref, ArrayObj) else None)
                ok, extra = read_check(thread, ref, index)
                if ok:
                    frame.pc = nxt
                else:
                    # Re-execute style: pc stays on the check; the fetch
                    # reply wakes the thread and the check then passes.
                    thread.block(reexec=True, reason="read miss")
                return cost + extra
            return dsm_readcheck
        has_index = a >= 2
        value_at = None if b is None else -1 - b  # b = depth of the value
        write_check = interp._hook("write_check")

        def dsm_writecheck(thread, frame):
            stack = frame.stack
            ref = stack[ref_at]
            if ref is None:
                raise NullPointerError("write check on null")
            value = None if value_at is None else stack[value_at]
            index = (stack[ref_at + 1]
                     if has_index and isinstance(ref, ArrayObj) else None)
            ok, extra = write_check(thread, ref, value, index)
            if ok:
                frame.pc = nxt
            else:
                thread.block(reexec=True, reason="write miss")
            return cost + extra
        return dsm_writecheck
    if op is Op.DSM_ACQUIRE:
        acquire = interp._hook("acquire")

        def dsm_acquire(thread, frame):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("acquire on null")
            done, extra = acquire(thread, ref)
            if done:
                frame.pc = nxt
            else:  # complete style: the waker advances the pc
                thread.block(reexec=False, reason="lock acquire")
            return cost + extra
        return dsm_acquire
    if op is Op.DSM_RELEASE:
        release = interp._hook("release")

        def dsm_release(thread, frame):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("release on null")
            extra = release(thread, ref)
            frame.pc = nxt
            return cost + extra
        return dsm_release
    if op is Op.DSM_STATICREF:
        static_ref = interp._hook("static_ref")

        def dsm_staticref(thread, frame):
            ref, extra = static_ref(thread, a)
            if ref is None:
                thread.block(reexec=True, reason="static holder miss")
            else:
                frame.stack.append(ref)
                frame.pc = nxt
            return cost + extra
        return dsm_staticref

    raise JVMError(f"unimplemented opcode {op!r}")
