"""The bytecode interpreter: decode once, dispatch once.

One :class:`Interpreter` per JVM instance.  A method is *decoded* the
first time this JVM executes it: every instruction becomes one bound
handler ``h(thread, frame) -> cost_ns`` — a closure holding the
operands, the brand-resolved simulated cost, the branch comparator and
the DSM hook method — and :meth:`Interpreter.run` is the single loop
that calls ``decoded[pc]`` until a quantum's budget is spent.  The
decoded list is cached per interpreter, never on the ``MethodInfo``:
methods are shared by every worker JVM of a cluster, costs (brands) and
link state (field slots, call targets) are per JVM.  Link state is
resolved at a handler's first run, so a reference that cannot link
fails at the offending instruction and not when its method is decoded.

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
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import cost_model as cm
from ..sim.node import StreamState
from .bytecode import Instr, Op, cost_tables, instr_cost
from .classfile import MethodInfo
from .errors import (
    ArithmeticJavaError,
    ClassCastError,
    IllegalMonitorStateError,
    JVMError,
    NullPointerError,
)
from .frame import Frame
from .heap import ArrayObj, Obj, monitor_of

# Sentinel returned by native methods that produce no value (void).
NO_VALUE = object()
# Sentinel returned by native methods that blocked the thread themselves.
BLOCK = object()

_RUNNABLE = StreamState.RUNNABLE


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
    return a / b


def java_drem(a: float, b: float) -> float:
    """Java double remainder: never traps.  A zero divisor or an
    infinite dividend yields NaN, an infinite divisor the dividend."""
    if b == 0 or math.isinf(a):
        return math.nan
    return math.fmod(a, b)


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


def java_eq(a: Any, b: Any) -> bool:
    """Java ``==``: identity on heap references, value equality else."""
    if isinstance(a, (Obj, ArrayObj)) or isinstance(b, (Obj, ArrayObj)):
        return a is b
    return a == b


def jstr(value: Any) -> str:
    """Stringify a value the way Java's string concatenation would."""
    if value is None:
        return "null"
    if isinstance(value, bool):  # pragma: no cover - booleans are ints
        return "true" if value else "false"
    if isinstance(value, float):
        if value == math.floor(value) and abs(value) < 1e16 and not math.isinf(value):
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
        # id(method) -> (method, handlers); the entry pins the method so
        # its id stays unique for the life of the cache.
        self._decoded: Dict[int, Tuple[MethodInfo, List[Handler]]] = {}
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

    def run(self, thread: "JThread", budget_ns: int,  # noqa: F821
            consumed: int = 0) -> int:
        """The dispatch loop: execute until ``budget_ns`` is spent or the
        thread stops being runnable; returns the nanoseconds consumed,
        counting from ``consumed``.  The budget is tested before every
        instruction, so a quantum overshoots by at most one."""
        frames = thread.frames
        steps = 0
        try:
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
# Decode: one arm per opcode.  Runs once per instruction per JVM and
# returns the handler the dispatch loop calls; whatever the instruction
# alone decides (operands, cost, comparator, hook method, whether the
# race detector watches) is decided here and captured by the closure.
# ----------------------------------------------------------------------
_BITWISE = {Op.AND: operator.and_, Op.OR: operator.or_, Op.XOR: operator.xor}
_SHIFTS = {
    Op.SHL: operator.lshift,
    Op.SHR: operator.rshift,
    Op.USHR: lambda a, count: (a & 0xFFFFFFFFFFFFFFFF) >> count,
}
_ORDERED = {"lt": operator.lt, "ge": operator.ge,
            "gt": operator.gt, "le": operator.le}


def _fell_off_end(thread: Any, frame: Frame) -> int:
    raise JVMError("pc fell off method end")


def _decode_instr(interp: Interpreter, instr: Instr, pc: int,
                  cost: int) -> Handler:
    op, a, b, nxt = instr.op, instr.a, instr.b, pc + 1
    jvm = interp.jvm

    # --- constants & locals ---------------------------------------------
    if op is Op.CONST:
        def const(thread, frame):
            frame.stack.append(a)
            frame.pc = nxt
            return cost
        return const
    if op is Op.LOAD:
        def load(thread, frame):
            frame.stack.append(frame.locals[a])
            frame.pc = nxt
            return cost
        return load
    if op is Op.STORE:
        def store(thread, frame):
            frame.locals[a] = frame.stack.pop()
            frame.pc = nxt
            return cost
        return store
    if op is Op.IINC:
        def iinc(thread, frame):
            frame.locals[a] += b
            frame.pc = nxt
            return cost
        return iinc

    # --- arithmetic -----------------------------------------------------
    if op is Op.ADD:
        def add(thread, frame):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] + y
            frame.pc = nxt
            return cost
        return add
    if op is Op.SUB:
        def sub(thread, frame):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] - y
            frame.pc = nxt
            return cost
        return sub
    if op is Op.MUL:
        def mul(thread, frame):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] * y
            frame.pc = nxt
            return cost
        return mul
    if op is Op.DIV:
        def div(thread, frame):
            stack = frame.stack
            y = stack.pop()
            x = stack[-1]
            if isinstance(x, int) and isinstance(y, int):
                stack[-1] = java_idiv(x, y)
            else:
                stack[-1] = java_ddiv(float(x), float(y))
            frame.pc = nxt
            return cost
        return div
    if op is Op.REM:
        def rem(thread, frame):
            stack = frame.stack
            y = stack.pop()
            x = stack[-1]
            if isinstance(x, int) and isinstance(y, int):
                stack[-1] = java_irem(x, y)
            else:
                stack[-1] = java_drem(x, y)
            frame.pc = nxt
            return cost
        return rem
    if op is Op.NEG:
        def neg(thread, frame):
            stack = frame.stack
            stack[-1] = -stack[-1]
            frame.pc = nxt
            return cost
        return neg
    if op in _BITWISE:
        bit_op = _BITWISE[op]

        def bitwise(thread, frame):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = bit_op(stack[-1], y)
            frame.pc = nxt
            return cost
        return bitwise
    if op in _SHIFTS:
        shift_op = _SHIFTS[op]

        def shift(thread, frame):
            stack = frame.stack
            count = java_shift(stack.pop())
            stack[-1] = shift_op(stack[-1], count)
            frame.pc = nxt
            return cost
        return shift
    if op is Op.CMP:
        def cmp(thread, frame):
            stack = frame.stack
            y = stack.pop()
            x = stack[-1]
            stack[-1] = 0 if x == y else (-1 if x < y else 1)
            frame.pc = nxt
            return cost
        return cmp
    if op is Op.I2D:
        def i2d(thread, frame):
            stack = frame.stack
            stack[-1] = float(stack[-1])
            frame.pc = nxt
            return cost
        return i2d
    if op is Op.D2I:
        def d2i(thread, frame):
            stack = frame.stack
            stack[-1] = java_d2i(stack[-1])
            frame.pc = nxt
            return cost
        return d2i
    if op is Op.CONCAT:
        def concat(thread, frame):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = jstr(stack[-1]) + jstr(y)
            frame.pc = nxt
            return cost
        return concat

    # --- stack ----------------------------------------------------------
    if op is Op.POP:
        def pop(thread, frame):
            frame.stack.pop()
            frame.pc = nxt
            return cost
        return pop
    if op is Op.DUP:
        def dup(thread, frame):
            stack = frame.stack
            stack.append(stack[-1])
            frame.pc = nxt
            return cost
        return dup
    if op is Op.DUP_X1:
        def dup_x1(thread, frame):
            stack = frame.stack
            y = stack.pop()
            x = stack.pop()
            stack.extend((y, x, y))
            frame.pc = nxt
            return cost
        return dup_x1
    if op is Op.SWAP:
        def swap(thread, frame):
            stack = frame.stack
            stack[-1], stack[-2] = stack[-2], stack[-1]
            frame.pc = nxt
            return cost
        return swap

    # --- control flow: a = condition, b = target (GOTO: a = target) -----
    if op is Op.GOTO:
        def goto(thread, frame):
            frame.pc = a
            return cost
        return goto
    if op is Op.IF or op is Op.IF_CMP:
        if a in ("eq", "ne"):
            want = a == "eq"
            if op is Op.IF:
                def if_zero(thread, frame):
                    v = frame.stack.pop()
                    frame.pc = b if (v == 0 or v is None) is want else nxt
                    return cost
                return if_zero

            def if_same(thread, frame):
                stack = frame.stack
                y = stack.pop()
                frame.pc = b if java_eq(stack.pop(), y) is want else nxt
                return cost
            return if_same
        test = _ORDERED.get(a)
        if test is None:
            raise JVMError(f"bad {op.name} condition {a!r}")
        if op is Op.IF:
            def if_ordered(thread, frame):
                v = frame.stack.pop()
                if v is None:
                    raise NullPointerError(
                        f"ordered compare on null ({a})")
                frame.pc = b if test(v, 0) else nxt
                return cost
            return if_ordered

        def if_cmp(thread, frame):
            stack = frame.stack
            y = stack.pop()
            frame.pc = b if test(stack.pop(), y) else nxt
            return cost
        return if_cmp

    # --- objects: a = class name, b = field name ------------------------
    if op is Op.NEW:
        new_instance = jvm.new_instance

        def new(thread, frame):
            frame.stack.append(new_instance(a))
            frame.pc = nxt
            return cost
        return new
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
    if op is Op.GETSTATIC:
        classes = jvm.classes

        def getstatic(thread, frame):
            frame.stack.append(classes[a].statics[b])
            frame.pc = nxt
            return cost
        return getstatic
    if op is Op.PUTSTATIC:
        classes = jvm.classes

        def putstatic(thread, frame):
            classes[a].statics[b] = frame.stack.pop()
            frame.pc = nxt
            return cost
        return putstatic
    if op is Op.INSTANCEOF:
        is_instance = interp._is_instance

        def instanceof(thread, frame):
            stack = frame.stack
            stack[-1] = 1 if is_instance(stack[-1], a) else 0
            frame.pc = nxt
            return cost
        return instanceof
    if op is Op.CHECKCAST:
        is_instance = interp._is_instance

        def checkcast(thread, frame):
            ref = frame.stack[-1]
            if ref is not None and not is_instance(ref, a):
                raise ClassCastError(
                    f"{getattr(ref, 'class_name', type(ref).__name__)} "
                    f"-> {a}")
            frame.pc = nxt
            return cost
        return checkcast

    # --- arrays ---------------------------------------------------------
    if op is Op.NEWARRAY:
        new_array = jvm.new_array

        def newarray(thread, frame):
            stack = frame.stack
            stack[-1] = new_array(a, stack[-1])
            frame.pc = nxt
            return cost
        return newarray
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
    if op is Op.ARRAYLENGTH:
        def arraylength(thread, frame):
            stack = frame.stack
            ref = stack[-1]
            if ref is None:
                raise NullPointerError("arraylength on null")
            stack[-1] = len(ref)
            frame.pc = nxt
            return cost
        return arraylength

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
