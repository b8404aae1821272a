"""The bytecode interpreter: decode once, dispatch once per run.

One :class:`Interpreter` per JVM instance.  A method is *decoded* the
first time this JVM executes it: every instruction becomes one bound
handler ``h(thread, frame, left) -> cost_ns`` — a closure holding the
operands, the linked field slot, the brand-resolved simulated cost, the
branch comparator and the DSM hook method.  It is then *fused*: the
first pc of every straight-line run of pure opcodes
(:mod:`repro.jvm.fuse`) gets one handler that does the whole run, bills
its summed cost and counts its instructions, and :meth:`Interpreter.run`
is the one dispatch loop of both tiers: it calls ``fused[pc]`` with the
budget ``left`` until a quantum's is spent.  Tier 0's handlers ignore
``left``; a tier-1 *trace* (:mod:`repro.jit`) stands at its head in a
hot method's fused list and runs only while its trip fits in it.
Both lists are cached per interpreter: methods are shared by every
worker JVM of a cluster, costs (brands) and link state (field slots,
call targets) are per JVM — only the fused runs' compiled *text* is
shared, once per process and keyed by content
(:mod:`~repro.jvm.codecache`), and the ``MethodInfo`` points at it.
Field slots are linked at decode
(:func:`~repro.jvm.bytecode.link_slots`); an access that does not link
then, and every call target, links at its first run, so a reference
that cannot link fails at the offending instruction and not when its
method is decoded.

Fusing is exact.  The budget is tested before every instruction, so a
fused handler runs only where each test inside it would have passed
(``consumed + margin < budget_ns``; ``margin`` is the most any run bills
before its last instruction); the quantum's tail, ``step`` and a resume
inside a run need the per-instruction list.  A row that can raise stores
``frame.pc`` first: error text, position and instruction count are kept.

What an instruction *does* is not written here when it can be said
once for both tiers: the pure opcodes are the rows of
:data:`~repro.jvm.bytecode.SEMANTICS`, and each row's handler factory
is compiled from its text at import (:func:`_row_factory`) — the four
heap accesses too, with and without the race detector's call, and a
call to a ``Math`` method, which is a row of
:data:`~repro.jvm.bytecode.MATH`.  The arms of :func:`_decode_instr` are
what is left — invokes and returns, monitors and DSM hooks, and the
wrapper of an access that did not link.

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

from ..dsm.protocol import DsmEngine
from ..heap import ArrayObj, JVMError, Obj, monitor_of
from ..sim import cost_model as cm
from ..sim.node import StreamState
from .bytecode import (
    ACCESSES,
    CONDITIONS,
    LINKED,
    MATH,
    SEMANTICS,
    STACK_EFFECT,
    Instr,
    Op,
    Row,
    branch_row,
    cost_tables,
    instantiate,
    instr_cost,
    link_slots,
    native_of,
    ref_below,
    row_text,
)
from .classfile import MethodInfo
from .codecache import cached, code_key
from .errors import (
    ArithmeticJavaError,
    ClassCastError,
    IllegalMonitorStateError,
    NullPointerError,
)
from .frame import Frame
from .fuse import GUARD, fused_source, read_miss_names

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


def java_pow(x: float, y: float) -> float:
    """Java ``Math.pow``: C's ``pow``, except that a NaN exponent, or ±1
    to an infinite power, is NaN, and that no argument raises."""
    if y != y or math.isinf(y) and abs(x) == 1.0:
        return math.nan
    try:
        return math.pow(x, y)
    except OverflowError:
        pass
    except ValueError:  # a negative base to a fraction, or 0 to y < 0
        if x != 0:
            return math.nan
    return math.copysign(math.inf, x) if y % 2 == 1 else math.inf


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


#: One decoded instruction, fused run or trace: executes on ``frame`` (top
#: of ``thread``) with ``left`` ns of the quantum left (only a trace reads
#: it), leaves ``frame.pc`` where execution continues, returns the ns.
Handler = Callable[[Any, Frame, int], int]


class Interpreter:
    """Executes bytecode for one JVM instance."""

    def __init__(self, jvm: "JVM") -> None:  # noqa: F821 - circular typing
        self.jvm = jvm
        #: Tiered-JIT agent (repro.jit): every non-native frame push
        #: ticks the callee, and ``fuse`` installs a compiled method's traces.
        self.jit: Any = None
        self.cost_tables = cost_tables(jvm.cost_model)
        self._native_cost = jvm.cost_model[cm.NATIVE]
        #: This JVM's share of what a ``SEMANTICS`` row may name.
        self.bound = dict(zip(BOUND, (jvm.new_instance, jvm.new_array,
                                      jvm.classes, self._is_instance)))
        # id(method) -> (method, handlers, linked slots, pc costs); the entry
        # pins the method so its id stays unique for the life of the cache.
        self._decoded: Dict[int, Tuple[MethodInfo, List[Handler],
                                       Dict[int, int], List[int]]] = {}
        self._fused: Dict[int, List[Handler]] = {}  # id(method) -> fuse()
        # id(method) -> what fuse()'s handler at a pc bills before its last.
        self._need: Dict[int, List[int]] = {}
        #: The most any fused run here bills before its last instruction.
        self.margin = 0
        self._race_hook: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    @property
    def race_hook(self) -> Optional[Callable[..., None]]:
        """Race-detector access observer (repro.race), or None:
        ``(thread, ref, slot, is_write, frame, instr)``.  Handlers bind
        it at decode — an access costs nothing while no detector is
        installed, and an observed one is never fused — so it must be
        set before this JVM first executes."""
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
            code = method.code
            slots = link_slots(code, self.jvm.field_index)
            costs = [instr_cost(instr, self.cost_tables) for instr in code]
            handlers = [_decode_instr(self, i, pc, costs[pc], slots.get(pc))
                        for pc, i in enumerate(code)]
            handlers.append(_fell_off_end)
            entry = self._decoded[id(method)] = (method, handlers, slots,
                                                 costs)
        return entry[1]

    def step(self, thread: "JThread") -> int:  # noqa: F821
        """Execute one instruction; returns its simulated cost in ns."""
        frame = thread.frames[-1]
        try:
            code = frame.decoded
            if code is None:
                code = frame.decoded = self.decode(frame.method)
            cost = code[frame.pc](thread, frame, 0)
        except JVMError as exc:
            thread.fail(exc, frame.where())
            raise
        thread.instructions += 1
        return cost

    def fuse(self, method: MethodInfo) -> List[Handler]:
        """``decode(method)`` with one handler at the first pc of every
        fused run; the pcs inside a run keep their own.  An access joins
        a run unless it is observed or did not link, a read check unless
        this JVM's hooks are no DSM engine (the ``cut``).  The text is
        built once per process for each content, cut and name
        (:mod:`~repro.jvm.codecache`), and the method points at it as at
        its native: every JVM of a runtime loads the same classes and
        hooks and has the same race switch, so all cut a method alike."""
        fused = self._fused.get(id(method))
        if fused is None:
            fused = self._fused[id(method)] = list(self.decode(method))
            code = method.code
            _, _, slots, costs = self._decoded[id(method)]
            hooks = self.jvm.hooks
            guards = isinstance(hooks, DsmEngine)
            cut = frozenset(pc for pc, i in enumerate(code) if self.observes(i)
                            or i.op in LINKED and pc not in slots
                            or i.op is GUARD and not guards)
            if method.fused is None:
                name = f"{method.klass}.{method.name}"
                method.fused = (cut, *cached(
                    ("fused", name, cut, code_key(code)),
                    lambda: _make_runs(code, cut, name)))
            shared_cut, make, runs = method.fused
            assert shared_cut == cut, "JVMs sharing a method cut it apart"
            need = self._need[id(method)] = [0] * len(fused)
            for (start, end), handler in zip(runs, make(
                    costs, slots, **self.bound,
                    **(read_miss_names(hooks) if guards else {}))):
                fused[start] = handler
                need[start] = sum(costs[start:end - 1])
            self.margin = max(self.margin, *need)
            if self.jit is not None:
                self.jit.install(method, fused)
        return fused

    def run(self, thread: "JThread", budget_ns: int,  # noqa: F821
            consumed: int = 0) -> int:
        """The dispatch loop: execute until ``budget_ns`` is spent or the
        thread stops being runnable; returns the nanoseconds consumed,
        counting from ``consumed``.  The budget is tested before every
        instruction, so a quantum overshoots by at most one: fused runs
        (and traces) while ``consumed + margin < budget_ns``, then each
        that fits its own margin, else one by one.  A run that traps has
        stored the trapping pc: what it ran before that counts, as it
        would have unfused."""
        frames = thread.frames
        steps = 0
        try:
            fused_until = budget_ns - self.margin
            while consumed < fused_until and thread.state is _RUNNABLE:
                frame = frames[-1]
                pc = frame.pc
                code = frame.fused
                if code is None:
                    frame.fused = self.fuse(frame.method)
                    fused_until = budget_ns - self.margin
                    continue
                consumed += code[pc](thread, frame, budget_ns - consumed)
                steps += 1
            need = self._need
            while consumed < budget_ns and thread.state is _RUNNABLE:
                frame = frames[-1]
                pc = frame.pc
                code = frame.fused
                if code is None or consumed + need[id(frame.method)][pc] \
                        >= budget_ns:
                    code = frame.decoded
                    if code is None:
                        code = frame.decoded = self.decode(frame.method)
                consumed += code[pc](thread, frame, budget_ns - consumed)
                steps += 1
        except JVMError as exc:
            steps += frame.pc - pc
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

    def observes(self, instr: Instr) -> bool:
        """Whether the race detector watches this instruction — decided
        at decode: a detector is installed, and it is an access that
        carries a check brand."""
        return (self._race_hook is not None and instr.op in ACCESSES
                and bool(instr.checked))

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
    def _call_native(self, thread, frame: Frame, target: MethodInfo,
                     args: List[Any]) -> int:
        """Run native ``target`` on ``args``, already popped: it pushes
        its result and advances ``frame``, or blocks the thread."""
        fn = target.native_cache
        if fn is None:
            fn = self.jvm.native(target.klass, target.name)
            # Native implementations are identical (stateless, jvm passed
            # per call) across JVM instances, so the shared MethodInfo
            # may cache the first resolution.
            target.native_cache = fn
        result = fn(self.jvm, thread, args)
        if result is BLOCK:
            thread.block(reexec=False, reason=f"native {target.name}")
            return self._native_cost
        if result is not NO_VALUE:
            frame.stack.append(result)
        elif target.ret != "void":
            raise JVMError(
                f"native {target.klass}.{target.name} returned no value")
        frame.pc += 1
        return self._native_cost

    # ------------------------------------------------------------------
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
# and captured by the closure.  An opcode with a ``SEMANTICS`` row, a
# ``MATH`` method and every IF / IF_CMP condition has a handler
# *factory*, compiled from the row once at import; the rest — everything
# that can block or leave the frame — has a hand-written arm below.
# ----------------------------------------------------------------------
#: What a ``SEMANTICS`` row may name besides its operands.  Both tiers
#: bind these, and the ``BOUND`` names per JVM (:attr:`Interpreter.bound`).
HELPERS = {
    "_idiv": java_idiv, "_irem": java_irem, "_ddiv": java_ddiv,
    "_drem": java_drem, "_d2i": java_d2i, "_shift": java_shift,
    "_jstr": jstr, "_NPE": NullPointerError, "_CCE": ClassCastError,
    "_AE": ArithmeticJavaError, "_TOO_BIG": TOO_BIG,
    # What the ``MATH`` rows call.
    **{f"_{name}": getattr(math, name) for name in (
        "sqrt", "sin", "cos", "tan", "log", "exp", "floor", "ceil", "atan2",
        "copysign")},
    "_pow": java_pow, "_NAN": math.nan, "_INF": math.inf,
}
BOUND = ("_new", "_newarr", "_classes", "_isinst")
_FACTORY_GLOBALS = dict(HELPERS)  # a copy: exec adds __builtins__ to it


def _make(text: str, name: str) -> Callable[..., Any]:
    """The ``make`` that generated tier-0 ``text`` defines."""
    scope: Dict[str, Any] = {}
    exec(compile(text, f"<tier-0 {name}>", "exec"), _FACTORY_GLOBALS, scope)
    return scope["make"]


def _make_runs(code: List[Instr], cut: frozenset, name: str
               ) -> Tuple[Callable[..., Any], List[Tuple[int, int]]]:
    """``(make, runs)`` of the fused runs of ``code`` under ``cut``."""
    text, runs = fused_source(code, BOUND, cut)
    return (_make(text, name) if runs else lambda *a, **k: []), runs


def _factory(name: str, body: List[str]) -> Callable[..., Handler]:
    """``make(a, b, nxt, cost, **bound, slot=, instr=, _race=) ->
    handler`` around ``body``: the closure an arm of
    :func:`_decode_instr` would have built (one use of the operand stack
    reads it off the frame, more bind it)."""
    binds = sum(line.count("stack") for line in body) > 1
    body = (["stack = frame.stack"] + body if binds else
            [line.replace("stack", "frame.stack") for line in body])
    lines = [f"def make(a, b, nxt, cost, {', '.join(BOUND)}, slot=None, "
             f"instr=None, _race=None):",
             f"    def {name}(thread, frame, left):"]
    lines += ["        " + line for line in "\n".join(body).split("\n")]
    lines += ["        return cost", f"    return {name}"]
    return _make("\n".join(lines), name)


def _row_factory(name: str, row: Row, pops: int,
                 observed: bool = False) -> Callable[..., Handler]:
    """The handler factory of one row that pops ``pops`` operands,
    ``observed`` with the race detector's call.  Operands above the
    bottom one are popped into locals; the bottom one stays on the stack
    when something is pushed — the first push overwrites it — and is
    read in place when the row names it once, before that overwrite."""
    names = {"a": "a", "b": "b", "local": "frame.locals[a]",
             "y": "y", "z": "z", "slot": "slot"}
    body = [f"{name} = stack.pop()" for name in reversed("xyz"[1:pops])]
    if pops:
        names["x"] = "stack[-1]" if row.pushed else "stack.pop()"
        if observed or row_text(row).count("{x}") != 1 \
                or "{x}" in "".join(row.pushed[1:]):
            body.append(f"x = {names['x']}")
            names["x"] = "x"
    lines, values = instantiate(row, names, "instr" if observed else None)
    body += lines
    for k, value in enumerate(values):
        body.append(f"stack[-1] = {value}" if pops and k == 0
                    else f"stack.append({value})")
    return _factory(name, body + ["frame.pc = nxt"])


def _branch_factory(op: Op, cond: str) -> Callable[..., Handler]:
    """IF / IF_CMP on one condition: a = the condition, b = the target."""
    body = ["y = stack.pop()"] if op is Op.IF_CMP else ["x = stack.pop()"]
    lines, (test,) = instantiate(branch_row(op, cond), {
        "a": "a", "x": "x" if op is Op.IF else "stack.pop()", "y": "y"})
    return _factory(f"{op.name}_{cond}",
                    body + lines + [f"frame.pc = b if {test} else nxt"])


_PURE = {op: _row_factory(op.name, row, STACK_EFFECT[op][0])
         for op, row in SEMANTICS.items()}
_OBSERVED = {op: _row_factory(op.name, SEMANTICS[op], STACK_EFFECT[op][0],
                              observed=True) for op in ACCESSES}
_MATH = {name: _row_factory(f"Math_{name}", native.row, native.arity)
         for name, native in MATH.items()}
_BRANCH = {(op, cond): _branch_factory(op, cond)
           for op in (Op.IF, Op.IF_CMP) for cond in CONDITIONS}


def _fell_off_end(thread: Any, frame: Frame, left: int) -> int:
    raise JVMError("pc fell off method end")


def _decode_instr(interp: Interpreter, instr: Instr, pc: int, cost: int,
                  slot: Optional[int]) -> Handler:
    op, a, b, nxt = instr.op, instr.a, instr.b, pc + 1
    jvm = interp.jvm
    make = _MATH[b] if native_of(instr) else _PURE.get(op)
    if make is not None:
        if op not in ACCESSES:
            return make(a, b, nxt, cost, **interp.bound)
        if interp.observes(instr):
            make = _OBSERVED[op]

        def build(slot):
            return make(a, b, nxt, cost, slot=slot, instr=instr,
                        _race=interp.race_hook, **interp.bound)
        if slot is not None or op not in LINKED:
            return build(slot)
        # A field that did not link: a path never taken never fails, and
        # the first run tests for null, links and becomes the row.
        below, linked = ref_below(op), None

        def link_first(thread, frame, left):
            nonlocal linked
            if linked is None:
                if frame.stack[-below] is None:  # the row's NPE comes first
                    return build(None)(thread, frame, left)
                linked = build(jvm.field_index(a, b))
            return linked(thread, frame, left)
        return link_first

    # --- control flow: a = condition, b = target (GOTO: a = target) -----
    if op is Op.GOTO:
        def goto(thread, frame, left):
            frame.pc = a
            return cost
        return goto
    if op is Op.IF or op is Op.IF_CMP:
        make = _BRANCH.get((op, a))
        if make is None:
            raise JVMError(f"bad {op.name} condition {a!r}")
        return make(a, b, nxt, cost, **interp.bound)

    # --- invocation: a = static class name, b = method name -------------
    # A call pushes its callee's frame with this JVM's fused list for it,
    # if built (fusing here could raise ``margin`` under a running
    # quantum's ``fused_until``), and RETURN / RETVAL pop back in place.
    # A virtual site keeps its last object receiver's class and non-native
    # target; strings, arrays and natives resolve on every call.
    resolve, fused_of = jvm.resolve_method, interp._fused.get
    if op is Op.INVOKEVIRTUAL:
        static_m = cls = target = None
        nargs = 1  # until resolved: the top operand, which cannot match None

        def invokevirtual(thread, frame, left):
            nonlocal static_m, nargs, cls, target
            stack = frame.stack
            receiver = stack[-nargs]
            if type(receiver) is Obj and receiver.rtclass is cls:
                callee = target
            else:
                if static_m is None:
                    static_m = resolve(a, b)
                    nargs = static_m.nargs
                    receiver = stack[-nargs]
                if receiver is None:
                    raise NullPointerError(f"invoke {a}.{b} on null")
                if isinstance(receiver, str):
                    callee = resolve(jvm.string_class, b)
                elif isinstance(receiver, ArrayObj):
                    callee = resolve(jvm.object_class, b)
                else:
                    callee = receiver.rtclass.vtable.get(b) or resolve(a, b)
                    if not callee.is_native:
                        cls, target = receiver.rtclass, callee
            args = stack[-nargs:]
            del stack[-nargs:]
            if callee.is_native:
                return cost + interp._call_native(thread, frame, callee, args)
            thread.frames.append(Frame(callee, args, fused_of(id(callee))))
            jit = interp.jit
            if jit is not None:
                jit.tick(callee)
            return cost
        return invokevirtual
    if op is Op.INVOKESTATIC or op is Op.INVOKESPECIAL:
        callee = None

        def invokedirect(thread, frame, left):
            nonlocal callee
            if callee is None:
                callee = resolve(a, b)
            stack = frame.stack
            first = len(stack) - callee.nargs
            args = stack[first:]
            del stack[first:]
            if callee.is_native:
                return cost + interp._call_native(thread, frame, callee, args)
            thread.frames.append(Frame(callee, args, fused_of(id(callee))))
            jit = interp.jit
            if jit is not None:
                jit.tick(callee)
            return cost
        return invokedirect
    if op is Op.RETURN or op is Op.RETVAL:
        has_value = op is Op.RETVAL

        def return_(thread, frame, left):
            value = frame.stack.pop() if has_value else None
            frames = thread.frames
            frames.pop()
            if not frames:
                thread.finish(value)
            else:
                caller = frames[-1]
                caller.pc += 1
                if has_value:
                    caller.stack.append(value)
            return cost
        return return_

    # --- synchronization (local monitors, un-instrumented mode) ---------
    if op is Op.MONITORENTER:
        def monitorenter(thread, frame, left):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("monitorenter on null")
            mon = monitor_of(ref)  # a free monitor has count 0
            if mon.owner is None or mon.owner is thread:
                mon.owner = thread
                mon.count += 1
                frame.pc = nxt
            else:  # complete style: the waker advances the pc
                mon.entry_queue.append((thread, 1))
                thread.block(reexec=False, reason="monitor enter")
            return cost
        return monitorenter
    if op is Op.MONITOREXIT:
        def monitorexit(thread, frame, left):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("monitorexit on null")
            mon = monitor_of(ref)
            if mon.owner is not thread:
                raise IllegalMonitorStateError("monitorexit by non-owner")
            mon.count -= 1
            if mon.count == 0:
                mon.owner = None
                interp.grant_next(mon)
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

            def dsm_readcheck(thread, frame, left):
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

        def dsm_writecheck(thread, frame, left):
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

        def dsm_acquire(thread, frame, left):
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

        def dsm_release(thread, frame, left):
            ref = frame.stack.pop()
            if ref is None:
                raise NullPointerError("release on null")
            extra = release(thread, ref)
            frame.pc = nxt
            return cost + extra
        return dsm_release
    if op is Op.DSM_STATICREF:
        static_ref = interp._hook("static_ref")

        def dsm_staticref(thread, frame, left):
            ref, extra = static_ref(thread, a)
            if ref is None:
                thread.block(reexec=True, reason="static holder miss")
            else:
                frame.stack.append(ref)
                frame.pc = nxt
            return cost + extra
        return dsm_staticref

    raise JVMError(f"unimplemented opcode {op!r}")
