"""Tier-1 compiler: a hot method's traces, each tier 0's handler at its head.

A *trace* (:func:`.analysis.traces`) is the straight line from a head
through pure rows, the fall-through side of IF / IF_CMP, both access
checks and one small latch block.  Tier 1 compiles each one into a
Python function with tier 0's handler signature, ``h(thread, frame,
left) -> ns`` (``left`` is the budget the quantum has left), and puts it
into the method's fused list (:meth:`~repro.jvm.interpreter.Interpreter.fuse`)
at its head, in place of the handler that was there.
:meth:`~repro.jvm.interpreter.Interpreter.run` is then the one dispatch
loop of both tiers: every pc no trace starts at, every call, return,
block, miss and quantum tail runs on tier 0.

In a trace the operand stack is Python locals (``s0..sK``, one per
verified depth — the verifier's single-depth-per-pc invariant makes this
possible) and so are the locals it touches (``lN``); constants are
literals, and a value that cannot raise is forwarded into the expression
that uses it.  The contract is **bit-identical observable behavior**
versus tier 0 — results, protocol traffic, simulated time, exceptions —
and it falls out of four rules:

* the text of each row and of each IF / IF_CMP test is written by tier
  0's one writer (:class:`~repro.jvm.fuse.LineWriter`) over the trace's
  registers, locals and literals: the two tiers cannot differ on a row;
* a trip runs only while ``used + TOTAL < left``, and ``TOTAL`` is at
  least what the line bills before any instruction on it, so where it
  holds none of tier 0's per-instruction budget tests could fire.  Where
  the first trip does not fit, the trace calls the tier-0 handler it
  replaced; where a later one does not, it stops at its head;
* a check in a trace is its hit test only.  On anything else the trace
  leaves at the check, whose tier-0 handler redoes it — so a trace calls
  no handler, and a test the analysis marks ``known`` is skipped;
* every exit writes back the operand stack, ``frame.pc`` and the locals
  it changed, bills what ran and counts its instructions (all but the
  one the dispatch loop counts, as a fused run does).  A row that can
  trap stores ``pc`` first, and the ``except`` epilogue counts the
  instructions before it.

A trace loads only the locals it reads (a loop that closes on its own
head also those it writes, which an exit of a later trip writes back).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from ..heap import JVMError
from ..jvm.bytecode import (BRANCHES, DSM_OPS, INVOKES, LINKED, Op,
                            branch_target, instr_cost, link_slots, literal)
from ..jvm.classfile import MethodInfo
from ..jvm.codecache import cached, code_key
from ..jvm.errors import LinkError
from ..jvm.fuse import READ_MISS, LineWriter, read_miss_names
from ..jvm.interpreter import HELPERS, Interpreter
from . import analysis
from .analysis import CHECKS, CompileError, MethodAnalysis, Trace, analyze, traces

# Why a trace handed the frame back to tier 0, counted per method: the
# next trip did not fit the budget, a check's hit test failed (its
# handler takes over), the line left at a pc of tier 0's, or returned.
R_BUDGET, R_BLOCK_READ, R_BLOCK_WRITE, R_LEAVE, R_RETURN = range(5)
REASON_NAMES = ("budget", "block_read", "block_write", "leave", "return")
N_REASONS = len(REASON_NAMES)
# ``stats[TRACED]``: the instructions the method's traces ran.
TRACED = N_REASONS

# The ops that read / write a local.
_READS = frozenset({Op.LOAD, Op.IINC})
_WRITES = frozenset({Op.STORE, Op.IINC})

# Lines of trace text a method may carry per bytecode (a short method
# counts as 32), hottest heads first: compile() holds ~2.75 KB per
# emitted line until it returns, so the largest method's text is the
# process's peak.
_TRACE_LINES = 2


def _env(agent) -> Dict[str, Any]:
    """What compiled text names besides its own constants: the shared
    helpers and this JVM's bound objects."""
    jvm = agent.jvm
    ip = jvm.interpreter
    env = dict(HELPERS, **ip.bound, _JVME=JVMError, _race=ip.race_hook)
    dsm = jvm.hooks
    if dsm is not None:
        from ..dsm.objectstate import ObjState
        env.update(_LOCAL=ObjState.LOCAL, **read_miss_names(dsm))
    return env


_Text = List[Tuple[int, str]]  # (indent, line) pairs


def _plus(name: str, n: int) -> str:
    return f"{name} + {n}" if n > 0 else f"{name} - {-n}" if n else name


class _Link(tuple):
    """How a runtime finds an object the text reads (:func:`_bind`):
    neither the text nor its constants name one."""


class _Emitter:
    """Builds the source of one method's traces."""

    def __init__(self, method: MethodInfo, jvm, slots: Dict[int, int]) -> None:
        self.method = method
        self.interp: Interpreter = jvm.interpreter
        self.ana: MethodAnalysis = analyze(method, jvm)
        self.code = method.code
        self.lines: _Text = []
        self.consts: Dict[str, Any] = {}       # name in the text -> value
        self._names: Dict[Any, str] = {}
        if jvm.hooks is None and DSM_OPS & {i.op for i in self.code}:
            raise CompileError("DSM op without hooks installed")
        self._slots = slots
        # A field slot or call target that does not link ends a trace:
        # tier 0 raises the ``LinkError`` there.
        self._deopt_pcs = {
            pc for pc, instr in enumerate(self.code)
            if self.ana.depth_at[pc] is not None and (
                instr.op in LINKED and pc not in slots
                or instr.op in INVOKES
                and self.ana.invoke_targets.get(pc) is None)}

    def const(self, obj: Any, prefix: str = "K") -> str:
        """The name the text reads ``obj`` under: plain data, or a
        :class:`_Link` to an object of the runtime."""
        key = obj if type(obj) is _Link else id(obj)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"_{prefix}{len(self._names)}"
            self.consts[name] = obj
        return name

    def w(self, ind: int, text: str) -> None:
        self.lines.append((ind, text))

    def _cost(self, pc: int) -> int:
        return instr_cost(self.code[pc], self.interp.cost_tables)

    def _line(self, ind: int, depth: int) -> LineWriter:
        """The writer of a straight line over ``s0 .. s{depth-1}``."""
        return LineWriter(
            lambda pc, instr: {"a": self.lit(instr.a), "b": self.lit(instr.b),
                               "local": f"l{instr.a}",
                               "slot": self._slots.get(pc)},
            self._trap, lambda text: self.w(ind, text), depth,
            lambda pc, instr: self.const(_Link(("instr", pc)), "I")
            if self.interp.observes(instr) else None)

    def lit(self, v: Any) -> str:
        return literal(v) or self.const(v)

    def _trap(self, pc: int) -> str:
        """A row that can raise stores where it is first; the ``except``
        epilogue counts what the trip ran before it, less what the
        dispatch loop adds for the distance from the head."""
        self._unrun[pc] = self._count[pc] - (pc - self._trace.head)
        return f"pc = {pc}"

    # ==================================================================
    def compile(self):
        """``(code object, text, trace heads, constants)`` of the method:
        the text defines ``_jit_make(fused)``, which puts each trace
        into ``fused`` at its head."""
        method = self.method
        self.w(0, "def _jit_make(fused):")
        heads = []
        for head, text in self._fitting_traces():
            self.w(1, f"_h{head} = fused[{head}]")
            self.lines += [(1 + ind, line) for ind, line in text]
            self.w(1, f"fused[{head}] = _t{head}")
            heads.append(head)
        if not heads:
            self.w(1, "pass")
        src = "".join(f"{'    ' * ind}{text}\n" for ind, text in self.lines)
        return (compile(src, f"<jit {method.klass}.{method.name}>", "exec"),
                src, tuple(heads), self.consts)

    def _fitting_traces(self) -> List[Tuple[int, _Text]]:
        """Head and text of the hottest traces — deepest static loop
        first, then pc order, so the method entry leads its depth — whose
        text fits ``_TRACE_LINES`` per bytecode."""
        code = self.code
        found = traces(self.method, self.interp.cost_tables,
                       self.ana.branch_targets, self._deopt_pcs)
        loops = [(branch_target(i), pc) for pc, i in enumerate(code)
                 if i.op in BRANCHES and branch_target(i) <= pc]
        room = _TRACE_LINES * max(len(code), 32)
        out = []
        for head in sorted(
                (h for h in found if self.ana.depth_at[h] is not None),
                key=lambda h: (-sum(first <= h <= last
                                    for first, last in loops), h)):
            text = self._emit_trace(found[head])
            room -= len(text)
            if room < 0:
                break
            out.append((head, text))
        return out

    # ==================================================================
    def _through(self, t: Trace, target: int) -> int:
        """Where a jump to ``target`` leaves the line: past the latch
        block it runs through, if ``target`` is one."""
        end = t.latches.get(target)
        return target if end is None else branch_target(self.code[end])

    def _emit_trace(self, t: Trace) -> _Text:
        """``def _t<head>(thread, frame, left)`` at indent 0."""
        outer, self.lines = self.lines, []
        code, head = self.code, t.head
        last = code[t.steps[-1][0]].op
        self._loops = (
            last is not Op.RETURN and last is not Op.RETVAL
            and self._through(t, head if t.stop is None else t.stop) == head
            or any(code[pc].op in (Op.IF, Op.IF_CMP)
                   and self._through(t, branch_target(code[pc])) == head
                   for pc, *_ in t.steps))
        pcs = [pc for pc, *_ in t.steps] + [
            pc for start, end in t.latches.items()
            for pc in range(start, end)]
        reads, self._writes = ({code[pc].a for pc in pcs if code[pc].op in ops}
                               for ops in (_READS, _WRITES))
        self._trace, self._stored = t, []
        self._count = {pc: n for pc, _, n, _ in t.steps}
        self._unrun: Dict[int, int] = {}
        self._depth = depth = self.ana.depth_at[head]
        w = self.w
        w(0, f"def _t{head}(thread, frame, left):")
        w(1, f"if left <= {t.total}:")
        w(2, f"return _h{head}(thread, frame, left)")
        w(1, "st = frame.stack")
        stack_at = len(self.lines) - 1
        if depth:
            w(1, f"{', '.join(f's{k}' for k in range(depth))}, = st")
        load = sorted(reads | self._writes if self._loops else reads)
        if load or self._writes:
            w(1, "fl = frame.locals")
        for slot in load:
            w(1, f"l{slot} = fl[{slot}]")
        if self._loops:
            w(1, "used = icount = 0")
        w(1, "try:")
        body = len(self.lines)
        ind = 2
        if self._loops:
            w(2, f"while used + {t.total} < left:")
            ind = 3
        line = self._line(ind, depth)
        if self._straight(ind, line, t.steps):  # did not return
            pc, ns, n, _ = t.steps[-1]
            self._jump(ind, head if t.stop is None else t.stop, line,
                       (ns + self._cost(pc), n + 1))
        if self._loops:  # the next trip does not fit: stop at the head
            self._exit(2, head, [f"s{k}" for k in range(depth)], R_BUDGET,
                       0, 0)
        if self._unrun:
            w(1, "except _JVME:")
            w(2, "frame.pc = pc")
            w(2, f"thread.instructions += {'icount + ' * self._loops}"
                 f"{self.const(self._unrun, 'T')}[pc]")
            w(2, "raise")
        else:  # nothing on the line traps: no ``try``
            self.lines[body - 1:] = [(i - 1, text)
                                     for i, text in self.lines[body:]]
        if not any(re.search(r"\bst\b", text)
                   for _, text in self.lines[stack_at + 1:]):
            del self.lines[stack_at]
        text, self.lines = self.lines, outer
        return text

    def _exit(self, ind: int, target: int, stack: List[str], reason: int,
              ns: int, n: int) -> None:
        """Hand the frame back at ``target``: the operand stack
        ``stack``, the locals written so far, what ran billed and
        counted."""
        w = lambda text: self.w(ind, text)  # noqa: E731
        values = ", ".join(stack) + ("," if len(stack) == 1 else "")
        if self._depth:
            w(f"st[:] = ({values})" if stack else "st.clear()")
        elif len(stack) == 1:
            w(f"st.append({stack[0]})")
        elif stack:
            w(f"st.extend(({values}))")
        for slot in sorted(self._writes if self._loops else set(self._stored)):
            w(f"fl[{slot}] = l{slot}")
        w(f"frame.pc = {target}")
        self._count_out(ind, reason, ns, n)

    def _count_out(self, ind: int, reason: int, ns: int, n: int) -> None:
        """Count the ``n`` instructions of this trip (and those of the
        trips before it), all but one to the thread, and bill ``ns``."""
        w = lambda text: self.w(ind, text)  # noqa: E731
        if self._loops:
            w(f"thread.instructions += {_plus('icount', n - 1)}")
        elif n != 1:
            w(f"thread.instructions += {n - 1}")
        w(f"_S[{reason}] += 1")
        w(f"_S[{TRACED}] += {_plus('icount', n) if self._loops else n}")
        w(f"return {_plus('used', ns) if self._loops else ns}")

    def _jump(self, ind: int, target: int, line: LineWriter, at: Tuple[int, int],
              reason: int = R_LEAVE) -> None:
        """Leave for ``target`` having run ``at`` (ns, instructions) —
        through the latch block, if ``target`` is one — and ``continue``
        at the trace's own head or hand the frame back."""
        t = self._trace
        ns, n = at
        line = line.fork(lambda text: self.w(ind, text))
        stored = len(self._stored)
        end = t.latches.get(target)
        if end is not None:
            self._straight(ind, line, [(pc, 0, 0, False)
                                       for pc in range(target, end)])
            ns += sum(map(self._cost, range(target, end + 1)))
            n += end + 1 - target
            target = branch_target(self.code[end])
        if target == t.head:
            line.flush()
            if ns:
                self.w(ind, f"used += {ns}")
            self.w(ind, f"icount += {n}")
            self.w(ind, "continue")
        else:
            self._exit(ind, target, line.stack, reason, ns, n)
        del self._stored[stored:]

    def _straight(self, ind: int, line: LineWriter, steps) -> bool:
        """Drive ``line`` along ``steps`` — ``(pc, ns, count, known)`` —
        writing each check's hit test and every taken branch's exit;
        False when it returned.  A GOTO is followed: what it jumps to is
        the caller's."""
        code = self.code
        for pc, ns, n, known in steps:
            instr = code[pc]
            op = instr.op
            if op in CHECKS:
                if not known:
                    ref = line.value(instr.a)
                    miss = (READ_MISS if op is Op.DSM_READCHECK
                            else "_h is None or _h.state != _LOCAL")
                    miss = miss.replace("_h", f"(_h := {ref}.header)", 1)
                    self.w(ind, f"if {ref} is None or {miss}:")
                    self._jump(ind + 1, pc, line, (ns, n), R_BLOCK_READ
                               if op is Op.DSM_READCHECK else R_BLOCK_WRITE)
            elif op is Op.RETURN or op is Op.RETVAL:
                val = line.value(0) if op is Op.RETVAL else "None"
                self.w(ind, "thread.frames.pop()")
                self.w(ind, "if not thread.frames:")
                self.w(ind + 1, f"thread.finish({val})")
                self.w(ind, "else:")
                self.w(ind + 1, "_c = thread.frames[-1]")
                self.w(ind + 1, "_c.pc += 1")
                if op is Op.RETVAL:
                    self.w(ind + 1, f"_c.stack.append({val})")
                self._count_out(ind, R_RETURN, ns + self._cost(pc), n + 1)
                return False
            elif op is not Op.GOTO:
                test = line.row(pc, instr, known)
                if op in _WRITES:
                    self._stored.append(instr.a)
                if test is not None:
                    self.w(ind, f"if {test}:")
                    self._jump(ind + 1, branch_target(instr), line,
                               (ns + self._cost(pc), n + 1))
        return True


def _callee(jvm, instr) -> Optional[Tuple[Any, ...]]:
    """What the analysis reads of an invoke's resolved target."""
    try:
        m = jvm.resolve_method(instr.a, instr.b)
    except LinkError:
        return None
    return m.klass, m.name, tuple(m.params), m.ret, m.flags


def _key(method: MethodInfo, jvm, slots: Dict[int, int]):
    """Everything the emitted text depends on, as plain data."""
    return ("jit", method.klass, method.name, method.is_native,
            code_key(method.code),
            tuple(sorted(jvm.cost_model.costs.items())),
            jvm.interpreter.race_hook is not None, tuple(slots.items()),
            tuple(_callee(jvm, i) for i in method.code if i.op in INVOKES),
            jvm.hooks is None, _TRACE_LINES, analysis._LATCH_OPS)


def _emit(method: MethodInfo, jvm, slots: Dict[int, int]):
    """What the emitter makes of ``method``, or why it declined."""
    try:
        return _Emitter(method, jvm, slots).compile()
    except CompileError as exc:
        return str(exc)


def _bind(method: MethodInfo, kind: str, pc: int) -> Any:
    """What a :class:`_Link` finds in a runtime: an instruction of
    ``method`` by pc (the race observer's)."""
    assert kind == "instr", kind
    return method.code[pc]


def compile_method(method: MethodInfo, agent):
    """Compile one method for one worker's JVM; raises CompileError.
    Returns ``_jit_make``: ``_jit_make(fused)`` puts the traces into
    ``fused``, this JVM's fused list of ``method``.  The text depends on
    the method's content, the brand's costs, the race switch, the field
    slots it links, the arity of its invokes and the emitter's limits
    (``_key``): it is emitted and compiled — or declined — once per
    process for each such key (:mod:`repro.jvm.codecache`), and every
    JVM execs the shared code object over its own hooks and objects."""
    jvm = agent.jvm
    slots = link_slots(method.code, jvm.field_index)
    emitted = cached(_key(method, jvm, slots),
                     lambda: _emit(method, jvm, slots))
    if isinstance(emitted, str):
        raise CompileError(emitted)
    code_obj, src, heads, consts = emitted
    stats = [0] * (N_REASONS + 1)
    ns: Dict[str, Any] = {}
    exec(code_obj, {**_env(agent), "_S": stats, **{  # noqa: S102 - the JIT
        name: _bind(method, *v) if type(v) is _Link else v
        for name, v in consts.items()}}, ns)
    make = ns["_jit_make"]
    make.heads = heads
    make.method = method
    make.source = src
    make.stats = stats
    return make
