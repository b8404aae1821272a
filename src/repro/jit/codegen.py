"""Tier-1 compiler: one rewritten bytecode method → one Python function.

The generated function executes the method's bytecode as *threaded
code*: the operand stack is mapped onto Python locals (``s0..sK``, one
per verified stack depth — the verifier's single-depth-per-pc invariant
makes this possible), constants are folded into literals, a value that
cannot raise is forwarded into the expression that uses it, and the
simulated per-instruction cost is pre-summed per straight-line run and
charged with one addition at run entry.

The contract is **bit-identical observable behavior** versus the
interpreter: same results, same protocol traffic, same simulated time,
same exceptions.  That falls out of four rules:

* straight-line text — each pure row and each IF / IF_CMP test — is
  written by tier 0's one writer (:class:`~repro.jvm.fuse.LineWriter`)
  over this site's registers, locals and literals: the two tiers
  cannot differ on a row;
* every op that can block or leave the frame (DSM checks, acquire/
  release, monitors, invokes) is a *special*: it gets the interpreter's
  exact budget test (``used >= budget``), calls the very same bound
  hook methods, and charges base + hook cost per instruction;
* a pre-summed run executes only when its whole cost fits the
  remaining budget — otherwise the function materializes the
  interpreter state (pc, operand stack, mutated locals) and returns
  ``R_BUDGET``, and the manager finishes the quantum with the plain
  interpreter, reproducing the interpreter's exact overshoot boundary;
* anything unresolvable at compile time becomes a deopt stub that
  materializes state and lets the interpreter execute that pc.

Layout: the function is one ``while True`` loop over *arms*, one per
entry pc, emitted in ascending pc order as sequential ``if pc == K:``
blocks under a balanced tree of ``if pc < M:`` skip guards.  An arm
that runs into the next entry sets ``pc`` and falls through; only a
taken branch or a back edge ``continue``s and descends the tree again.
A leave site says only ``pc`` and why; the one epilogue behind the loop
materializes the frame from ``pc`` and a depth table.  In front of a
head's arm stands its *trace* (:func:`.analysis.traces`): ``while used +
TOTAL < budget:`` and then the whole straight line with no ``if pc ==``
and no budget test, ``used`` and ``icount`` charged once per exit from
compile-time prefixes.  ``TOTAL`` is at least every ``used + prefix``
the covered arms test, so where it holds none of their tests can fire,
and where it does not the ``else:`` runs the arm as ever.  A check in a
trace is its hit test only; on anything else the trace sets ``pc`` and
breaks to the check's arm, which redoes it with the handler — so a trace
calls no handler, and a test the analysis marks ``known`` is skipped.  A
jump to the trace's own head is the inner ``continue``; every other exit
breaks and falls forward to its arm, storing what is still pending
into its registers first.  A row that can trap stores ``pc`` first
(``~pc`` in a trace, which has not counted its instructions yet) and
the ``except`` epilogue counts the instructions before it.

Compiled code inlines the pass-through of the §4.2 read check (one
compare of the header's state; the handler runs on a miss only) and
the §4.4 local-lock fast path (the uncontended ``DSM_ACQUIRE``/
``DSM_RELEASE`` case), runs a call to a ``Math`` method as its row,
and calls the other whitelisted pure natives without materializing the
frame.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..heap import ArrayObj, JVMError
from ..sim import cost_model as cm
from ..sim.node import StreamState
from ..jvm.bytecode import (BRANCHES, DSM_OPS, INVOKES, LINKED, Instr, Op,
                            branch_target, instr_cost, link_slots, literal,
                            native_of)
from ..jvm.classfile import MethodInfo
from ..jvm.codecache import cached, code_key
from ..jvm.errors import LinkError
from ..jvm.frame import Frame
from ..jvm.fuse import READ_MISS, LineWriter, read_miss_names
from ..jvm.interpreter import BLOCK, HELPERS, NO_VALUE, Interpreter
from . import analysis
from .analysis import (CHECKS, SPECIAL_OPS, CompileError, MethodAnalysis,
                       Trace, analyze, pre_summed_runs, traces)

# Exit reason codes returned by compiled functions.
R_BUDGET = 0          # quantum budget exhausted (interpreter tail runs)
R_BLOCK_READ = 1      # DSM read-check miss (re-exec style block)
R_BLOCK_WRITE = 2     # DSM write-check miss
R_BLOCK_STATIC = 3    # DSM static-holder miss
R_BLOCK_ACQUIRE = 4   # contended distributed lock
R_BLOCK_MONITOR = 5   # contended local monitor
R_BLOCK_NATIVE = 6    # native blocked the thread (e.g. wait, Serve.next)
R_CALL = 7            # callee not compiled — interpreter executes the invoke
R_RETURN = 8          # method returned (frame popped)
R_DEOPT = 9           # compile-time-unresolvable site — interpreter takes over

REASON_NAMES = (
    "budget", "block_read", "block_write", "block_static", "block_acquire",
    "block_monitor", "block_native", "call_exit", "return", "deopt",
)
N_REASONS = len(REASON_NAMES)

# Hard caps on generated statements and on nesting (skip-tree depth +
# arm nesting; CPython's tokenizer refuses 100 indentation levels):
# methods beyond either stay interpreted.
_MAX_STATEMENTS = 20000
_MAX_INDENT = 90

# Arms per leaf of the dispatch skip tree: a descent costs log2(arms /
# leaf) guard compares plus at most this many equality tests.
_LEAF_ARMS = 4

# Lines of trace text a method may carry per bytecode (a short method
# counts as 32), hottest heads first: compile() holds ~2.75 KB per
# emitted line until it returns, so the largest method's text is the
# process's peak.
_TRACE_LINES = 2

# Nested compiled-to-compiled call depth cap (Python stack headroom);
# deeper recursion falls back to one interpreter step per call.
_MAX_CALL_DEPTH = 30


def _is_pure_native(m: MethodInfo) -> bool:
    """Natives that are pure functions of (jvm, thread, args): never
    block, never return NO_VALUE, touch no frame — safe to call from
    compiled code without materializing the interpreter frame.  (A
    ``Math`` call is no call but its ``bytecode.MATH`` row.)"""
    if m.ret == "void":
        return False
    if m.klass in ("String", "javasplit.String"):
        return True
    return m.klass in ("Sys", "javasplit.Sys") and m.name in (
        "currentTimeMillis", "nanoTime")


def _switches(jvm) -> Tuple[bool, bool, bool]:
    """What emitted text depends on besides the method and the brand's
    costs: whether accesses are observed (race detector), whether the
    §4.4 local-lock fast path is inlined, and whether it has
    ``lock_edge`` subscribers to call."""
    dsm = jvm.hooks
    return (jvm.interpreter.race_hook is not None,
            dsm is not None and bool(dsm.config.local_lock_opt),
            dsm is not None and bool(dsm.hooks.lock_edge))


def _env(agent) -> Dict[str, Any]:
    """What compiled text names besides its own constants: the shared
    helpers and this JVM's bound hooks."""
    jvm = agent.jvm
    ip = jvm.interpreter
    env = dict(
        HELPERS, **ip.bound,
        _JVME=JVMError, _Frame=Frame, _Arr=ArrayObj,
        _RUN=StreamState.RUNNABLE, _NOV=NO_VALUE, _BLK=BLOCK, _jvm=jvm,
        _menter=ip._monitor_enter, _mexit=ip._monitor_exit,
        _resolve=jvm.resolve_method, _native=jvm.native, _CACHE=agent.cache,
        _race=ip.race_hook,
    )
    dsm = jvm.hooks
    if dsm is not None:
        from ..dsm.objectstate import ObjState
        env.update(
            _readcheck=dsm.read_check, _writecheck=dsm.write_check,
            _staticref=dsm.static_ref, _acquire=dsm.acquire,
            _release=dsm.release, _stats=dsm.stats,
            _LOCAL=ObjState.LOCAL, **read_miss_names(dsm),
            # Subscribers of the engine's lock_edge point (the race
            # detector's §4.4 local-lock clocks) fire from the inlined
            # fast path too.
            _lock_edge=dsm.hooks.lock_edge,
        )
    return env


_Text = List[Tuple[int, str]]  # (indent, line) pairs


class _Link(tuple):
    """How a runtime finds an object the text reads (:func:`_bind`):
    neither the text nor its constants name one."""


class _Emitter:
    """Builds the source of one compiled method."""

    def __init__(self, method: MethodInfo, jvm, switches,
                 slots: Dict[int, int]) -> None:
        self.method = method
        self.jvm = jvm
        self.interp: Interpreter = jvm.interpreter
        self.ana: MethodAnalysis = analyze(method, jvm)
        self.code = method.code
        self.lines: _Text = []
        self.consts: Dict[str, Any] = {}       # name in the text -> value
        self._names: Dict[Any, str] = {}
        # The race switch: ``Interpreter.observes``, per access.
        _, self._lock_opt, self._lock_edge = switches
        if jvm.hooks is None and DSM_OPS & {i.op for i in self.code}:
            raise CompileError("DSM op without hooks installed")
        self._slots = slots
        self._trace: Optional[Trace] = None    # the one being printed
        self._left: Set[int] = set()           # stack depths at leave sites
        # Trapping pc of an arm -> instructions counted but not run (an
        # arm counts a run before it runs); pc of a trace -> instructions
        # run but not counted (a trace counts at its exits).
        self._unrun: Dict[int, int] = {}
        self._traced: Dict[int, int] = {}
        self._resolve_sites()
        self.entry_set = self._entries()
        self._runs = {start: run for start, *run in pre_summed_runs(
            method, self.interp.cost_tables, self._deopt_pcs)}

    def const(self, obj: Any, prefix: str = "K") -> str:
        """The name the text reads ``obj`` under: plain data, or a
        :class:`_Link` to an object of the runtime."""
        key = obj if type(obj) is _Link else id(obj)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"_{prefix}{len(self._names)}"
            self.consts[name] = obj
        return name

    def lit(self, v: Any) -> str:
        return literal(v) or self.const(v)

    # -- compile-time resolution --------------------------------------
    def _resolve_sites(self) -> None:
        """A field slot or invoke target that does not link makes its
        site a deopt: the interpreter raises the ``LinkError`` there."""
        self._deopt_pcs = {
            pc for pc, instr in enumerate(self.code)
            if self.ana.depth_at[pc] is not None and (
                instr.op in LINKED and pc not in self._slots
                or instr.op in INVOKES
                and self.ana.invoke_targets.get(pc) is None)}

    def _entries(self) -> Set[int]:
        """Every pc the compiled function can be entered at.  A quantum
        can end anywhere (the interpreter tail runs to the exact budget
        boundary), but compiled code only *starts* at: method entry,
        branch targets, and each special op or deopt site and its
        successor (a blocked thread resumes at, or just after, the op
        that blocked)."""
        depth = self.ana.depth_at
        pcs = {0, *self.ana.branch_targets}
        for pc, instr in enumerate(self.code):
            if depth[pc] is not None and (instr.op in SPECIAL_OPS
                                          or pc in self._deopt_pcs):
                pcs.update((pc, pc + 1))
        return {pc for pc in pcs if pc < len(depth) and depth[pc] is not None}

    # -- line helpers --------------------------------------------------
    def w(self, ind: int, text: str) -> None:
        self.lines.append((ind, text))
        if len(self.lines) > _MAX_STATEMENTS or ind > _MAX_INDENT:
            raise CompileError(
                f"{self.method.klass}.{self.method.name}: method too "
                f"large to compile")

    def _cost(self, instr: Instr) -> int:
        return instr_cost(instr, self.interp.cost_tables)

    def _sync_stack(self, ind: int, depth: int) -> None:
        if depth:
            regs = ", ".join(f"s{i}" for i in range(depth))
            tail = "," if depth == 1 else ""
            self.w(ind, f"st[:] = ({regs}{tail})")
        else:
            self.w(ind, "del st[:]")

    def _sync_locals(self, ind: int) -> None:
        for slot in sorted(self.ana.mutated_locals):
            self.w(ind, f"fl[{slot}] = l{slot}")

    def _sync(self, ind: int, pc: int, depth: int) -> None:
        """Materialize the interpreter frame at (pc, depth)."""
        self.w(ind, f"frame.pc = {pc}")
        self._sync_stack(ind, depth)
        self._sync_locals(ind)

    def _leave(self, ind: int, pc: int, reason: int) -> None:
        """Give the frame at ``pc`` back to the interpreter: the site
        says where and why, the one epilogue behind the dispatch loop
        stores pc, operand stack and locals and returns ``reason``."""
        self._left.add(self.ana.depth_at[pc])
        if pc != self._arm:
            self.w(ind, f"pc = {pc}")
        if reason != R_BUDGET:
            self.w(ind, f"_why = {reason}")
        self.w(ind, "break")

    def _flush_ret(self, ind: int, reason: str) -> None:
        self.w(ind, "thread.instructions += icount")
        self.w(ind, f"return used, {reason}")

    def _guard_special(self, ind: int, pc: int) -> None:
        """The interpreter's exact one-instruction budget test."""
        self.w(ind, "if used >= budget:")
        self._leave(ind + 1, pc, R_BUDGET)

    def _trap(self, pc: int) -> Optional[str]:
        """A row that can raise stores where it is first, and the
        ``except`` epilogue counts the instructions before it: an arm
        has counted its whole run, a trace (which stores ``~pc``)
        nothing since its head."""
        if self._trace is not None:
            return f"pc = {~pc}"
        self._unrun[pc] = self._run_end - pc
        return f"pc = {pc}" if pc != self._arm else None

    def _line(self, ind: int, depth: int) -> LineWriter:
        """The writer of a straight line over ``s0 .. s{depth-1}``."""
        return LineWriter(
            lambda pc, instr: {"a": self.lit(instr.a), "b": self.lit(instr.b),
                               "local": f"l{instr.a}",
                               "slot": self._slots.get(pc)},
            self._trap, lambda text: self.w(ind, text), depth,
            lambda pc, instr: self.const(_Link(("instr", pc)), "I")
            if self.interp.observes(instr) else None)

    # ==================================================================
    def compile(self):
        """``(code object, text, entry pcs, constants)`` of the method."""
        method = self.method
        self.w(0, "def _jit_fn(thread, frame, budget, depth):")
        self.w(1, "used = icount = _why = 0")
        self.w(1, "st = frame.stack")
        self.w(1, "fl = frame.locals")
        for slot in sorted(self.ana.used_locals):
            self.w(1, f"l{slot} = fl[{slot}]")
        self.w(1, "pc = frame.pc")
        entries = sorted(self.entry_set)
        maxd = max((self.ana.depth_at[e] for e in entries), default=0)
        if maxd:
            self.w(1, "_n = len(st)")
            for k in range(1, maxd + 1):
                self.w(1, f"{'el' * (k > 1)}if _n == {k}:")
                self.w(2, "; ".join(f"s{i} = st[{i}]" for i in range(k)))
        self.w(1, "try:")
        self.w(2, "while True:")
        self._traces = self._fitting_traces()
        self._emit_ladder(entries, 0, len(entries), 3)
        self.w(3, "raise RuntimeError('jit: pc %d is not a compiled "
                  "entry of %s.%s' % (pc, "
                  f"{method.klass!r}, {method.name!r}))")
        # The shared exit epilogue every _leave() breaks to.  Its tables
        # are constants, not text: compile() would hold a node per entry.
        depths = self.const(tuple(d or 0 for d in self.ana.depth_at), "D")
        self.w(2, "frame.pc = pc")
        self.w(2, f"_n = {depths}[pc]")
        for k, depth in enumerate(sorted(self._left)):
            self.w(2, f"{'el' * (k > 0)}if _n == {depth}:")
            self._sync_stack(3, depth)
        self._sync_locals(2)
        self._flush_ret(2, "_why")
        # The interpreter records the failure against the *innermost*
        # frame only; _jit_failed keeps nested compiled calls from
        # re-recording it on the way out.
        self.w(1, "except _JVME as exc:")
        if self._traced:
            self.w(2, "if pc < 0:")
            self.w(3, "pc = ~pc")
            self.w(3, f"icount += {self.const(self._traced, 'T')}[pc]")
            self.w(2, "else:")
        self.w(2 + bool(self._traced),
               f"icount -= {self.const(self._unrun, 'U')}.get(pc, 0)")
        self.w(2, "thread.instructions += icount")
        self.w(2, "if not getattr(exc, '_jit_failed', False):")
        self.w(3, "exc._jit_failed = True")
        self.w(3, "frame.pc = pc")
        self.w(3, "thread.fail(exc, frame.where())")
        self.w(2, "raise")
        src = "".join(f"{'    ' * ind}{text}\n" for ind, text in self.lines)
        return (compile(src, f"<jit {method.klass}.{method.name}>", "exec"),
                src, frozenset(self.entry_set), self.consts)

    # ==================================================================
    def _fitting_traces(self) -> Dict[int, Tuple[_Text, bool]]:
        """Head -> what ``_emit_trace`` made of its trace, for the hottest heads — deepest
        static loop first, then pc order, so the method entry leads its
        depth — whose text fits ``_TRACE_LINES`` per bytecode."""
        code = self.code
        found = traces(self.method, self.interp.cost_tables,
                       self.ana.branch_targets, self._deopt_pcs)
        loops = [(branch_target(i), pc) for pc, i in enumerate(code)
                 if i.op in BRANCHES and branch_target(i) <= pc]
        room = _TRACE_LINES * max(len(code), 32)
        out = {}
        for head in sorted(
                found.keys() & self.entry_set, key=lambda h: (
                    -sum(first <= h <= last for first, last in loops), h)):
            text = self._emit_trace(found[head])
            room -= len(text[0])
            if room < 0:
                break
            out[head] = text
            self._traced.update((pc, n) for pc, _, n, _ in found[head].steps)
        return out

    def _emit_trace(self, t: Trace) -> Tuple[_Text, bool]:
        """One trace at indent 0, up to the ``else:`` its head's arm goes
        under, and whether an exit of it goes backwards."""
        arms, self.lines = self.lines, []
        self._trace, self._loops, self._back = t, False, False
        self.w(0, f"while used + {t.total} < budget:")
        line = self._line(1, self.ana.depth_at[t.head])
        if self._straight(1, line, t.steps):  # did not return
            pc, ns, n, _ = t.steps[-1]
            self._jump(1, t.head if t.stop is None else t.stop, line,
                       (ns + self._cost(self.code[pc]), n + 1))
        self.w(0, "else:")
        if self._loops:  # the last trip's trap rows left ``~pc``
            self.w(1, f"pc = {t.head}")
        self._trace = None
        text, self.lines = self.lines, arms
        return text, self._back

    # ==================================================================
    def _emit_ladder(self, entries: List[int], lo: int, hi: int,
                     ind: int) -> None:
        """Arms ``entries[lo:hi]`` in ascending pc order, as sequential
        ``if pc == K:`` blocks under a balanced tree of ``if pc < M:``
        skip guards.  Siblings are sequential, never ``else``: an arm
        that ends at the next entry in order sets ``pc`` and falls
        through into it, and only a taken branch or a back edge
        ``continue``s into the O(log arms) descent from the top.  A
        head's trace stands in front of its arm; what it breaks out of
        falls forward the same way."""
        while hi - lo > _LEAF_ARMS:
            mid = (lo + hi) // 2
            self.w(ind, f"if pc < {entries[mid]}:")
            self._emit_ladder(entries, lo, mid, ind + 1)
            lo = mid
        for i in range(lo, hi):
            entry = entries[i]
            self.w(ind, f"if pc == {entry}:")
            text, back = self._traces.get(entry, ((), False))
            for rel, line in text:
                self.w(ind + 1 + rel, line)
            self._emit_arm(entry, ind + 1 + bool(text),
                           entries[i + 1] if i + 1 < len(entries) else None)
            if back:
                self.w(ind + 1, f"if pc < {entry}:")
                self.w(ind + 2, "continue")

    def _jump(self, ind: int, target: int,
              line: Optional[LineWriter] = None, at=(0, 0)) -> None:
        """Leave for the arm of ``target``, the stack of ``line``
        materialized; in a trace, charge ``at`` (what ran), then
        ``continue`` at its own head or break to fall forward — through
        the latch block, if ``target`` is one."""
        t = self._trace
        ns, n = at
        if line is not None:
            line = line.fork(lambda text: self.w(ind, text))
            end = t.latches.get(target) if t else None
            if end is not None:
                self._straight(ind, line, [(pc, 0, 0, False)
                                           for pc in range(target, end)])
                ns += sum(map(self._cost, self.code[target:end + 1]))
                n += end + 1 - target
                target = branch_target(self.code[end])
            line.flush()
        if t is None:
            self.w(ind, f"pc = {target}")
            # Falling through is only right when the target's arm is the
            # textually next one and nothing of this arm is left to skip.
            if (ind, target) != self._falls_into:
                self.w(ind, "continue")
            return
        if ns:
            self.w(ind, f"used += {ns}")
        self.w(ind, f"icount += {n}")
        if target == t.head:
            self._loops = True
            self.w(ind, "continue")
        else:
            self._back |= target < t.head
            self.w(ind, f"pc = {target}")
            self.w(ind, "break")

    def _emit_arm(self, entry: int, ind: int,
                  next_entry: Optional[int]) -> None:
        """Tail-duplicate from `entry` until control leaves the arm."""
        code = self.code
        self._falls_into = (ind, next_entry)
        self._arm = entry
        pc = entry
        d = self.ana.depth_at[entry]
        while True:
            instr = code[pc]
            op = instr.op
            if pc != entry and pc in self.entry_set:
                # Another arm owns this pc: go there instead of tail-
                # duplicating (keeps generated code linear in method
                # size; the emitted state is exactly that arm's entry
                # state, so the jump is free of re-materialization).
                self._jump(ind, pc)
                return
            if pc in self._deopt_pcs:
                self._leave(ind, pc, R_DEOPT)
                return
            if op in SPECIAL_OPS:
                res = self._emit_special(ind, pc, instr, d)
                if res is None:
                    return
                d = res
                pc += 1
                continue
            # A pre-summed straight-line run of pure ops.
            end, total = self._runs[pc]
            self.w(ind, f"if used + {total} >= budget:")
            self._leave(ind + 1, pc, R_BUDGET)
            self.w(ind, f"used += {total}")
            self.w(ind, f"icount += {end - pc}")
            self._run_end = end
            line = self._line(ind, d)
            if not self._straight(ind, line, [(rpc, 0, 0, False)
                                              for rpc in range(pc, end)]):
                return
            if code[end - 1].op is Op.GOTO:
                self._jump(ind, branch_target(code[end - 1]), line)
                return
            line.flush()
            d = len(line.stack)
            pc = end

    def _straight(self, ind: int, line: LineWriter, steps) -> bool:
        """Drive ``line`` along ``steps`` — ``(pc, ns, count, known)``, a
        trace's or an arm run's — writing a trace's check tests and
        every taken branch's exit; False when it returned.  A GOTO is
        followed: what it jumps to is the caller's."""
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
                    self._jump(ind + 1, pc, line, (ns, n))
            elif op is Op.RETURN or op is Op.RETVAL:
                val = line.value(0) if op is Op.RETVAL else "None"
                if self._trace is not None:
                    self.w(ind, f"used += {ns + self._cost(instr)}")
                    self.w(ind, f"icount += {n + 1}")
                self.w(ind, "thread.frames.pop()")
                self.w(ind, "if not thread.frames:")
                self.w(ind + 1, f"thread.finish({val})")
                self.w(ind, "else:")
                self.w(ind + 1, "_c = thread.frames[-1]")
                self.w(ind + 1, "_c.pc += 1")
                if op is Op.RETVAL:
                    self.w(ind + 1, f"_c.stack.append({val})")
                self._flush_ret(ind, "8")
                return False
            elif op is not Op.GOTO:
                test = line.row(pc, instr, known)
                if test is not None:
                    self.w(ind, f"if {test}:")
                    self._jump(ind + 1, branch_target(instr), line,
                               (ns + self._cost(instr), n + 1))
        return True

    # -- specials ------------------------------------------------------
    def _emit_special(self, ind: int, pc: int, instr: Instr,
                      d: int) -> Optional[int]:
        """One blocking-capable op; returns depth after, None = arm ends."""
        name = "invoke" if instr.op in INVOKES else instr.op.name.lower()
        emit = getattr(self, "_emit_" + name.replace("dsm_", ""))
        return emit(ind, pc, instr, d)

    def _emit_readcheck(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        a = instr.a
        w(ind, f"_r = s{d - 1 - a}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('read check on null')")
        cost = self._cost(instr)
        # §4.2 inline check: the pass-through of DsmEngine.read_check is
        # one compare of the header's state; only a miss (or a split
        # array, whose regions carry the state — the engine's live
        # table, so arrays promoted after this compile still resolve)
        # calls the handler.
        w(ind, "_h = _r.header")
        w(ind, f"if {READ_MISS}:")
        w(ind + 1, f"frame.pc = {pc}")
        idx = (f"(s{d - a} if isinstance(_r, _Arr) else None)"
               if a >= 1 else "None")
        w(ind + 1, f"_ok, _x = _readcheck(thread, _r, {idx})")
        w(ind + 1, f"used += {cost} + _x" if cost else "used += _x")
        w(ind + 1, "if not _ok:")
        w(ind + 2, "icount += 1")
        w(ind + 2, "thread.block(reexec=True, reason='read miss')")
        self._leave(ind + 2, pc, R_BLOCK_READ)
        if cost:
            w(ind, "else:")
            w(ind + 1, f"used += {cost}")
        w(ind, "icount += 1")
        return d

    def _emit_writecheck(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        a = instr.a
        w(ind, f"frame.pc = {pc}")
        w(ind, f"_r = s{d - 1 - a}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('write check on null')")
        val = f"s{d - 1 - instr.b}" if instr.b is not None else "None"
        idx = (f"(s{d - a} if isinstance(_r, _Arr) else None)"
               if a >= 2 else "None")
        w(ind, f"_ok, _x = _writecheck(thread, _r, {val}, {idx})")
        cost = self._cost(instr)
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "icount += 1")
        w(ind, "if not _ok:")
        w(ind + 1, "thread.block(reexec=True, reason='write miss')")
        self._leave(ind + 1, pc, R_BLOCK_WRITE)
        return d

    def _emit_staticref(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        w(ind, f"frame.pc = {pc}")
        w(ind, f"_r, _x = _staticref(thread, {instr.a!r})")
        cost = self._cost(instr)
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "icount += 1")
        w(ind, "if _r is None:")
        w(ind + 1, "thread.block(reexec=True, "
                   "reason='static holder miss')")
        self._leave(ind + 1, pc, R_BLOCK_STATIC)
        w(ind, f"s{d} = _r")
        return d + 1

    def _emit_acquire(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('acquire on null')")
        cost = self._cost(instr)
        ll = self.jvm.cost_model[cm.LOCAL_LOCK_OP]
        if self._lock_opt:
            # §4.4 inline fast path: uncontended local lock, no hook
            # call at all — the exact happy path of DsmEngine.acquire.
            w(ind, "_h = _r.header")
            w(ind, "if _h is not None and _h.state == _LOCAL and "
                   "(_h.lock_owner is None or _h.lock_owner is thread):")
            w(ind + 1, "_h.lock_owner = thread")
            w(ind + 1, "_h.lock_count += 1")
            w(ind + 1, "_stats.local_acquires += 1")
            if self._lock_edge:
                w(ind + 1, "for _f in _lock_edge:")
                w(ind + 2, "_f(thread.tid, 0, _h, True)")
            w(ind + 1, f"used += {cost + ll}")
            w(ind, "else:")
            self._emit_acquire_slow(ind + 1, pc, d, cost)
        else:
            self._emit_acquire_slow(ind, pc, d, cost)
        w(ind, "icount += 1")
        return d - 1

    def _emit_acquire_slow(self, ind, pc, d, cost):
        w = self.w
        # Complete-style block: the ref is popped before the hook runs,
        # and the waker advances the pc past the instruction.
        self._sync(ind, pc, d - 1)
        w(ind, "_ok, _x = _acquire(thread, _r)")
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "if not _ok:")
        w(ind + 1, "thread.block(reexec=False, reason='lock acquire')")
        w(ind + 1, "icount += 1")
        self._flush_ret(ind + 1, "4")

    def _emit_release(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('release on null')")
        cost = self._cost(instr)
        ll = self.jvm.cost_model[cm.LOCAL_LOCK_OP]
        if self._lock_opt:
            w(ind, "_h = _r.header")
            w(ind, "if _h is not None and _h.state == _LOCAL and "
                   "_h.lock_owner is thread and _h.lock_count > 0:")
            w(ind + 1, "_h.lock_count -= 1")
            w(ind + 1, "if _h.lock_count == 0:")
            w(ind + 2, "_h.lock_owner = None")
            if self._lock_edge:
                w(ind + 2, "for _f in _lock_edge:")
                w(ind + 3, "_f(thread.tid, 0, _h, False)")
            w(ind + 1, f"used += {cost + ll}")
            w(ind, "else:")
            self._emit_release_slow(ind + 1, pc, d, cost)
        else:
            self._emit_release_slow(ind, pc, d, cost)
        w(ind, "icount += 1")
        return d - 1

    def _emit_release_slow(self, ind, pc, d, cost):
        w = self.w
        self._sync(ind, pc, d - 1)
        w(ind, "_x = _release(thread, _r)")
        w(ind, f"used += {cost} + _x" if cost else "used += _x")

    def _emit_monitorenter(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('monitorenter on null')")
        self._sync(ind, pc, d - 1)
        w(ind, f"used += {self._cost(instr)}")
        w(ind, "icount += 1")
        w(ind, "if not _menter(thread, _r):")
        w(ind + 1, "thread.block(reexec=False, reason='monitor enter')")
        self._flush_ret(ind + 1, "5")
        return d - 1

    def _emit_monitorexit(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc)
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('monitorexit on null')")
        w(ind, "_mexit(thread, _r)")
        w(ind, f"used += {self._cost(instr)}")
        w(ind, "icount += 1")
        return d - 1

    # -- invokes -------------------------------------------------------
    def _emit_invoke(self, ind, pc, instr, d):
        static_m = self.ana.invoke_targets[pc]
        n = static_m.nargs
        base = self._cost(instr)
        self._guard_special(ind, pc)
        w = self.w
        if instr.op is Op.INVOKEVIRTUAL:
            p = len(static_m.params)
            w(ind, f"_rcv = s{d - 1 - p}")
            w(ind, "if _rcv is None:")
            w(ind + 1, f"raise _NPE('invoke {instr.a}.{instr.b} "
                       f"on null')")
            w(ind, "if isinstance(_rcv, str):")
            w(ind + 1, f"_t = _resolve({self.jvm.string_class!r}, "
                       f"{instr.b!r})")
            w(ind, "elif isinstance(_rcv, _Arr):")
            w(ind + 1, f"_t = _resolve({self.jvm.object_class!r}, "
                       f"{instr.b!r})")
            w(ind, "else:")
            w(ind + 1, f"_t = _rcv.rtclass.vtable.get({instr.b!r})")
            w(ind + 1, "if _t is None:")
            w(ind + 2, f"_t = _resolve({instr.a!r}, {instr.b!r})")
            w(ind, "if _t.is_native:")
            self._emit_native(ind + 1, pc, d, n, static_m, base,
                              pure=False)
            w(ind, "else:")
            self._emit_direct_call(ind + 1, pc, d, n, static_m, base,
                                   cache_key="id(_t)", target_expr="_t")
            return d - n + (0 if static_m.ret == "void" else 1)
        # INVOKESTATIC / INVOKESPECIAL: target known at compile time.
        if native_of(instr) is not None:  # a ``MATH`` row, billed as the call
            line = self._line(ind, d)
            line.row(pc, instr)
            line.flush()
            w(ind, f"used += {base}")
            w(ind, "icount += 1")
            return len(line.stack)
        tname = self.const(_Link(("callee", instr.a, instr.b)), "M")
        w(ind, f"_t = {tname}")
        if static_m.is_native:
            self._emit_native(ind, pc, d, n, static_m, base,
                              pure=_is_pure_native(static_m))
        else:
            self._emit_direct_call(
                ind, pc, d, n, static_m, base, target_expr=tname,
                cache_key=self.const(_Link(("id", instr.a, instr.b)), "C"))
        return d - n + (0 if static_m.ret == "void" else 1)

    def _args(self, d: int, n: int) -> str:
        return "[" + ", ".join(f"s{i}" for i in range(d - n, d)) + "]"

    def _emit_native(self, ind, pc, d, n, static_m, base, pure):
        w = self.w
        cost = base + self.jvm.cost_model[cm.NATIVE]
        if not pure:
            # Materialize the frame first: a blocking native's waker
            # pushes the result onto the *real* stack via complete().
            self._sync(ind, pc, d - n)
        w(ind, "_nat = _t.native_cache")
        w(ind, "if _nat is None:")
        w(ind + 1, "_nat = _native(_t.klass, _t.name)")
        w(ind + 1, "_t.native_cache = _nat")
        w(ind, f"_res = _nat(_jvm, thread, {self._args(d, n)})")
        w(ind, f"used += {cost}")
        w(ind, "icount += 1")
        if pure:
            # Whitelisted: never blocks, never void — two identity
            # tests guard the contract without frame materialization.
            w(ind, "if _res is _BLK or _res is _NOV:")
            w(ind + 1, "raise RuntimeError('jit: pure native %s.%s "
                       "misbehaved' % (_t.klass, _t.name))")
            w(ind, f"s{d - n} = _res")
            return
        w(ind, "if _res is _BLK:")
        w(ind + 1, "thread.block(reexec=False, "
                   "reason='native ' + _t.name)")
        self._flush_ret(ind + 1, "6")
        if static_m.ret == "void":
            w(ind, "if _res is not _NOV:")
            w(ind + 1, "raise RuntimeError('jit: void native %s.%s "
                       "returned a value' % (_t.klass, _t.name))")
        else:
            w(ind, "if _res is _NOV:")
            w(ind + 1, "raise _JVME('native %s.%s returned no value' "
                       "% (_t.klass, _t.name))")
            w(ind, f"s{d - n} = _res")

    def _emit_direct_call(self, ind, pc, d, n, static_m, base,
                          cache_key, target_expr):
        w = self.w
        w(ind, f"_f = _CACHE.get({cache_key})")
        w(ind, f"if _f is None or _f is False or depth > "
               f"{_MAX_CALL_DEPTH}:")
        # R_CALL: nothing charged, nothing popped — the manager's one
        # forced interpreter step re-executes the whole invoke exactly.
        self._leave(ind + 1, pc, R_CALL)
        self._sync(ind, pc, d - n)
        w(ind, f"used += {base}")
        w(ind, "icount += 1")
        w(ind, f"_nf = _Frame({target_expr}, {self._args(d, n)})")
        w(ind, "thread.frames.append(_nf)")
        w(ind, "_cu, _cr = _f(thread, _nf, budget - used, depth + 1)")
        w(ind, "used += _cu")
        w(ind, "if _cr != 8 or thread.state is not _RUN or "
               "not thread.frames or thread.frames[-1] is not frame:")
        self._flush_ret(ind + 1, "_cr")
        if static_m.ret != "void":
            # The callee's inline return pushed the value onto our
            # materialized stack and advanced frame.pc past the invoke.
            w(ind, f"s{d - n} = st.pop()")


def _callee(jvm, instr: Instr) -> Optional[Tuple[Any, ...]]:
    """What the emitter reads of an invoke's resolved target."""
    try:
        m = jvm.resolve_method(instr.a, instr.b)
    except LinkError:
        return None
    return m.klass, m.name, tuple(m.params), m.ret, m.flags


def _key(method: MethodInfo, jvm, switches, slots: Dict[int, int]):
    """Everything the emitted text depends on, as plain data."""
    return ("jit", method.klass, method.name, method.is_native,
            code_key(method.code),
            tuple(sorted(jvm.cost_model.costs.items())), switches,
            tuple(slots.items()),
            tuple(_callee(jvm, i) for i in method.code if i.op in INVOKES),
            jvm.hooks is None, jvm.string_class, jvm.object_class,
            _TRACE_LINES, _LEAF_ARMS, _MAX_INDENT, _MAX_STATEMENTS,
            _MAX_CALL_DEPTH, analysis._LATCH_OPS)


def _emit(method: MethodInfo, jvm, switches, slots: Dict[int, int]):
    """What the emitter makes of ``method``, or why it declined."""
    try:
        return _Emitter(method, jvm, switches, slots).compile()
    except CompileError as exc:
        return str(exc)


def _bind(jvm, method: MethodInfo, kind: str, *where: Any) -> Any:
    """What a :class:`_Link` finds in ``jvm``'s runtime: an instruction
    of ``method`` by pc, a callee (or its id) by the class and name the
    invoke resolves."""
    if kind == "instr":
        return method.code[where[0]]
    target = jvm.resolve_method(*where)
    return id(target) if kind == "id" else target


def compile_method(method: MethodInfo, agent):
    """Compile one method for one worker's JVM; raises CompileError.
    The text depends on the method's content, the brand's costs, three
    switches, the field slots it links, what its invokes resolve to and
    the emitter's limits (``_key``): it is emitted and compiled — or
    declined — once per process for each such key
    (:mod:`repro.jvm.codecache`), and every JVM execs the shared code
    object over its own hooks and its own runtime's objects."""
    jvm = agent.jvm
    switches = _switches(jvm)
    slots = link_slots(method.code, jvm.field_index)
    emitted = cached(_key(method, jvm, switches, slots),
                     lambda: _emit(method, jvm, switches, slots))
    if isinstance(emitted, str):
        raise CompileError(emitted)
    code_obj, src, entries, consts = emitted
    ns: Dict[str, Any] = {}
    exec(code_obj, {**_env(agent), **{  # noqa: S102 - the JIT
        name: _bind(jvm, method, *v) if type(v) is _Link else v
        for name, v in consts.items()}}, ns)
    fn = ns["_jit_fn"]
    fn.entries = entries
    fn.method = method
    fn.source = src
    fn.stats = [0] * N_REASONS
    return fn
