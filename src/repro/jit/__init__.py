"""Tiered JIT: a hot method's traces, run by tier 0's dispatch loop.

Tier 0 is the interpreter.  Tier 1 compiles each trace of a hot method —
the straight line from a head through its rows, IF tests and access
checks (:func:`.analysis.traces`) — into one Python function with the
operand stack in locals, constants folded and its cost pre-charged
behind one budget test, and puts it into the method's fused list at its
head as tier 0's handler there: ``h(thread, frame, left) -> ns``.
Calls, returns, blocking, misses and quantum tails stay tier 0's.
Observable behavior (results, protocol traffic, simulated time,
exceptions) is bit-identical to tier 0 — see ``tests/test_jit.py`` for
the differential proof.
"""

from .analysis import CompileError, analyze, traces
from .codegen import N_REASONS, REASON_NAMES, compile_method
from .manager import JitAgent, JitManager

__all__ = [
    "CompileError",
    "JitAgent",
    "JitManager",
    "N_REASONS",
    "REASON_NAMES",
    "analyze",
    "compile_method",
    "traces",
]
