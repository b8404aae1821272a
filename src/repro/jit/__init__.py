"""Tiered JIT: compile hot rewritten-bytecode methods to Python.

Tier 0 is the stock interpreter; tier 1 translates a method's bytecode
into one specialized Python function (codegen + ``exec``) with the
operand stack in locals, constants folded, per-run costs pre-summed,
each head's straight line run as one pre-charged trace, the §4.4
local-lock fast path inlined, and deoptimization back to the
interpreter at every blocking point.  Observable behavior (results,
protocol traffic, simulated time, exceptions) is bit-identical to
tier 0 — see ``tests/test_jit.py`` for the differential proof.
"""

from .analysis import CompileError, analyze, pre_summed_runs, traces
from .codegen import (
    N_REASONS,
    R_BLOCK_ACQUIRE,
    R_BLOCK_MONITOR,
    R_BLOCK_NATIVE,
    R_BLOCK_READ,
    R_BLOCK_STATIC,
    R_BLOCK_WRITE,
    R_BUDGET,
    R_CALL,
    R_DEOPT,
    R_RETURN,
    REASON_NAMES,
    compile_method,
)
from .manager import JitAgent, JitManager

__all__ = [
    "CompileError",
    "JitAgent",
    "JitManager",
    "N_REASONS",
    "REASON_NAMES",
    "R_BLOCK_ACQUIRE",
    "R_BLOCK_MONITOR",
    "R_BLOCK_NATIVE",
    "R_BLOCK_READ",
    "R_BLOCK_STATIC",
    "R_BLOCK_WRITE",
    "R_BUDGET",
    "R_CALL",
    "R_DEOPT",
    "R_RETURN",
    "analyze",
    "compile_method",
    "pre_summed_runs",
    "traces",
]
