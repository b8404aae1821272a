"""Generated code, built once per process and found again by content.

Tier 0's fused runs and tier 1's compiled methods are text generated
from a method's bytecode and from the little of its runtime that the
text depends on; emitting and ``compile()``-ing that text is what they
cost.  Every runtime of a process — each seed of a sweep, each pass of
a benchmark, each test — loads its own ``MethodInfo`` objects, so a
cache keyed by the object is cold in each.  This one is keyed by what
the text is made of: :func:`code_key` of the bytecode, plus whatever
else the tier reads.  Keys and values are plain data, functions over
module globals and code objects: no entry names a method, instruction,
class or JVM, so the cache pins no runtime, and the caller binds a hit
to its own runtime's objects.

An operand is keyed with its type, and a float by its ``repr``: ``2 ==
2.0`` and ``0.0 == -0.0`` compare and hash alike in Python, yet ``a /
2`` and ``a / 2.0`` are different Java programs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence, Tuple

from .bytecode import Instr

#: Entries kept; the least recently used goes first.
LIMIT = 512

_entries: "OrderedDict[Hashable, Any]" = OrderedDict()


def _operand(value: Any) -> Tuple[type, Any]:
    return type(value), repr(value) if type(value) is float else value


def code_key(code: Sequence[Instr]) -> Tuple[Any, ...]:
    """``code`` as a key: equal only for the same text, type-exact."""
    return tuple((i.op, *_operand(i.a), *_operand(i.b), i.checked)
                 for i in code)


def cached(key: Hashable, build: Callable[[], Any]) -> Any:
    """What ``build()`` made for ``key``, built on the first ask."""
    value = _entries.get(key, _entries)
    if value is _entries:
        value = _entries[key] = build()
        if len(_entries) > LIMIT:
            _entries.popitem(last=False)
    else:
        _entries.move_to_end(key)
    return value


def clear() -> None:
    """Forget every entry (a test that counts builds starts here)."""
    _entries.clear()
