"""The MTS-HLRC distributed shared memory (the paper's §3).

Object-granularity, home-based, multiple-writer lazy release consistency
with the two MTS-HLRC scalability refinements (scalar timestamps +
bounded per-CU write notices) and the owner-managed distributed lock
queues that make wait/notify communication-free.

``DsmConfig(timestamp_mode="vector")`` runs the HLRC baseline instead
(:mod:`.hlrc`, ablation A1); every :class:`NoticeTable` also counts what
HLRC's uncollected notice log would hold (ablation A2).
"""

from .diffs import apply_diff, compute_diff, make_twin
from .directory import ClassIdRegistry, GidAllocator, home_of
from .locks import LockRequest, LockToken, NodeLockState
from .objectstate import (DSMHeader, ObjState, Unit, attach_header,
                          split_key, unit_key)
from .protocol import (
    SCALAR,
    DsmConfig,
    DsmEngine,
    DsmStats,
    ProtocolError,
)
from .serialization import (
    ClassSpec,
    SerializationError,
    deserialize_any,
    kind_of_type,
    serialize_any,
)
from .write_notices import Notice, NoticeTable

VECTOR = "vector"

#: Preset: the paper's protocol (default).
MTS_HLRC = DsmConfig(timestamp_mode=SCALAR)
#: Preset: baseline home-based LRC with vector timestamps, for the §3.1
#: ablations.
HLRC_BASELINE = DsmConfig(timestamp_mode=VECTOR)


def engine_class(timestamp_mode: str) -> type:
    """The engine a ``DsmConfig.timestamp_mode`` runs: the paper's
    protocol, or the HLRC baseline (imported only when a run asks for
    it).  Any other mode raises ValueError naming the choices."""
    if timestamp_mode == SCALAR:
        return DsmEngine
    if timestamp_mode == VECTOR:
        from .hlrc import HlrcEngine
        return HlrcEngine
    raise ValueError(f"unknown timestamp_mode {timestamp_mode!r} "
                     f"(expected {SCALAR!r} or {VECTOR!r})")


__all__ = [
    "apply_diff", "compute_diff", "make_twin",
    "ClassIdRegistry", "GidAllocator", "home_of",
    "LockRequest", "LockToken", "NodeLockState",
    "DSMHeader", "ObjState", "Unit", "attach_header", "split_key",
    "unit_key",
    "SCALAR", "VECTOR", "DsmConfig", "DsmEngine", "DsmStats",
    "ProtocolError", "engine_class",
    "ClassSpec", "SerializationError", "deserialize_any", "kind_of_type",
    "serialize_any",
    "Notice", "NoticeTable",
    "MTS_HLRC", "HLRC_BASELINE",
]
