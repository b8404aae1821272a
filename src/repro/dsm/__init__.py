"""The MTS-HLRC distributed shared memory (the paper's §3).

Object-granularity, home-based, multiple-writer lazy release consistency
with the two MTS-HLRC scalability refinements (scalar timestamps +
bounded per-CU write notices) and the owner-managed distributed lock
queues that make wait/notify communication-free.

``DsmConfig(timestamp_mode="vector", notice_mode="full")`` recovers the
baseline HLRC behaviour for the ablation benchmarks.
"""

from .diffs import apply_diff, compute_diff, make_twin
from .directory import ClassIdRegistry, GidAllocator, home_of
from .locks import LockRequest, LockToken, NodeLockState
from .objectstate import (DSMHeader, ObjState, Unit, attach_header,
                          split_key, unit_key)
from .protocol import (
    SCALAR,
    VECTOR,
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
from .timestamps import VectorClock
from .write_notices import MODE_BOUNDED, MODE_FULL, Notice, NoticeTable

#: Preset: the paper's protocol (default).
MTS_HLRC = DsmConfig(timestamp_mode=SCALAR, notice_mode=MODE_BOUNDED)
#: Preset: baseline home-based LRC with vector timestamps and
#: keep-every-notice storage, for the §3.1 ablations.
HLRC_BASELINE = DsmConfig(timestamp_mode=VECTOR, notice_mode=MODE_FULL)

__all__ = [
    "apply_diff", "compute_diff", "make_twin",
    "ClassIdRegistry", "GidAllocator", "home_of",
    "LockRequest", "LockToken", "NodeLockState",
    "DSMHeader", "ObjState", "Unit", "attach_header", "split_key",
    "unit_key",
    "SCALAR", "VECTOR", "DsmConfig", "DsmEngine", "DsmStats",
    "ProtocolError",
    "ClassSpec", "SerializationError", "deserialize_any", "kind_of_type",
    "serialize_any",
    "VectorClock",
    "MODE_BOUNDED", "MODE_FULL", "Notice", "NoticeTable",
    "MTS_HLRC", "HLRC_BASELINE",
]
