"""Network substrate: simulated wire plus a real multiprocess plane.

Stands in for the paper's 100 Mbit Ethernet + Java sockets: typed messages
with exact wire-size accounting (:mod:`repro.net.message`), a latency/
bandwidth network model (:mod:`repro.net.simnet`), reliable ordered
endpoints (:mod:`repro.net.transport`) and traffic statistics
(:mod:`repro.net.stats`).  The ``proc`` backend adds a versioned binary
wire format (:mod:`repro.net.wire`) and a one-OS-process-per-node
physical plane over real sockets (:mod:`repro.net.procnet`).
"""

from .message import ALL_MESSAGE_TYPES, HEADER_BYTES, Message, estimate_size
from .simnet import SimNetwork
from .stats import NetStats
from .transport import Transport, TransportStats
from .wire import (FrameDecoder, WireError, decode_frame, encode_frame,
                   frame_with_prefix)


def __getattr__(name: str):
    if name == "ProcNetwork":  # lazy: multiprocessing, tempfile
        from .procnet import ProcNetwork
        return ProcNetwork
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_MESSAGE_TYPES",
    "HEADER_BYTES",
    "Message",
    "estimate_size",
    "SimNetwork",
    "ProcNetwork",
    "NetStats",
    "Transport",
    "TransportStats",
    "WireError",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "frame_with_prefix",
]
