"""Distributed data-race detection: FastTrack-style happens-before +
Eraser-style lockset analysis over the DSM access checks.

JavaSplit already pays for an access check before every field/array
access and routes every ``monitorenter``/``monitorexit`` through the DSM
synchronization handlers (§2, §4) — exactly the instrumentation points a
dynamic race detector needs.  This subsystem taps them to make the
runtime a correctness tool for the programs it executes, behind
``RuntimeConfig`` knobs that are all off by default:

- ``race_detect``: master switch.  When off no agent is attached, no
  payload field is added, and runs are byte-identical to a build without
  the subsystem.
- ``race_mode``: ``"hb"`` (vector-clock happens-before), ``"lockset"``
  (Eraser state machine), or ``"both"`` (default — precise HB verdicts
  annotated with the lockset diagnosis, plus lockset-only findings).
- ``race_suppress``: ``Class.field`` / ``Class[]`` patterns for
  *documented* benign races (e.g. tsp's deliberately stale
  ``MinTour.best`` bound read), in the spirit of a ThreadSanitizer
  suppression file.

``detector.MAX_REPORTS`` caps the retained reports (each race is
reported once; the overflow is counted in ``reports_dropped``).

The detector's vector clocks deliberately contrast with the coherence
protocol's §3.1 scalar timestamps: they live entirely outside the
coherence path and piggyback on messages the protocol already sends
(lock tokens, thread shipping, interval diffs).
"""

from .detector import AccessRecord, RaceAgent, RaceManager, RaceReport
from .vc import ThreadClock, concurrent

__all__ = [
    "AccessRecord",
    "RaceAgent",
    "RaceManager",
    "RaceReport",
    "ThreadClock",
    "concurrent",
]
