"""What a coherency unit does on each arrival: the protocol as one table.

An *event* is an arrival site (a fetch request or reply, a prefetched
unit, a push, a grant, an adoption, a diff entry, a write notice, a
grant out).  A *state* is the unit's ``ObjState``, or ``ABSENT`` when
the node holds no record of it, plus two flags: a twin is present, a
fetch is in flight.  The engine takes the first :class:`Row` declared
for the ``(event, state)`` pair whose guard holds; a pair no row admits
is a :class:`ProtocolError` naming it.  Guards and effects are methods
of :class:`Arrivals`, which the engine inherits, so an engine subclass
changes what a guard decides, never the table; the invariant monitor
judges the transitions it observes by the same table.  In a row's
states ``S*`` is ``S`` with any flags.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .objectstate import ObjState, split_key
from .write_notices import Notice


class ProtocolError(RuntimeError):
    """A DSM invariant was violated (always a bug, never data)."""


ABSENT = "ABSENT"
FETCH_REQ, FETCH_REPLY, BULK_UNIT = "fetch_req", "fetch_reply", "bulk_unit"
PUSH, BCAST = "pol.push", "pol.bcast"
ACK_GRANT, TOKEN_GRANT = "grant.ack", "grant.token"
ADOPT, REGRANT = "adopt", "regrant"
DIFF, NOTICE, GRANT_OUT = "diff", "notice", "grant_out"

#: A state: (ObjState, or None for ABSENT; twin present; fetch in flight).
State = Tuple[Optional[ObjState], bool, bool]
#: Next state of a row that leaves the unit as it is.
SAME = "="


class Row(NamedTuple):
    """On ``event`` in any of ``states``, if the engine's ``guard``
    holds (None: always), run ``effect``, count ``counter`` (a
    ``DsmStats`` field) and land in ``next``."""

    event: str
    states: Tuple[str, ...]
    guard: Optional[str]
    next: str
    effect: str
    counter: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.event} {'|'.join(self.states)} {self.effect}"


_NOT_HOME = ("VALID*", "INVALID*", ABSENT)
_ANY = ("HOME",) + _NOT_HOME


def _push(event: str, counter: str) -> Tuple[Row, Row]:
    return (Row(event, ("INVALID*", "VALID", "VALID+fetching"), "_push_fresh",
                "VALID", "install_replica", counter),
            Row(event, _ANY, None, SAME, "drop"))


TABLE: Tuple[Row, ...] = (
    Row(FETCH_REQ, ("HOME",), "_fetch_ready", SAME, "serve"),
    Row(FETCH_REQ, ("HOME",), None, SAME, "defer", "deferred_fetches"),
    Row(FETCH_REQ, _NOT_HOME, "_moved", SAME, "forward"),
    # A reply overtaken by a grant: the master is never older than a copy.
    Row(FETCH_REPLY, ("HOME",), None, SAME, "drop", "stale_installs"),
    # ABSENT: a split array's first region, asked for as a whole.
    Row(FETCH_REPLY, ("INVALID*", "VALID", "VALID+fetching", ABSENT), None,
        "VALID", "install_replica"),
    Row(BULK_UNIT, ("INVALID*",), "_fresh", "VALID", "install_replica",
        "prefetch_units"),
    Row(BULK_UNIT, _ANY, None, SAME, "drop"),
    *_push(PUSH, "pol_push_installs"),
    *_push(BCAST, "pol_bcast_installs"),
    Row(ACK_GRANT, _NOT_HOME, None, "HOME", "install_master", "migrations_in"),
    Row(TOKEN_GRANT, _NOT_HOME, None, "HOME", "install_master",
        "pol_grant_installs"),
    Row(ADOPT, _NOT_HOME, None, "HOME", "install_master"),
    Row(REGRANT, _NOT_HOME, None, "HOME", "install_master"),
    # The grantee's own pre-grant flush, back around the old home: the
    # install folded it in; applying it would roll the master back.
    Row(DIFF, ("HOME",), "_folds_own", SAME, "fold"),
    Row(DIFF, ("HOME",), None, SAME, "apply_diff"),
    Row(DIFF, _NOT_HOME, "_moved", SAME, "forward", "fwd_diffs"),
    # The directory says "here" but the grant is still in flight.
    Row(DIFF, _NOT_HOME, "_awaiting_grant", SAME, "bounce", "fwd_diffs"),
    Row(NOTICE, ("VALID", "VALID+fetching"), "_stale", "INVALID", "invalidate",
        "invalidations"),
    Row(NOTICE, ("VALID+twin*",), "_stale", "INVALID", "flush_then_invalidate",
        "invalidations"),
    Row(NOTICE, _ANY, None, SAME, "drop"),
    Row(GRANT_OUT, ("HOME",), None, "INVALID", "demote"),
)

_STATES = [(s, twin, fetching)
           for s in (ObjState.HOME, ObjState.VALID, ObjState.INVALID)
           for twin in (False, True) for fetching in (False, True)]


def label(state: State) -> str:
    """``VALID+twin+fetching``, ``HOME``, ``ABSENT``, ..."""
    obj_state, twin, fetching = state
    if obj_state is None:
        return ABSENT
    return (obj_state.name + "+twin" * twin + "+fetching" * fetching)


def _expand(spec: str) -> List[State]:
    """The states a row's state spec names."""
    if spec == ABSENT:
        return [(None, False, False)]
    if spec.endswith("*"):
        return [s for s in _STATES if label(s).startswith(spec[:-1])]
    return [s for s in _STATES if label(s) == spec]


def rows_by_pair() -> Dict[Tuple[str, State], List[int]]:
    """``(event, state)`` -> indices into :data:`TABLE`, in lookup order."""
    pairs: Dict[Tuple[str, State], List[int]] = {}
    for i, row in enumerate(TABLE):
        for spec in row.states:
            for state in _expand(spec):
                pairs.setdefault((row.event, state), []).append(i)
    return pairs


_PAIRS = rows_by_pair()
_MOVES = frozenset((event, state, ObjState[TABLE[i].next])
                   for (event, state), indices in _PAIRS.items()
                   for i in indices if TABLE[i].next != SAME)


def allows(event: str, before: State, after: ObjState) -> bool:
    """Whether a row moves a unit from ``before`` to ``after`` on
    ``event`` (a ``=`` row moves nothing)."""
    return (event, before, after) in _MOVES


def render() -> str:
    """The table as Markdown, one line per row (DESIGN.md §3)."""
    lines = ["| event | state | guard | next | effect | counter |",
             "|---|---|---|---|---|---|"]
    lines += [f"| `{r.event}` | {', '.join(r.states)} | `{r.guard}` | "
              f"{r.next} | {r.effect} | {r.counter or '—'} |"
              .replace("`None`", "—") for r in TABLE]
    return "\n".join(lines)


@lru_cache(maxsize=None)
def bind(engine: type) -> Dict[str, List[Tuple[Any, ...]]]:
    """event -> per state code (``state << 2 | twin << 1 | fetching``,
    ABSENT 0) the rows a lookup tries, with the engine class's guard
    and effect functions (None: an effect its site batches).  Shared by
    every engine of the class: read it, never mutate it."""
    rows: Dict[str, List[Tuple[Any, ...]]] = {}
    for (event, (state, twin, fetching)), indices in _PAIRS.items():
        code = (state or 0) << 2 | twin << 1 | fetching
        rows.setdefault(event, [()] * 16)[code] = tuple(
            (i, TABLE[i], TABLE[i].guard and getattr(engine, TABLE[i].guard),
             getattr(engine, "_fx_" + TABLE[i].effect, None), TABLE[i].counter)
            for i in indices)
    return rows


class Arrivals:
    """The lookup, and the guards and per-unit effects the rows name, as
    methods of the engine (:class:`~.protocol.DsmEngine`) whose state
    they read; ``self._rows`` is :func:`bind` of the engine's class."""

    def _row(self, event: str, key: Any, arg: Any) -> Tuple[Row, Any, Any]:
        """The first row for ``key``'s present state whose guard holds,
        counted; with the unit (or None) and the bound effect."""
        if key.__class__ is tuple:
            unit = self.unit(key)
        else:  # a whole object: self.unit(key), inline (every arrival)
            obj = self.cache.get(key)
            unit = None if obj is None else (obj, obj.header, 0, None)
        if unit is None:
            code = 0
        else:
            rec = unit[1]
            code = rec.state << 2 if rec.twin is None else rec.state << 2 | 2
            targets = self._fetch_targets
            if targets and (key if key.__class__ is tuple
                            else (key, None)) in targets:
                code |= 1
        for i, row, guard, effect, counter in self._rows[event][code]:
            if guard is None or guard(self, key, unit, arg):
                self.row_hits[i] += 1
                if counter is not None:
                    self._counters[counter] += 1
                return row, unit, effect
        state = (ObjState(code >> 2) if code else None, bool(code & 2),
                 bool(code & 1))
        raise ProtocolError(f"node {self.node_id}: no row admits ({event}, "
                            f"{label(state)}) for unit {key!r}")

    def arrive(self, event: str, key: Any, arg: Any) -> Any:
        """One arrival for one unit: run its row's effect (True for an
        install, a demote's grant, None for a drop)."""
        _row, unit, effect = self._row(event, key, arg)
        return effect(self, event, key, unit, arg)

    # Guards: (key, unit, event argument) -> bool.  Only a proxy (the
    # locality agent) forwards, bounces and folds.
    def _moved(self, key: Any, unit: Any, arg: Any) -> bool:
        return (self.proxy is not None
                and self.home_node(split_key(key)[0]) != self.node_id)

    def _awaiting_grant(self, key: Any, unit: Any, arg: Any) -> bool:
        return (self.proxy is not None
                and self.home_node(split_key(key)[0]) == self.node_id)

    def _folds_own(self, key: Any, unit: Any, p: Any) -> bool:
        return (self.proxy is not None and key.__class__ is not tuple
                and self.proxy.folds_own_diff(key, p["writer"], p["interval"]))

    def _fresh(self, key: Any, unit: Any, p: Any) -> bool:
        """As new as every notice seen for the unit."""
        return p["version"] >= self.notice_table.required_scalar(key)

    def _push_fresh(self, key: Any, unit: Any, p: Any) -> bool:
        """Strictly forward, and no demand fetch's reply is due to find
        the replica ahead of it."""
        return (unit[1].version < p["version"]
                and (key, None) not in self._fetch_waiters
                and self._fresh(key, unit, p))

    # Per-unit effects: (event, key, unit, event argument).
    def _fx_serve(self, event: str, key: Any, unit: Any, msg: Any) -> None:
        # A forwarded request names the original requester.
        self._serve_fetch(msg.payload.get("requester", msg.src), unit[0],
                          key[1] if key.__class__ is tuple else None)

    def _fx_forward(self, event: str, key: Any, unit: Any, msg: Any) -> None:
        self.proxy.forward(msg)

    def _fx_install_replica(self, event: str, key: Any, unit: Any, p: Any) -> bool:
        return self._install_unit(p, ObjState.VALID, event)

    def _fx_install_master(self, event: str, key: Any, unit: Any, p: Any) -> bool:
        return self._install_unit(p, ObjState.HOME, event)

    def _fx_demote(self, event: str, gid: Any, unit: Any, arg: Any) -> Dict[str, Any]:
        """Ship a master for a migration grant and demote the local copy
        to an invalid replica.  A pending home write is published first
        so the grant carries a committed version."""
        hdr = unit[1]
        if gid in self._dirty_home:
            self._dirty_home.discard(gid)
            hdr.version += 1
            self.notice_table.add(Notice(gid, hdr.version))
            for fn in self.hooks.home_advance:
                fn([(gid, hdr.version)], None)
        shipped = self.ship_unit(gid)
        for fn in self.hooks.transition:
            fn(event, gid, ObjState.INVALID)
        hdr.state = ObjState.INVALID
        hdr.twin = None
        return shipped

    def _fx_drop(self, event: str, key: Any, unit: Any, arg: Any) -> None:
        return None

