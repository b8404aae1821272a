"""The one tap mechanism: named hook points on the DSM engine and the
transport.

The coherence core (:mod:`repro.dsm.protocol`, :mod:`repro.net.transport`)
knows nothing about the services that ride on it.  It fires a small,
closed set of hook points; ``ft``, ``locality``, ``policy``, ``race``,
``obs``, the protocol tracer and the checkers (``check.oracle``,
``check.monitor``) subscribe at ``attach()`` by appending a callable to
the point's list (``dsm.hooks.promote.append(fn)``).  With every list
empty the engine runs the bare paper protocol.  Nothing rebinds an
engine or transport method; ``tests/test_hooks.py`` enforces that over
the whole tree.

Subscribers run in registration order, which is the attach order fixed
by ``runtime.javasplit.SUBSYSTEMS`` (ft, locality, policy, race, obs,
then anything attached afterwards: checkers, tracer).  Three roles:

* **observer** — called for its side effects; the return value is ignored.
* **interceptor** — returns true to take the event over.
* **decorator** — may add fields to the payload it is handed; where the
  frame is explicitly sized it returns the extra wire bytes to bill.

A subsystem that decorates an outgoing payload consumes its own field
on the receiving side from ``TransportHooks.deliver``, which runs before
the base handler.

==============  =========================================================  ===========
DsmHooks        fired when (arguments)                                     role
==============  =========================================================  ===========
promote         a local object became shared; this node is its home        observer
                ``(ref, gid)``
spawn           a Thread object is about to be shipped                     decorator
                ``(thread, payload, target)``
thread_begin    a shipped thread is about to start on this node            observer
                ``(jthread, payload)``
block           a thread blocks on a fetch / lock / wait, or a token       decorator
                transfer blocks on the §3.1 fence ``(thread, kind, gid,
                region, carrier)``; carrier is the fetch request payload
                (None when one is already in flight) or the LockRequest
lock_edge       a monitor was acquired or released; gid is 0 and hdr set   observer
                for a §4.4 local lock ``(tid, gid, hdr, acquired)``
fetch_serve     a home is about to serialize a unit for a reader           observer
                ``(requester, obj, region, bulk)``
fetch_done      a fetched unit was installed, its waiters about to wake    observer
                ``(gid, region, waiters, nbytes)``
unit_shipped    a master was serialized for a reader or a new home (fetch  observer
                reply, prefetch, grant, push) ``(key, unit)``
unit_installed  a serialized unit was installed as a ``VALID`` replica or  observer
                the ``HOME`` master; ``before`` is the record's (state,
                version) until then ``(key, unit, role, before)``
home_advance    home versions advanced, before any ack / notice / reply    observer
                that names them leaves ``(advanced, writer)``
diff_applied    a clean diff batch was applied; the ack is being built     decorator
                ``(msg, ack_payload, delay_ns)``
token_send      a lock token is leaving ``(gid, req, payload) -> bytes``   decorator
token_notices   an arrived token's notice delta was applied                observer
                ``(notices)``
interval_end    a release point flushed this node's diffs ``(thread)``     observer
sync_scope      a release / wait / token arrival begins or ends            observer
                ``(entering)``
transition      a transition-table row is about to move a unit to a new    observer
                state ``(event, key, after)``
==============  =========================================================  ===========

==============  =========================================================  ===========
TransportHooks  fired when (arguments)                                     role
==============  =========================================================  ===========
outbound        a logical frame is about to be sequenced; every filter     interceptor
                runs and may decorate ``msg`` in place; if any returns
                true the frame is held back (its taker re-enters through
                ``Transport.send_frame``) ``(msg)``
deliver         a frame is about to be dispatched to its handler           observer
                ``(msg)``
==============  =========================================================  ===========
"""

from __future__ import annotations

from typing import Tuple


class HookPoints:
    """A closed set of hook lists: one list of callables per slot.

    Subclasses name their points in ``__slots__``, so registering on a
    misspelt point raises ``AttributeError`` instead of silently never
    firing.
    """

    __slots__ = ()

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """Every hook point this class declares."""
        return tuple(cls.__slots__)


class DsmHooks(HookPoints):
    """Hook points fired by :class:`repro.dsm.protocol.DsmEngine`."""

    __slots__ = (
        "promote", "spawn", "thread_begin", "block", "lock_edge",
        "fetch_serve", "fetch_done", "unit_shipped", "unit_installed",
        "home_advance", "diff_applied", "token_send", "token_notices",
        "interval_end", "sync_scope", "transition",
    )


class TransportHooks(HookPoints):
    """Hook points fired by :class:`repro.net.transport.Transport`."""

    __slots__ = ("outbound", "deliver")
