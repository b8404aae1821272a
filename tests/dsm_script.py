"""Drive the DSM engine with per-node scripts: no compiler, no bytecode.

:class:`ScriptRuntime` runs one DSM engine per node (``engine_class`` of
the config's timestamp mode) over the real ``Transport`` and
``SimNetwork``, each hosted by a :class:`ScriptHost` instead of a JVM.
Threads are lists of ops, each served by the engine hook the rewritten
bytecode would call:

=============================  ==========================================
``("read", obj, field)``       ``read_check``, then record the value
``("write", obj, field, v)``   ``write_check``, then store ``v``
``("acquire", obj)``           ``acquire`` (``release`` likewise)
``("wait", obj)``              ``dsm_wait``
``("notify", obj[, all])``     ``dsm_notify``
``("spawn", obj, node)``       ship Thread object ``obj`` to ``node``; it
                               runs ``bodies[<its class>]`` there
=============================  ==========================================

``obj`` names a shared object of ``objects`` (name -> ``(class, home)``,
or ``("int[]", home, length)`` for an array).  Each is allocated and
promoted on its home node when the run starts; other nodes reach it by
gid, as an INVALID stub until they fetch it.  ``field`` is a field name
of the class (``classes``: name -> int field names) or an array index.
An op runs as one simulated event, the next one after the op's cost.

The runtime exposes ``engine``, ``workers`` (each with ``dsm``,
``node_id`` and ``dead``), ``homes`` and ``hooks`` (a ``RuntimeHooks``),
so ``InvariantMonitor.attach`` works on it as on a ``JavaSplitRuntime``.
``locality=True`` attaches the locality subsystem with every knob off:
its agents then only proxy (forward, split, bounce and fold what the
transition table hands them) and install grants.  :func:`rows_hit`
names the transition-table rows a run took.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dsm import ClassIdRegistry, ClassSpec, DsmConfig, engine_class
from repro.dsm.directory import HomeDirectory
from repro.dsm.transitions import TABLE
from repro.heap import ArrayObj, Obj
from repro.hooks import RuntimeHooks
from repro.net.simnet import SimNetwork
from repro.net.transport import Transport
from repro.sim.cost_model import get_brand
from repro.sim.engine import SimEngine

Op = Tuple[Any, ...]


class Layout:
    """What ``host.lookup`` returns: a class name and its int fields."""

    def __init__(self, name: str, fields: Sequence[str]) -> None:
        self.name = name
        self.fields = tuple(fields)
        self.field_defaults = [("int", None)] * len(self.fields)


class ScriptThread:
    """One thread of ops; duck-types what the engine calls on a thread."""

    _ids = itertools.count(1)

    def __init__(self, host: "ScriptHost", ops: Sequence[Op], name: str,
                 priority: int = 5) -> None:
        self.host = host
        self.ops = list(ops)
        self.name = name
        self.priority = priority
        self.tid = next(ScriptThread._ids)
        self.pc = 0
        self.reads: List[Any] = []
        self.blocked: Optional[str] = None   # "wake" | "complete"
        self.done = False

    def step(self) -> None:
        """Run the op at ``pc``; schedule the next one unless it blocked."""
        host, dsm = self.host, self.host.dsm
        if self.pc == len(self.ops):
            self.done = True
            dsm.on_thread_finished(self)
            return
        op, name, *rest = self.ops[self.pc]
        obj = host.ref(name)
        cost = 0
        if op in ("read", "write"):
            if isinstance(obj, ArrayObj):  # the check takes the element
                slots, slot, index = obj.data, rest[0], rest[0]
            else:
                slots, index = obj.fields, None
                slot = obj.rtclass.fields.index(rest[0])
            if op == "read":
                ok, cost = dsm.read_check(self, obj, index)
            else:
                ok, cost = dsm.write_check(self, obj, rest[1], index)
            if not ok:
                self.blocked = "wake"     # the fetch reply re-runs the op
                return
            if op == "read":
                self.reads.append(slots[slot])
            else:
                slots[slot] = rest[1]
        elif op == "acquire":
            ok, cost = dsm.acquire(self, obj)
            if not ok:
                self.blocked = "complete"  # the grant completes the op
                return
        elif op == "release":
            cost = dsm.release(self, obj)
        elif op == "wait":
            dsm.dsm_wait(self, obj)
            self.blocked = "complete"
            return
        elif op == "notify":
            dsm.dsm_notify(self, obj, bool(rest and rest[0]))
        elif op == "spawn":
            host.runtime.spawn_to = rest[0]
            dsm.spawn(self, obj, self.priority)
        else:
            raise ValueError(f"unknown script op {op!r}")
        self.pc += 1
        host.engine.schedule(cost, self.step)

    def wake(self) -> None:
        """A re-executing miss resumes: run the same op again."""
        self._resume("wake")

    def complete(self) -> None:
        """A grant or notify finished the blocked op: run the next."""
        self._resume("complete")
        self.pc += 1

    def _resume(self, style: str) -> None:
        if self.blocked != style:
            raise RuntimeError(f"{style}() on {self.name} "
                               f"(blocked: {self.blocked})")
        self.blocked = None
        self.host.engine.schedule(0, self.step)


class ScriptHost:
    """One node: a DSM engine's host (sim engine, cost model, class
    layouts, thread start) and the runtime's worker record."""

    dead = False

    def __init__(self, runtime: "ScriptRuntime", node_id: int) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.engine = runtime.engine
        self.cost_model = runtime.cost_model
        self.transport = Transport(runtime.network, node_id, self.cost_model)
        engine = engine_class(runtime.config.timestamp_mode)
        self.dsm = engine(self, self.transport, runtime.specs,
                          runtime.registry, config=runtime.config,
                          choose_spawn_node=lambda: runtime.spawn_to)

    def lookup(self, class_name: str) -> Layout:
        """The layout a stub or a new object of ``class_name`` gets."""
        return self.runtime.layouts[class_name]

    def start_thread_obj(self, obj: Any, method: str, priority: int,
                         name: str, before_start: Any) -> ScriptThread:
        """A spawned Thread object runs its class's script body here."""
        thread = ScriptThread(self, self.runtime.bodies[obj.class_name],
                              name, priority)
        before_start(thread)
        self.start(thread)
        return thread

    def start(self, thread: ScriptThread) -> None:
        self.runtime.threads.append(thread)
        self.dsm.on_thread_started(thread)
        self.engine.schedule(0, thread.step)

    def ref(self, name: str) -> Any:
        """This node's copy of a named shared object."""
        gid, class_name = self.runtime.gids[name]
        return self.dsm.replica_for(gid, class_name)


@dataclass
class ScriptConfig(DsmConfig):
    """The engines' configuration, answering the locality knobs too."""

    locality_migration: bool = False
    locality_prefetch: bool = False
    locality_aggregation: bool = False


def rows_hit(rt: Any) -> Dict[str, int]:
    """Transition-table rows taken on every node, by row name."""
    hits = [sum(col) for col in zip(*(w.dsm.row_hits for w in rt.workers))]
    return {row.name: n for row, n in zip(TABLE, hits) if n}


class ScriptRuntime:
    """A cluster of script hosts running one protocol script."""

    locality = None  # what InvariantMonitor.attach looks for
    ft = None

    def __init__(
        self,
        nodes: int,
        classes: Dict[str, Sequence[str]],
        objects: Dict[str, Tuple[Any, ...]],
        threads: Sequence[Tuple[int, Sequence[Op]]],
        bodies: Optional[Dict[str, Sequence[Op]]] = None,
        config: Optional[DsmConfig] = None,
        locality: bool = False,
    ) -> None:
        self.engine = SimEngine()
        self.network = SimNetwork(self.engine)
        self.cost_model = get_brand("sun", "app")
        config = config or DsmConfig()
        self.config = ScriptConfig(**{f.name: getattr(config, f.name)
                                      for f in fields(DsmConfig)})
        self.layouts = {name: Layout(name, fields)
                        for name, fields in classes.items()}
        self.specs = {name: ClassSpec(name, ("i",) * len(fields),
                                      tuple(fields))
                      for name, fields in classes.items()}
        self.registry = ClassIdRegistry([*classes, "int[]"])
        self.objects = objects
        self.scripts = threads
        self.bodies = bodies or {}
        self.gids: Dict[str, Tuple[int, str]] = {}
        self.threads: List[ScriptThread] = []
        self.spawn_to = 0
        self.hooks = RuntimeHooks()
        self.homes = HomeDirectory()
        self.workers = [ScriptHost(self, n) for n in range(nodes)]
        if locality:
            from repro.locality import LocalityManager
            self.locality = LocalityManager(self)
            self.locality.attach()

    def run(self, allow_blocked: bool = False) -> Dict[str, List[Any]]:
        """Promote the objects on their homes, start the scripts, run to
        quiescence; returns each thread's reads by thread name."""
        for name, (class_name, home, *length) in self.objects.items():
            dsm = self.workers[home].dsm
            if class_name.endswith("[]"):
                obj: Any = ArrayObj(class_name[:-2], *length)
            else:
                obj = Obj(self.layouts[class_name])
            dsm.on_new(obj)
            self.gids[name] = (dsm.promote(obj), obj.class_name)
        for i, (node, ops) in enumerate(self.scripts):
            host = self.workers[node]
            host.start(ScriptThread(host, ops, f"n{node}.t{i}"))
        self.engine.run_until_idle()
        stuck = [(t.name, t.pc, t.blocked) for t in self.threads
                 if not t.done]
        if stuck and not allow_blocked:
            raise RuntimeError(f"script quiesced with threads blocked: "
                               f"{stuck}")
        return {t.name: t.reads for t in self.threads}

    def messages(self) -> Dict[str, int]:
        """Messages sent so far, per type."""
        return {t: n for t, (n, _b) in self.network.stats.by_type.items()}
