"""The hook contract: the closed set of tap points on ``DsmEngine``,
``Transport`` and the runtime is what every subsystem and checker rides
on, the core names none of them, nothing rebinds an engine or transport
method or plugs a callback into another object's slot, and a new
observer needs no edit to the core."""

import ast
import pathlib
import re

import pytest

import repro
from repro.check import InvariantMonitor, SingleCopyOracle
from repro.check.runner import app_source
from repro.hooks import DsmHooks, RuntimeHooks, TransportHooks
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.tracing import DsmTracer

from test_procnet import heap_fingerprint

SRC = pathlib.Path(repro.__file__).parent
SUBSYSTEMS = ("ft", "locality", "race", "policy", "obs", "check", "cli")

ALL_ON = dict(
    ft_enabled=True, reliable_transport=True,
    locality_migration=True, locality_prefetch=True,
    locality_aggregation=True,
    policy_update=True, policy_migratory=True, policy_broadcast=True,
    race_detect=True,
    obs_metrics=True, obs_spans=True, obs_profile=True,
)


def _runtime(app="tsp", **cfg):
    rewritten = rewrite_application(compile_source(app_source(app)))
    return JavaSplitRuntime(rewritten, RuntimeConfig(num_nodes=3, **cfg))


def _hook_lists(rt):
    for w in rt.workers:
        for hooks in (w.dsm.hooks, w.transport.hooks):
            for name in hooks.names():
                yield type(hooks).__name__, name, getattr(hooks, name)


def test_hook_set_is_closed_and_small():
    names = DsmHooks.names() + TransportHooks.names()
    assert len(names) == len(set(names)) <= 18
    with pytest.raises(AttributeError):
        DsmHooks().promtoe.append(print)      # a typo'd point raises
    with pytest.raises(AttributeError):
        TransportHooks().inbound = []


def test_runtime_hook_set_is_closed():
    assert RuntimeHooks.names() == (
        "worker_added", "narrate", "peer_dead", "recovered", "violation",
        "finished")
    with pytest.raises(AttributeError):
        RuntimeHooks().worker_joined.append(print)  # a typo'd point raises
    with pytest.raises(AttributeError):
        RuntimeHooks().on_violation = print


def test_knobs_off_registers_nothing():
    rt = _runtime()
    assert all(not subs for _cls, _name, subs in _hook_lists(rt))
    assert all(not getattr(rt.hooks, name) for name in RuntimeHooks.names())


def test_every_point_is_fired_and_subscribed():
    fired = {
        DsmHooks: (SRC / "dsm" / "protocol.py").read_text(),
        TransportHooks: (SRC / "net" / "transport.py").read_text(),
    }
    for cls, text in fired.items():
        for name in cls.names():
            assert re.search(rf"in self\.hooks\.{name}\b", text), \
                f"{cls.__name__}.{name} has no call site"
    rt = _runtime(**ALL_ON)
    InvariantMonitor.attach(rt)
    SingleCopyOracle.attach(rt)
    empty = {(cls, name) for cls, name, subs in _hook_lists(rt) if not subs}
    assert not empty, \
        f"no subscriber with every subsystem and checker on: {empty}"


def test_every_runtime_point_is_fired_and_subscribed():
    """Each runtime point has a call site somewhere in ``src/repro``, and
    with every subsystem, the tracer and both checkers attached, each
    has a subscriber."""
    text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    for name in RuntimeHooks.names():
        assert re.search(rf"for \w+ in [\w.]*hooks\.{name}:", text), \
            f"RuntimeHooks.{name} has no call site"
    rt = _runtime(**ALL_ON, jit_enable=True, obs_flight_recorder=True)
    InvariantMonitor.attach(rt)
    SingleCopyOracle.attach(rt)
    DsmTracer.attach(rt)
    empty = [name for name in RuntimeHooks.names()
             if not getattr(rt.hooks, name)]
    assert not empty, f"no subscriber with everything attached: {empty}"


CORE = ("dsm", "net", "sim", "hooks", "heap",
        "ft", "locality", "policy", "race", "obs")
TOOLCHAIN = ("jvm", "lang", "rewriter", "jit")
#: ``runtime`` is the composition root: it builds the core and the
#: toolchain into one cluster, so it sits with the harness.
HARNESS = ("runtime", "cli", "check", "bench", "serve", "apps")


def _repro_imports(path):
    """``(module, typing_only)`` for every ``repro`` module a file
    imports, at module level or inside a function; ``module`` is
    relative to ``repro`` and ``typing_only`` is true under ``if
    TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text())
    typing_only = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "TYPE_CHECKING"
                   for stmt in node.body for n in ast.walk(stmt)}
    package = ("repro", *path.relative_to(SRC).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else ()
            names = [".".join([*base, *(node.module or "").split(".")])]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("repro."):
                yield name.removeprefix("repro.").strip("."), \
                    id(node) in typing_only


def test_core_names_no_subsystem():
    """Import rings: no core module names the toolchain or the harness,
    no toolchain module names the harness, and either names ``runtime``
    only for type checking; the DSM engine names no subsystem either."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        ring = rel.split("/")[0].removesuffix(".py")
        if ring not in CORE + TOOLCHAIN:
            continue
        above = HARNESS + (TOOLCHAIN if ring in CORE else ())
        for name, typing_only in _repro_imports(path):
            top = name.split(".")[0]
            if ((top in above and not (top == "runtime" and typing_only))
                    or (ring == "dsm" and top in SUBSYSTEMS)):
                offenders.append(f"{rel} imports {name}")
    assert not offenders, offenders
    tree = ast.parse((SRC / "dsm" / "protocol.py").read_text())
    named = [n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "self"
             and n.attr in ("ft", "locality", "race", "policy", "obs")]
    assert not named, f"protocol.py reaches into subsystems: {named}"


def _tapped_methods():
    """Names defined as methods on the tapped classes: the engine, the
    transport, the notice table and every subsystem agent."""
    tapped = ("DsmEngine", "Transport", "NoticeTable")
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and (
                    node.name in tapped or node.name.endswith("Agent")):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return names


#: Single-consumer control slots a subsystem may still plug a callback
#: into: each has one consumer and drives behaviour rather than
#: observing it (the interpreter's ``race_hook`` is bound into decoded
#: access handlers, so it stays a slot on the per-access path).
CONTROL_SLOTS = {"on_proc_death", "on_peer_unreachable", "on_flight_dump",
                 "on_spawn_arrival", "race_hook"}


def _callbacks(tree):
    """ids of the expressions in ``tree`` that make a callback: a lambda,
    or a method of the enclosing class bound through ``self``."""
    out = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Lambda)}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {f.name for f in cls.body
                   if isinstance(f, ast.FunctionDef)}
        out.update(id(n) for n in ast.walk(cls)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "self"
                   and n.attr in methods)
    return out


def test_nothing_rebinds_engine_or_transport_methods():
    """The only way to tap the engine is a hook point: no module in
    ``src/repro`` assigns to another object's engine / transport /
    notice-table / agent method (``dsm.write_check = ...``,
    ``x.transport.send = ...``) or to a transport's handler table.  The
    one exception sits below the transport: the fault injector's wrap of
    ``network.send`` (``check/faults.py``).  Nor does one plug a lambda
    or a bound method into another object's attribute (``mgr.event_sink
    = lambda ...``): subsystems hear one another through
    ``runtime.hooks``, and only the ``CONTROL_SLOTS`` remain."""
    methods = _tapped_methods()
    assert {"write_check", "send", "add", "consider_migration"} <= methods
    offenders = []
    slots_used = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        registrars = {id(n) for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef)
                      and f.name in ("on", "attach") for n in ast.walk(f)}
        callbacks = _callbacks(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in getattr(target, "elts", [target]):
                    if isinstance(t, ast.Subscript):
                        table = t.value
                        bad = (isinstance(table, ast.Attribute)
                               and table.attr == "_handlers"
                               and id(node) not in registrars)
                    elif isinstance(t, ast.Attribute):
                        own = (isinstance(t.value, ast.Name)
                               and t.value.id == "self")
                        wrap = (rel, t.attr) == ("check/faults.py", "send")
                        plugged = not own and id(node.value) in callbacks
                        if plugged and t.attr in CONTROL_SLOTS:
                            slots_used.add(t.attr)
                        bad = not own and not wrap and (
                            t.attr in methods
                            or (plugged and t.attr not in CONTROL_SLOTS))
                    else:
                        continue
                    if bad:
                        offenders.append(f"{rel}:{node.lineno} "
                                         f"{ast.unparse(t)}")
    assert not offenders, f"rebinding outside repro.hooks: {offenders}"
    assert slots_used == CONTROL_SLOTS, "stale CONTROL_SLOTS entry"


_OPTIONAL = ("locality", "policy", "race", "obs", "jit")


def _names_optional(node):
    """Where ``node`` reads an optional subsystem, by attribute or by a
    literal ``getattr``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in _OPTIONAL:
            yield f"{n.lineno}: {ast.unparse(n)}"
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "getattr" and len(n.args) > 1
              and isinstance(n.args[1], ast.Constant)
              and n.args[1].value in _OPTIONAL):
            yield f"{n.lineno}: {ast.unparse(n)}"


def test_recovery_and_run_name_no_subsystem():
    """Fault-tolerance recovery and ``JavaSplitRuntime.run`` reach the
    optional subsystems only through ``runtime.hooks`` (``peer_dead``,
    ``recovered``, ``finished``), never by name."""
    recovery = ast.parse((SRC / "ft" / "recovery.py").read_text())
    assert not list(_names_optional(recovery))
    runtime = ast.parse((SRC / "runtime" / "javasplit.py").read_text())
    run = [f for c in ast.walk(runtime)
           if isinstance(c, ast.ClassDef) and c.name == "JavaSplitRuntime"
           for f in c.body
           if isinstance(f, ast.FunctionDef) and f.name == "run"]
    assert len(run) == 1
    assert not list(_names_optional(run[0]))


def _observables(rt):
    report = rt.run()
    return (report.result, report.console, report.simulated_ns,
            report.net.by_type, heap_fingerprint(rt))


def test_new_observer_needs_no_core_edit():
    base = _observables(_runtime())
    rt = _runtime()
    sent = []
    for w in rt.workers:
        # An observer on a decorator point adds no bytes.
        w.dsm.hooks.token_send.append(
            lambda gid, req, payload: sent.append(gid) or 0)
    assert _observables(rt) == base
    assert len(sent) == sum(w.dsm.stats.token_transfers for w in rt.workers)
    assert sent, "tsp on 3 nodes must move some lock token"


def test_checkers_are_passive_subscribers():
    """Attaching the oracle and the monitor adds subscribers, never a
    message or a simulated nanosecond."""
    base = _observables(_runtime())
    rt = _runtime()
    monitor = InvariantMonitor.attach(rt)
    oracle = SingleCopyOracle.attach(rt)
    assert _observables(rt) == base
    assert not monitor.finalize() and not oracle.finalize()
    assert oracle.checked_installs and oracle.checked_final
