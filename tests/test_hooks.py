"""The hook contract: the closed set of tap points on ``DsmEngine`` and
``Transport`` is what every subsystem and checker rides on, the core
names none of them, nothing rebinds an engine or transport method, and a
new observer needs no edit to the core."""

import ast
import pathlib
import re

import pytest

import repro
from repro.check import InvariantMonitor, SingleCopyOracle
from repro.check.runner import app_source
from repro.hooks import DsmHooks, TransportHooks
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig

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


def test_knobs_off_registers_nothing():
    assert all(not subs for _cls, _name, subs in _hook_lists(_runtime()))


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


CORE = ("dsm", "net", "sim", "hooks", "heap",
        "ft", "locality", "policy", "race", "obs")
TOOLCHAIN = ("jvm", "lang", "rewriter", "jit")
HARNESS = ("cli", "check", "bench", "serve", "apps")
#: The one core -> toolchain import left: the race detector reports a
#: site by its original class name (ROADMAP 8(g) moves it).
RING_EXCEPTIONS = {("race/detector.py", "rewriter.naming")}


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
    and names ``runtime`` only for type checking; the DSM engine names
    no subsystem either."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        ring = rel.split("/")[0].removesuffix(".py")
        if ring not in CORE:
            continue
        for name, typing_only in _repro_imports(path):
            top = name.split(".")[0]
            if ((top in TOOLCHAIN + HARNESS
                 and (rel, name) not in RING_EXCEPTIONS)
                    or (top == "runtime" and not typing_only)
                    or (ring == "dsm" and top in SUBSYSTEMS)):
                offenders.append(f"{rel} imports {name}")
    assert not offenders, offenders
    assert RING_EXCEPTIONS <= {
        ("race/detector.py", name) for name, _ in
        _repro_imports(SRC / "race" / "detector.py")}, "stale exception"
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


def test_nothing_rebinds_engine_or_transport_methods():
    """The only way to tap the engine is a hook point: no module in
    ``src/repro`` assigns to another object's engine / transport /
    notice-table / agent method (``dsm.write_check = ...``,
    ``x.transport.send = ...``) or to a transport's handler table.  The
    one exception sits below the transport: the fault injector's wrap of
    ``network.send`` (``check/faults.py``)."""
    methods = _tapped_methods()
    assert {"write_check", "send", "add", "consider_migration"} <= methods
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        registrars = {id(n) for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef)
                      and f.name in ("on", "attach") for n in ast.walk(f)}
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
                        bad = (not own and t.attr in methods and
                               (rel, t.attr) != ("check/faults.py", "send"))
                    else:
                        continue
                    if bad:
                        offenders.append(f"{rel}:{node.lineno} "
                                         f"{ast.unparse(t)}")
    assert not offenders, f"rebinding outside repro.hooks: {offenders}"


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
