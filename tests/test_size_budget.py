"""The size budget: committed ceilings that only go down.

Each top-level package and module of ``src/repro`` has a line ceiling,
and so do the knob surfaces (``RuntimeConfig`` fields, ``RUN_FLAGS``
entries, ``add_argument`` calls in ``cli.py``) and the CI job count.  A
count above its ceiling fails: cut something, or raise the ceiling here
and add a CHANGES.md line citing the number that bought it.  A line
count ``SLACK`` or more under its ceiling fails too, and any other count
must sit at its ceiling, so a ceiling follows the code down.

The docs, in turn, may name only CI jobs and sweep rows that exist.
Everything here reads files (``ast``, regexes); nothing is imported."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: Physical lines of each top-level package (every ``.py`` under it) or
#: module of ``src/repro``.
LINES = {
    "__init__.py": 38,
    "__main__.py": 7,
    "apps": 478,
    "bench": 794,
    "check": 1483,
    "cli.py": 780,
    "dsm": 2841,
    "ft": 881,
    "heap.py": 163,
    "hooks.py": 157,
    "jit": 969,
    "jvm": 3139,
    "lang": 2311,
    "locality": 757,
    "net": 2443,
    "obs": 1410,
    "policy": 507,
    "race": 1000,
    "rewriter": 1296,
    "runtime": 1242,
    "serve": 1029,
    "sim": 768,
}

#: A line count this far under its ceiling asks for the ceiling to come
#: down.
SLACK = 20

#: The knob surfaces and the CI job count.
COUNTS = {
    "RuntimeConfig fields": 31,
    "RUN_FLAGS entries": 18,
    "add_argument calls in cli.py": 39,
    "CI jobs": 4,
}

RAISE = ("cut something, or raise the ceiling in tests/test_size_budget.py "
         "and add a CHANGES.md line citing the number that bought it")


def _lines(name):
    path = SRC / name
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(f.read_bytes().count(b"\n") for f in files)


def _tree(rel):
    return ast.parse((SRC / rel).read_text())


def ci_names():
    """``(jobs, sweep rows)`` of ``ci.yml``, by regex: CI installs no
    YAML parser."""
    text = CI.read_text()
    jobs = re.findall(r"^  ([\w-]+):\s*$", text.split("\njobs:\n", 1)[1],
                      re.M)
    rows = set(re.findall(r"^\s+- sweep: ([\w-]+)", text, re.M))
    for listed in re.findall(r"^\s+sweep: \[(.*)\]", text, re.M):
        rows.update(name.strip() for name in listed.split(","))
    return jobs, rows


def _config_fields():
    cls = next(n for n in _tree("runtime/config.py").body
               if isinstance(n, ast.ClassDef) and n.name == "RuntimeConfig")
    return sum(isinstance(n, ast.AnnAssign) for n in cls.body)


def _run_flags():
    assign = next(n for n in _tree("runtime/config.py").body
                  if isinstance(n, ast.AnnAssign)
                  and ast.unparse(n.target) == "RUN_FLAGS")
    return len(assign.value.elts)


def _add_argument_calls():
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "add_argument"
               for n in ast.walk(_tree("cli.py")))


COUNTERS = {
    "RuntimeConfig fields": _config_fields,
    "RUN_FLAGS entries": _run_flags,
    "add_argument calls in cli.py": _add_argument_calls,
    "CI jobs": lambda: len(ci_names()[0]),
}


def test_every_package_and_module_has_a_ceiling():
    found = {p.name for p in SRC.iterdir()
             if p.suffix == ".py" or (p.is_dir() and any(p.rglob("*.py")))}
    assert found == set(LINES), (
        f"src/repro packages and modules without a ceiling: "
        f"{sorted(found - set(LINES))}; ceilings for ones that are gone: "
        f"{sorted(set(LINES) - found)}")


@pytest.mark.parametrize("name", sorted(LINES))
def test_lines_within_ceiling(name):
    count, ceiling = _lines(name), LINES[name]
    assert count <= ceiling, (
        f"src/repro/{name}: {count} lines, {count - ceiling} over its "
        f"ceiling of {ceiling}: {RAISE}")
    assert count > ceiling - SLACK, (
        f"src/repro/{name}: {count} lines, {ceiling - count} under its "
        f"ceiling of {ceiling}: lower the ceiling to {count}")


@pytest.mark.parametrize("what", sorted(COUNTS))
def test_count_at_ceiling(what):
    count, ceiling = COUNTERS[what](), COUNTS[what]
    assert count <= ceiling, (
        f"{what}: {count}, over its ceiling of {ceiling}: {RAISE}")
    assert count == ceiling, (
        f"{what}: {count}, under its ceiling of {ceiling}: lower the "
        f"ceiling to {count}")


#: What calls a name a CI job or sweep: "`NAME` job(s)" or "matrix",
#: "CI('s) `NAME`", "`sweeps` job's `NAME` row", and any backticked
#: ``*-sweep`` or ``*-smoke`` name.
CI_MENTION = re.compile(
    r"`([\w-]+)`\s+(?:CI\s+)?(?:jobs?|matrix)\b"
    r"|\bCI(?:'s)?\s+(?:new\s+)?`([\w-]+)`"
    r"|`sweeps`\s+(?:(?:job|matrix)'s\s+)?(?:row\s+)?`([\w-]+)`"
    r"|`([\w-]+-(?:sweep|smoke))`")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")


def test_docs_name_only_ci_jobs_that_exist():
    jobs, rows = ci_names()
    known = set(jobs) | rows
    stale = [f"{doc}: {name}" for doc in DOCS
             for match in CI_MENTION.finditer((ROOT / doc).read_text())
             for name in match.groups() if name and name not in known]
    assert not stale, (
        f"named as a CI job or sweep, but ci.yml has no such job or sweep "
        f"row (jobs {jobs}, rows {sorted(rows)}): {stale}")
