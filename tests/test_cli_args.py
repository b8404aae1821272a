"""CLI flag wiring: every cluster-running verb takes its run flags from
the one ``RUN_FLAGS`` table, the same flags always yield the same
``RuntimeConfig``, the harness entry points build their configs through
the same ``config_from``, and the README tables name what the code
declares."""

import dataclasses
import pathlib
import re

import pytest

from repro.cli import build_parser, main
from repro.runtime import RUN_FLAGS, RuntimeConfig, config_from, option

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


@pytest.fixture(scope="module")
def parser():
    return build_parser()


#: Every cluster-running verb, with the positional it needs.
VERBS = {
    "run": ["run", "prog.mj"],
    "trace": ["trace", "prog.mj"],
    "profile": ["profile", "tsp"],
    "stats": ["stats", "tsp"],
    "check": ["check"],
    "race": ["race", "prog.mj"],
    "bench": ["bench"],
    "serve": ["serve"],
}

#: One non-default value per run flag.
EVERY_FLAG = [
    "--nodes", "4", "--cpus", "1", "--brand", "ibm", "--dilation", "2",
    "--scheduler", "round-robin", "--seed", "7", "--region-elems", "8",
    "--locality", "migration,prefetch", "--policy", "update",
    "--backend", "proc", "--socket", "tcp", "--jit", "--jit-threshold", "3",
    "--check-elim", "2", "--race", "--obs", "--wallclock",
]


# ---------------------------------------------------------------------------
# The contract: same flags on every verb, same flags -> same config
# ---------------------------------------------------------------------------
def test_every_flag_has_a_value_in_the_contract_test():
    # --vector-timestamps is exercised separately: it excludes
    # --locality/--policy/--race at validate() time.
    assert ({f.flag for f in RUN_FLAGS} - set(EVERY_FLAG)
            == {"--vector-timestamps"})


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_shared_flags_parse_to_equal_configs_on_every_verb(parser, verb):
    args = parser.parse_args(VERBS[verb] + EVERY_FLAG)
    config = config_from(args)
    reference = config_from(parser.parse_args(VERBS["check"] + EVERY_FLAG))
    assert config == reference
    config.validate()
    assert (config.num_nodes, config.cpus_per_node, config.brands) == \
        (4, 1, ("ibm",))
    assert (config.time_dilation, config.scheduler, config.seed) == \
        (2, "round-robin", 7)
    assert config.dsm.array_region_elems == 8
    assert (config.locality_migration, config.locality_prefetch,
            config.locality_aggregation) == (True, True, False)
    assert (config.policy_update, config.policy_migratory) == (True, False)
    assert (config.transport_backend, config.proc_socket_kind) == \
        ("proc", "tcp")
    assert (config.jit_enable, config.jit_threshold) == (True, 3)
    assert config.race_detect and config.obs_wallclock
    assert config.obs_metrics and config.obs_spans and config.obs_profile
    assert option(args, "check_elim") == 2
    vec = config_from(parser.parse_args(VERBS[verb] + ["--vector-timestamps"]))
    assert vec.dsm.timestamp_mode == "vector"


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_unset_flags_fall_back_to_the_declared_defaults(parser, verb):
    args = parser.parse_args(VERBS[verb])
    nodes = 2 if verb in ("run", "trace") else 3
    assert config_from(args) == config_from({"nodes": nodes})
    assert option(args, "backend") == "sim"
    assert option(args, "socket") == "unix"
    assert option(args, "check_elim") == 0
    # An unset flag leaves no attribute behind, so a harness can tell
    # what the user said from what the table defaults.
    assert not hasattr(args, "backend")


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_unknown_backend_rejected(parser, verb, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args(VERBS[verb] + ["--backend", "mpi"])
    assert "invalid choice" in capsys.readouterr().err


def test_config_from_defaults_without_any_options():
    config = config_from(None)
    assert (config.transport_backend, config.proc_socket_kind) == \
        ("sim", "unix")
    with pytest.raises(TypeError, match="unknown run option"):
        config_from({"node": 3})
    with pytest.raises(ValueError, match="unknown locality component"):
        config_from({"locality": "warp"})


def test_harness_fields_win_over_options():
    config = config_from({"seed": 3, "obs": True}, seed=9, obs_spans=False)
    assert config.seed == 9
    assert (config.obs_metrics, config.obs_spans) == (True, False)


# ---------------------------------------------------------------------------
# Harness entry points build the config the CLI builds
# ---------------------------------------------------------------------------
class _Captured(Exception):
    pass


def _capture_first_config(monkeypatch, call):
    seen = []

    def fake_build_runtime(program, config, check_elim=0):
        seen.append((config, check_elim))
        raise _Captured

    monkeypatch.setattr("repro.check.runner.build_runtime",
                        fake_build_runtime)
    with pytest.raises(_Captured):
        call()
    return seen[0]


def test_run_check_and_repro_check_build_identical_configs(monkeypatch):
    from repro.check import run_check

    api = _capture_first_config(monkeypatch, lambda: run_check(
        locality="all", race=True, jit=True))
    cli = _capture_first_config(monkeypatch, lambda: main(
        ["check", "--locality", "all", "--race", "--jit"]))
    assert api == cli
    config, check_elim = api
    assert config.locality_aggregation and config.race_detect
    assert config.jit_enable and check_elim == 0


def test_check_sweep_starts_at_seed(monkeypatch):
    from repro.check import run_check

    config, _ = _capture_first_config(
        monkeypatch, lambda: run_check(seeds=2, seed=5))
    assert config.seed == 5


def test_scenario_options_override_the_preset():
    from repro.serve import PRESETS

    hot = PRESETS["hotset"]
    assert hot.config(seed=1) == hot.config(seed=1, locality="all",
                                            policy="all", nodes=3)
    config = hot.config(nodes=4, brand="ibm", locality="", jit=True,
                        jit_threshold=3)
    assert (config.num_nodes, config.brands) == (4, ("ibm",))
    assert not config.locality_enabled and config.policy_enabled
    assert (config.jit_enable, config.jit_threshold) == (True, 3)
    assert config.obs_metrics     # the SLO report needs the registry


# ---------------------------------------------------------------------------
# Verbs that used to drop or lack shared flags
# ---------------------------------------------------------------------------
def test_run_and_trace_accept_seed(parser):
    for verb in ("run", "trace"):
        args = parser.parse_args(VERBS[verb] + ["--seed", "4"])
        assert config_from(args).seed == 4


def test_profile_accepts_backend_and_policy(parser):
    args = parser.parse_args(["profile", "tsp", "--backend", "proc",
                              "--policy", "all"])
    config = config_from(args)
    assert config.transport_backend == "proc" and config.policy_broadcast


def test_stats_serve_passes_every_shared_flag_on(monkeypatch, capsys):
    seen = {}

    def fake_run_scenario(scenario, **kwargs):
        seen.update(kwargs)
        return {"ok": True}

    monkeypatch.setattr("repro.serve.run_scenario", fake_run_scenario)
    assert main(["stats", "serve:steady", "--json", "--nodes", "4",
                 "--locality", "all", "--jit", "--jit-threshold", "3"]) == 0
    assert seen["nodes"] == 4 and seen["locality"] == "all"
    assert seen["jit"] is True and seen["jit_threshold"] == 3
    assert seen["config_overrides"] == {"obs_wallclock": True}


def test_serve_rejects_a_flag_the_preset_cannot_honour(capsys):
    # churn names one brand per node of its 3-node cluster.
    assert main(["serve", "--preset", "churn", "--nodes", "2"]) == 2
    assert "brands must have 1 or num_nodes entries" in capsys.readouterr().err
    assert main(["stats", "serve:churn", "--nodes", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["bench", "--jit-bench", "--jit"],
    ["bench", "--jit-bench", "--check-elim", "1"],
    ["bench", "--jit-bench", "--metrics"],
    ["bench", "--policy-bench", "--ablation"],
    ["bench", "--policy-bench", "--policy", "update"],
    ["bench", "--compare-backends", "--backend", "proc"],
    ["bench", "--compare-backends", "--jit-bench"],
    ["bench", "--locality", "all"],
])
def test_bench_rejects_flags_a_bench_mode_owns(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("elems", ["0", "-3"])
def test_region_size_below_one_is_a_usage_error(elems, capsys):
    # Used to run, die in promote / the region lookup, and report the
    # crash as a failed seed (exit 1).
    assert main(["check", "--app", "series", "--seeds", "1",
                 "--region-elems", elems]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--region-elems" in err


# ---------------------------------------------------------------------------
# check/bench specifics
# ---------------------------------------------------------------------------
def test_check_backend_with_kill_parses(parser):
    args = parser.parse_args(["check", "--app", "series", "--seeds", "5",
                              "--kill", "1@5ms", "--backend", "proc"])
    assert (args.app, args.seeds) == ("series", 5)
    assert args.kill == "1@5ms"
    assert args.backend == "proc"


def test_bench_compare_backends_flag(parser):
    args = parser.parse_args(["bench", "--app", "series",
                              "--compare-backends", "--json"])
    assert args.compare_backends is True
    assert args.apps == ["series"]
    assert args.json is True
    assert parser.parse_args(["bench"]).compare_backends is False


def test_main_returns_exit_code_without_dispatch_surprises(capsys):
    # ``main`` is a thin parse-then-dispatch wrapper; a bad flag must
    # exit through argparse, not reach a command function.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--backend", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("verb", sorted(VERBS) + ["original", "disasm"])
def test_help_smoke(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert "usage: repro " + verb in capsys.readouterr().out


# ---------------------------------------------------------------------------
# README drift: the tables name exactly what the code declares
# ---------------------------------------------------------------------------
def _section(title: str) -> str:
    start = README.index(title)
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def test_readme_shared_flag_table_matches_the_declaration():
    rows = re.findall(r"^\| `(--[a-z-]+)[^`]*` \| `([^`]*)` \|",
                      _section("### Shared run flags"), re.M)
    assert [flag for flag, _ in rows] == [f.flag for f in RUN_FLAGS]
    for (flag, keywords), f in zip(rows, RUN_FLAGS):
        declared = ", ".join(f.keywords(f.default)) or "(rewrite level)"
        assert keywords == declared, flag


def test_readme_knob_tables_name_exactly_the_config_fields():
    # Knob-table rows are the only README table rows whose first cell
    # is one backticked identifier.
    named = set(re.findall(r"^\| `([a-z_]+)` \|", README, re.M))
    fields = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert named == fields, sorted(named ^ fields)
