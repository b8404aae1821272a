"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands (``build_parser`` holds
their one-line descriptions); README "Command line" has worked examples.
Every cluster-running command — run trace profile stats check race
bench serve — takes the same run flags (``--nodes --cpus --brand --seed
--locality --policy --backend --jit --check-elim ...``), declared once
in :data:`repro.runtime.config.RUN_FLAGS`::

    python -m repro run app.mj --nodes 4 --brand ibm --locality all
    python -m repro check --app series --seeds 3 --kill 1@5ms --backend proc
    python -m repro serve --preset churn --backend proc --jit
    python -m repro profile tsp --policy all --trace tsp.trace.json --top 5
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from .jvm.disasm import disassemble
from .lang import compile_source
from .rewriter import rewrite_application
from .runtime import (JavaSplitRuntime, add_run_flags, build_runtime,
                      config_from, option, run_options, run_original)
from .runtime.tracing import DsmTracer


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _launch(args, source: str, **fields) -> JavaSplitRuntime:
    """The runtime a command's run flags select for ``source``;
    ``fields`` are the RuntimeConfig keywords the command fixes itself."""
    return build_runtime(source, config_from(args, **fields),
                         option(args, "check_elim"))


def _report(report) -> None:
    print(f"result            : {report.result}")
    for line in report.console:
        print(f"console           : {line}")
    print(f"simulated time    : {report.simulated_seconds * 1e3:.3f} ms")
    if report.backend != "sim":
        print(f"backend           : {report.backend} "
              f"(wall clock {report.wall_seconds * 1e3:.1f} ms)")
        if report.proc is not None:
            print(f"wire              : {report.proc['wire_frames']} frames, "
                  f"{report.proc['wire_bytes']} bytes on wire, "
                  f"{report.proc['wire_delivered']} delivered, "
                  f"{report.proc['wire_fallback']} fallback")
    print(f"threads executed  : {report.threads_run}")
    if report.placements:
        print(f"thread placements : {dict(sorted(report.placements.items()))}")
    if report.net is not None:
        total = report.total_dsm()
        print(f"network           : {report.net.messages} msgs, "
              f"{report.net.bytes} bytes")
        print(f"dsm               : {total.fetches} fetches, "
              f"{total.diffs_sent} diffs, {total.token_transfers} token "
              f"transfers, {total.invalidations} invalidations")
    if report.locality is not None:
        loc = report.locality
        print(f"locality          : {loc['migrated_units']} units migrated, "
              f"{loc['fwd_diffs']} diffs forwarded, "
              f"{loc['prefetch_units']} units prefetched "
              f"({loc['prefetch_hits']} hits), "
              f"{loc['agg_subframes']} msgs in {loc['agg_frames']} "
              f"aggregate frames")
    if report.policy is not None:
        pol = report.policy
        by = ", ".join(f"{name}={n}"
                       for name, n in sorted(pol["by_policy"].items()))
        print(f"policy            : {pol['active_units']} units adapted "
              f"({by or 'none'}), "
              f"{pol['promotions']} promotions, "
              f"{pol['pushes']} pushes ({pol['push_installs']} installed), "
              f"{pol['broadcasts']} broadcasts "
              f"({pol['broadcast_installs']} installed), "
              f"{pol['grants']} ownership grants")
    if report.race is not None:
        r = report.race
        print(f"race detector     : {r['races']} reports "
              f"({r['suppressed']} suppressed), "
              f"{r['events_observed']} access events, mode={r['mode']}"
              + (" DEGRADED" if r["degraded"] else ""))
    if report.jit is not None:
        j = report.jit
        names = ", ".join(j["compiled_methods"]) or "none"
        print(f"jit               : {j['compiles']} compiles "
              f"({names}), {j['deopts']} deopts, "
              f"{len(j['blacklisted'])} blacklisted")


def cmd_run(args) -> int:
    """`repro run`: rewrite + execute on a simulated cluster."""
    _report(_launch(args, _read(args.source)).run())
    return 0


def cmd_original(args) -> int:
    """`repro original`: un-instrumented single-JVM baseline."""
    config = config_from(args)
    report = run_original(
        source=_read(args.source),
        brand=config.brands[0],
        cpus=config.cpus_per_node,
        time_dilation=config.time_dilation,
    )
    _report(report)
    return 0


def cmd_disasm(args) -> int:
    """`repro disasm`: bytecode listing, original or rewritten."""
    classfiles = compile_source(_read(args.source))
    if args.rewritten:
        rewritten = rewrite_application(
            classfiles, check_elim=option(args, "check_elim"))
        classfiles = rewritten.all_classfiles()
    costs = None
    if args.costs:
        from .jvm.disasm import resolve_cost_tables
        costs = resolve_cost_tables(args.costs)
    print(disassemble(classfiles, costs))
    return 0


def cmd_check(args) -> int:
    """`repro check`: seeded consistency sweep under oracle + monitor."""
    from .check import run_check

    def progress(sr) -> None:
        mark = "ok" if sr.ok else "FAIL"
        print(f"  seed {sr.seed:3d}: {mark}  "
              f"({sr.messages} msgs, {sr.installs_checked} installs, "
              f"{sr.finals_checked} final units)")

    report = run_check(
        app=args.app,
        seeds=args.seeds,
        faults=args.faults,
        fault_rate=args.fault_rate,
        strict=args.strict,
        kill=args.kill,
        progress=progress if args.verbose else None,
        **run_options(args),
    )
    print(report.summary())
    return 0 if report.ok else 1


def _jit_bench_lines(app: str, entry) -> List[str]:
    interp = entry["runs"]["interp"]
    jit = entry["runs"]["jit"]
    return [f"{app:10s} interp {interp['wall_seconds']:6.2f}s -> "
            f"jit {jit['wall_seconds']:6.2f}s "
            f"({entry['speedup_wall']}x wall), "
            f"{jit['jit']['compiles']} compiles, "
            f"deopt rate {jit['jit']['deopt_rate']}"
            + ("" if entry["identical"] else "  DIVERGES")]


def _policy_bench_lines(app: str, entry) -> List[str]:
    return [f"{app:10s} {mode:18s} "
            f"{delta['messages']:+5d} msgs "
            f"({delta['messages_pct']}%), "
            f"{delta['bytes']:+7d} B ({delta['bytes_pct']}%)"
            + ("" if entry["result_matches"] else "  RESULT DIVERGES")
            for mode, delta in entry["delta_vs_off"].items()]


def _backend_bench_lines(app: str, entry) -> List[str]:
    sim, proc = entry["sim"], entry["proc"]
    return [f"{app:10s} sim: {sim['simulated_ms']:8.3f} ms "
            f"{sim['messages']:5d} msgs | "
            f"proc: {proc['simulated_ms']:8.3f} ms simulated, "
            f"{proc['wall_ms']:8.1f} ms wall, "
            f"{proc['wire']['bytes']:7d} B on wire"
            + ("" if entry["identical"] else "  DIVERGES")]


def _locality_bench_lines(app: str, entry) -> List[str]:
    off = entry["runs"]["off"]
    on = entry["runs"].get("all", off)
    delta = entry.get("delta_all_vs_off", {})
    wall = f" {off['wall_ms']:7.1f} ms wall |" if "wall_ms" in off else ""
    return [f"{app:10s} off: {off['messages']:5d} msgs "
            f"{off['bytes']:7d} B {off['simulated_ms']:8.3f} ms |{wall} "
            f"all: {on['messages']:5d} msgs {on['bytes']:7d} B "
            f"{on['simulated_ms']:8.3f} ms | "
            f"fetches {off['fetches']} -> {on['fetches']} "
            f"({delta.get('fetches_pct')}%)"
            + ("" if entry["result_matches"] else "  RESULT DIVERGES")]


#: The benches: selecting flag dest ("" = the default locality bench) ->
#: (runner name in repro.bench, --json file (None: one per app, by
#: write_results), per-app summary lines, per-app pass flag).
_BENCHES = {
    "": ("run_bench", None, _locality_bench_lines, "result_matches"),
    "jit_bench": ("run_jit_bench", "bench_jit.json",
                  _jit_bench_lines, "identical"),
    "policy_bench": ("run_policy_bench", "bench_policy.json",
                     _policy_bench_lines, "result_matches"),
    "compare_backends": ("run_backend_bench", "bench_backends.json",
                         _backend_bench_lines, "identical"),
}


def cmd_bench(args) -> int:
    """`repro bench`: locality off/on numbers for the built-in apps, or
    one of the dedicated benches."""
    from pathlib import Path

    from . import bench

    apps = args.apps or list(bench.DEFAULT_APPS)
    out_dir = Path(args.out) if args.out else bench.jsonbench.RESULTS_DIR
    chosen = [flag for flag in _BENCHES if flag and getattr(args, flag)]
    own = {"ablation": args.ablation, "include_metrics": args.metrics}
    if chosen and (len(chosen) > 1 or any(own.values())):
        raise ValueError(
            "--jit-bench, --policy-bench and --compare-backends each "
            "run alone; --ablation and --metrics belong to the default "
            "locality bench")
    runner, filename, lines, ok_key = _BENCHES[chosen[0] if chosen else ""]
    doc = getattr(bench, runner)(apps=apps, **({} if chosen else own),
                                 **run_options(args))
    if args.json and filename is None:
        for path in bench.write_results(doc, out_dir=out_dir):
            print(f"wrote {path}")
    elif args.json:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / filename, doc)
        print(f"wrote {out_dir / filename}")
    for app, entry in doc["apps"].items():
        print("\n".join(lines(app, entry)))
    return 0 if all(e[ok_key] for e in doc["apps"].values()) else 1


def _print_serve_doc(doc) -> None:
    cluster = doc["cluster"]
    requests = doc["requests"]
    joins = ", ".join(f"{j['brand']}@{j['at_ms']:g}ms"
                      for j in cluster["joins"]) or "none"
    print(f"serve: scenario={doc['scenario']} backend={doc['backend']} "
          f"seed={doc['seed']}")
    print(f"  cluster             : {cluster['nodes']} nodes "
          f"(brands {','.join(cluster['brands'])}), joins {joins}, "
          f"kill={cluster['kill'] or 'none'}, "
          f"{cluster['tenants']} tenants")
    print(f"  requests            : {requests['injected']} injected, "
          f"{requests['delivered']} delivered, "
          f"{requests['completed']} completed")
    result = doc["result"]
    match = ("match" if result["matches"]
             else ("DIVERGES" if result["required"]
                   else "diverges (allowed under kill)"))
    print(f"  result              : {result['value']} "
          f"(reference {result['reference']}, {match})")
    oracle = doc["oracle"]
    print(f"  oracle              : "
          f"{'clean' if not oracle['violations'] else 'VIOLATIONS'} "
          f"({oracle['installs_checked']} installs, "
          f"{oracle['finals_checked']} final units)")
    for i, ph in enumerate(doc["slo"]["phases"]):
        lat = ph["latency_ms"]
        print(f"  phase {i} "
              f"[{ph['start_ms']:g}-{ph['end_ms']:g}ms]  : "
              f"{ph['completed']}/{ph['injected']} done, "
              f"{ph['throughput_rps']:g} rps, "
              f"p50 {lat['p50']:g}ms p99 {lat['p99']:g}ms "
              f"p999 {lat['p999']:g}ms")
    lat = doc["slo"]["overall"]["latency_ms"]
    print(f"  overall             : "
          f"{doc['slo']['overall']['throughput_rps']:g} rps, "
          f"p50 {lat['p50']:g}ms p99 {lat['p99']:g}ms "
          f"p999 {lat['p999']:g}ms")
    if doc.get("error"):
        print(f"  error               : {doc['error']}")
    print(f"  verdict             : {'OK' if doc['ok'] else 'FAILED'}")


def cmd_serve(args) -> int:
    """`repro serve`: churn scenarios over the serving workload."""
    from .serve import PRESETS, run_scenario, run_scenario_sweep

    options = run_options(args)
    if args.seeds is not None:
        if args.preset == "all":
            raise ValueError("--seeds sweeps one preset, not 'all'")
        doc = run_scenario_sweep(PRESETS[args.preset], seeds=args.seeds,
                                 **options)
    elif args.preset == "all":
        doc = {
            "bench": "serve",
            "schema": 1,
            "backend": option(options, "backend"),
            "seed": option(options, "seed"),
            "scenarios": {name: run_scenario(PRESETS[name], **options)
                          for name in sorted(PRESETS)},
        }
        doc["ok"] = all(s["ok"] for s in doc["scenarios"].values())
    else:
        doc = run_scenario(PRESETS[args.preset], **options)
    ok = doc["ok"]
    if args.json:
        print(json.dumps(doc, indent=2))
    elif "seeds" in doc:
        for run in doc["seeds"]:
            print(f"seed {run['seed']:3d}: "
                  f"{'ok' if run['ok'] else 'FAILED'} "
                  f"({run['requests']['completed']}"
                  f"/{run['requests']['injected']} requests)")
        print(f"serve sweep: scenario={doc['scenario']} "
              f"backend={doc['backend']} "
              f"{len(doc['seeds'])} seeds, "
              f"verdict {'OK' if ok else 'FAILED'} "
              f"(failed seeds: {doc['failed_seeds'] or 'none'})")
    else:
        for sub in doc.get("scenarios", {"": doc}).values():
            _print_serve_doc(sub)
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if ok else 1


def cmd_trace(args) -> int:
    """`repro trace`: distributed run with protocol tracing."""
    runtime = _launch(args, _read(args.source))
    tracer = DsmTracer.attach(runtime, max_events=args.limit)
    report = runtime.run()
    print(tracer.format())
    print()
    summary = tracer.summary()
    print("trace summary     : " + ", ".join(
        f"{kind}={count}" for kind, count in summary.items()))
    if args.json:
        doc = {
            "source": args.source,
            "summary": summary,
            "truncated": tracer.truncated,
            # Always present (0 on a complete trace) so consumers can
            # tell a truncated trace from a quiet run without probing.
            "truncated_dropped": tracer.dropped,
            "events": tracer.as_dicts(),
        }
        _write_json(args.json, doc)
        print(f"wrote {len(tracer.events)} events to {args.json}")
    _report(report)
    return 0


def _app_or_source(target: str) -> str:
    """Resolve a profile/stats target: built-in app name or .mj path."""
    from .check.runner import APP_SOURCES

    return APP_SOURCES[target]() if target in APP_SOURCES else _read(target)


def _jit_detail(report) -> None:
    """Per-method tier/exit breakdown appended to profile/stats output."""
    j = report.jit
    if j is None:
        return
    print("jit methods:")
    for name in sorted(j["methods"]):
        info = j["methods"][name]
        exits = info["exits"]
        deopts = exits.get("deopt", 0)
        detail = ", ".join(f"{r}={n}" for r, n in sorted(exits.items()))
        print(f"  {name:40s} tier={info['tier']} deopts={deopts} "
              f"lines/bytecode={info['lines'] / info['bytecodes']:.1f}  "
              f"({detail or 'never entered'})")
    for name, why in sorted(j["blacklisted"].items()):
        print(f"  {name:40s} tier=0 (blacklisted: {why})")


def cmd_profile(args) -> int:
    """`repro profile`: full-telemetry run + stall-attribution report."""
    from .obs.spans import validate_chrome_trace

    runtime = _launch(args, _app_or_source(args.target), obs_metrics=True,
                      obs_spans=True, obs_profile=True)
    report = runtime.run()
    obs = runtime.obs
    assert obs is not None and obs.profiler is not None \
        and obs.spans is not None
    print(obs.profiler.format(args.top))
    print()
    if args.trace:
        wall_samples = (obs.wallclock.samples
                        if obs.wallclock is not None else None)
        doc = obs.spans.to_chrome_trace(wall_samples=wall_samples)
        errors = validate_chrome_trace(doc)
        _write_json(args.trace, doc)
        print(f"wrote {len(doc['traceEvents'])} trace events to "
              f"{args.trace}")
        if errors:
            print(f"trace-event schema violations ({len(errors)}):",
                  file=sys.stderr)
            for err in errors[:10]:
                print(f"  {err}", file=sys.stderr)
            return 1
    if args.speedscope:
        with open(args.speedscope, "w") as fh:
            fh.write(obs.spans.to_collapsed())
        print(f"wrote collapsed stacks to {args.speedscope}")
    _jit_detail(report)
    _report(report)
    return 0


def _live_stats_lines(runtime) -> List[str]:
    """One refresh of the live cluster view: the master's wall-clock
    histograms (RTT, codec, jit), per node and merged."""
    lines = [f"-- live @ sim {runtime.engine.now / 1e6:10.3f} ms --"]
    obs = runtime.obs
    wall = None if obs is None else obs.wallclock
    if wall is None:
        return lines
    doc = wall.as_dict()
    for name in sorted(doc["histograms"]):
        merged = doc["histograms"][name]["merged"]
        by_node = " ".join(
            f"n{n}={h['count']}" for n, h in
            sorted(doc["histograms"][name]["by_node"].items()))
        lines.append(f"  {name:28s} n={merged['count']:6d} "
                     f"mean={merged['mean']:12.1f} p99={merged['p99']}  "
                     f"{by_node}")
    return lines


@contextlib.contextmanager
def _live_printer(enabled: bool, interval_s: float):
    """Yields ``watch(runtime)``: when ``enabled``, the merged cluster
    view of a watched runtime is printed every ``interval_s`` (wall
    clock) until the block exits.  Read-only on runtime state — it never
    touches sockets or the engine, so the sim schedule is unaffected."""
    import threading

    stop = threading.Event()
    threads = []

    def watch(runtime) -> None:
        def loop() -> None:
            while not stop.wait(interval_s):
                for line in _live_stats_lines(runtime):
                    print(line, flush=True)

        if enabled:
            threads.append(threading.Thread(
                target=loop, name="repro-live-stats", daemon=True))
            threads[-1].start()

    try:
        yield watch
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=2.0)


def _stats_serve(args, preset: str) -> int:
    """``repro stats serve:<preset>``: live telemetry during a serving
    scenario (the churn/SLO harness), on either backend."""
    from .serve import PRESETS, run_scenario

    if preset not in PRESETS:
        raise ValueError(f"unknown serve preset {preset!r} "
                         f"(have {', '.join(sorted(PRESETS))})")
    with _live_printer(args.live, args.interval) as watch:
        doc = run_scenario(PRESETS[preset],
                           config_overrides={"obs_wallclock": True},
                           on_runtime=watch, **run_options(args))
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_serve_doc(doc)
    return 0 if doc["ok"] else 1


def cmd_stats(args) -> int:
    """`repro stats`: metrics-registry run; counters + histograms."""
    if args.target.startswith("serve:"):
        return _stats_serve(args, args.target.split(":", 1)[1])
    fields = {"obs_metrics": True}
    if args.live:
        fields["obs_wallclock"] = True
    runtime = _launch(args, _app_or_source(args.target), **fields)
    with _live_printer(args.live, args.interval) as watch:
        watch(runtime)
        report = runtime.run()
    obs = runtime.obs
    assert obs is not None and obs.metrics is not None
    doc = obs.metrics.as_dict()
    net = report.net
    if net is not None:
        doc["net"] = {
            "messages": net.messages,
            "bytes": net.bytes,
            "dropped": net.dropped,
            "wire_frames": net.wire_frames,
            "wire_bytes": net.wire_bytes,
            "wire_delivered": net.wire_delivered,
            "wire_fallback": net.wire_fallback,
        }
    if obs.wallclock is not None:
        doc["wallclock"] = obs.wallclock.as_dict()
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print("counters:")
    for name in sorted(doc["counters"]):
        entry = doc["counters"][name]
        by_node = ", ".join(f"n{n}={c}"
                            for n, c in sorted(entry["by_node"].items()))
        print(f"  {name:24s} {entry['total']:8d}  ({by_node})")
    if doc["gauges"]:
        print("gauges:")
        for name in sorted(doc["gauges"]):
            print(f"  {name:24s} {doc['gauges'][name]}")
    if doc["histograms"]:
        print("histograms:")
        for name in sorted(doc["histograms"]):
            h = obs.metrics.histogram(name)
            print(f"  {name:24s} n={h.count:6d} mean={h.mean:12.1f} "
                  f"p50={h.quantile(0.5)} p99={h.quantile(0.99)} "
                  f"max={h.max}")
    if "net" in doc:
        n = doc["net"]
        print("net:")
        print(f"  messages={n['messages']} bytes={n['bytes']} "
              f"dropped={n['dropped']}")
        print(f"  wire: frames={n['wire_frames']} bytes={n['wire_bytes']} "
              f"delivered={n['wire_delivered']} "
              f"fallback={n['wire_fallback']}")
    if "wallclock" in doc:
        wc = doc["wallclock"]
        print(f"wallclock (elapsed {wc['wall_elapsed_ns'] / 1e9:.3f}s):")
        for name in sorted(wc["histograms"]):
            merged = wc["histograms"][name]["merged"]
            print(f"  {name:28s} n={merged['count']:6d} "
                  f"mean={merged['mean']:12.1f} p99={merged['p99']}")
    _jit_detail(report)
    _report(report)
    return 0


def cmd_race(args) -> int:
    """`repro race`: seeded race-detector sweep over one program."""
    from .check import run_race_check

    def progress(sr) -> None:
        mark = "ok" if sr.ok(args.expect) else "FAIL"
        print(f"  seed {sr.seed:3d}: {mark}  ({sr.races} reports, "
              f"{sr.suppressed} suppressed, {sr.events} events)")

    report = run_race_check(
        source=_read(args.source),
        name=args.source,
        seeds=args.seeds,
        mode=args.mode,
        expect=args.expect,
        suppress=tuple(args.suppress or ()),
        progress=progress if args.verbose else None,
        **run_options(args),
    )
    print(report.summary())
    # Show the (deduplicated) reports of the first seed that has any.
    for sr in report.results:
        if sr.reports:
            print(f"\nreports (seed {sr.seed}):")
            for d in sr.reports:
                sites = "\n".join(
                    f"    {s['kind']:5s} {s['class']}.{s['method']} "
                    f"pc={s['pc']} line={s['line']}  node={s['node']} "
                    f"thread={s['thread']} t={s['time_ns'] / 1e6:.3f}ms"
                    for s in d["sites"])
                extra = (f"  lockset={d['lockset']}"
                         if d["lockset"] else "")
                print(f"  race on {d['variable']} [{d['engine']}]{extra}\n"
                      f"{sites}")
            break
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (separate from dispatch so
    tests can exercise flag wiring without running anything)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JavaSplit reproduction: distributed execution of "
                    "monolithic MiniJava programs on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, fn, help: str,
             *run_flags: str) -> argparse.ArgumentParser:
        """One subcommand.  A cluster-running verb takes every run flag;
        the other two name the few they share."""
        p = sub.add_parser(name, help=help)
        add_run_flags(p, *run_flags)
        p.set_defaults(fn=fn)
        return p

    def sweep_flags(p: argparse.ArgumentParser, seeds: int) -> None:
        p.add_argument("--seeds", type=int, default=seeds,
                       help="number of seeded schedules to explore")
        p.add_argument("--verbose", action="store_true",
                       help="print one line per seed")

    p_run = verb("run", cmd_run, "execute on a simulated cluster")
    p_run.add_argument("source", help="MiniJava source file")
    p_run.set_defaults(nodes=2)

    p_orig = verb("original", cmd_original, "un-instrumented single-JVM run",
                  "brand", "cpus", "dilation")
    p_orig.add_argument("source")

    p_dis = verb("disasm", cmd_disasm, "disassemble bytecode", "check_elim")
    p_dis.add_argument("source")
    p_dis.add_argument("--costs", default=None, metavar="BRAND",
                       choices=("sun", "ibm"),
                       help="annotate pre-summed per-run costs and "
                            "check-elim notes for a JVM brand")
    p_dis.add_argument("--rewritten", action="store_true",
                       help="disassemble the javasplit.* rewrite instead")

    p_chk = verb("check", cmd_check,
                 "consistency sweep: oracle + invariant monitor over seeds")
    p_chk.add_argument("--app", default="series",
                       choices=("series", "tsp", "raytracer"),
                       help="benchmark application to sweep")
    sweep_flags(p_chk, seeds=25)
    p_chk.add_argument("--faults", default="",
                       help="comma-separated faults to inject: "
                            "drop,dup,delay,reorder (default: none)")
    p_chk.add_argument("--fault-rate", type=float, default=0.05,
                       help="per-frame fault probability")
    p_chk.add_argument("--kill", default=None, metavar="NODE@TIME",
                       help="kill one worker mid-run with fault tolerance "
                            "enabled (e.g. 2@5ms, or 'random' for a "
                            "seed-derived node and time)")
    p_chk.add_argument("--strict", action="store_true",
                       help="raise on the first violation instead of "
                            "collecting")

    p_race = verb("race", cmd_race,
                  "race-detector sweep: seeded schedules of one program")
    p_race.add_argument("source", help="MiniJava source file")
    sweep_flags(p_race, seeds=8)
    p_race.add_argument("--mode", default="both",
                        choices=("hb", "lockset", "both"),
                        help="detection engine(s) to run")
    p_race.add_argument("--expect", default="race",
                        choices=("race", "free"),
                        help="'race': fail seeds with no report (positive "
                             "control); 'free': fail seeds with a report")
    p_race.add_argument("--suppress", action="append", metavar="PATTERN",
                        help="benign-race suppression (Class.field or "
                             "Class[]; repeatable)")

    p_bench = verb("bench", cmd_bench,
                   "bench built-in apps with the locality subsystem off/on "
                   "(--nodes defaults to 3; --policy-bench to 5)")
    p_bench.add_argument("--app", action="append", dest="apps",
                         choices=("series", "tsp", "raytracer"),
                         help="app to bench (repeatable; default: all)")
    p_bench.add_argument("--ablation", action="store_true",
                         help="also bench each locality component and "
                              "each coherence policy alone")
    p_bench.add_argument("--policy-bench", action="store_true",
                         help="dedicated per-policy ablation on a wider "
                              "cluster (what BENCH_7.json snapshots; "
                              "--json writes bench_policy.json)")
    p_bench.add_argument("--json", action="store_true",
                         help="write JSON files under --out")
    p_bench.add_argument("--out", default=None, metavar="DIR",
                         help="output directory for --json "
                              "(default: benchmarks/results)")
    p_bench.add_argument("--metrics", action="store_true",
                         help="also run with the telemetry metrics "
                              "registry on and embed its compact summary")
    p_bench.add_argument("--jit-bench", action="store_true",
                         help="tiered-JIT ablation: interp vs jit vs "
                              "jit+check-elim-2 per app (what "
                              "BENCH_9.json snapshots; deterministic "
                              "fields must be identical interp vs jit)")
    p_bench.add_argument("--compare-backends", action="store_true",
                         help="run every app on both backends and report "
                              "simulated vs wall-clock time side by side "
                              "(--json writes bench_backends.json)")

    p_sv = verb("serve", cmd_serve,
                "serving-workload churn scenarios with SLO report (run "
                "flags override what the preset selects)")
    p_sv.add_argument("--preset", default="steady",
                      choices=("steady", "churn", "hotset", "all"),
                      help="scenario preset: 'steady' (fixed cluster "
                           "baseline), 'churn' (mixed brands, mid-run "
                           "join + random kill, two tenants), 'hotset' "
                           "(phase-shifted hot keys under locality + "
                           "policy), or 'all'")
    p_sv.add_argument("--seeds", type=int, default=None, metavar="N",
                      help="sweep N consecutive seeds of one preset; exit "
                           "nonzero if any seed fails")
    p_sv.add_argument("--json", action="store_true",
                      help="print the full document as JSON instead of "
                           "the summary")
    p_sv.add_argument("--out", default=None, metavar="FILE",
                      help="also write the JSON document to FILE")

    p_prof = verb("profile", cmd_profile,
                  "telemetry run: stall attribution + causal span traces "
                  "(--wallclock adds a wall-clock counter lane to --trace)")
    p_prof.add_argument("target",
                        help="built-in app name (series/tsp/raytracer) "
                             "or a MiniJava source file")
    p_prof.add_argument("--top", type=int, default=10,
                        help="entries in the hot-site / hot-unit tables")
    p_prof.add_argument("--trace", default=None, metavar="FILE",
                        help="write Chrome/Perfetto trace-event JSON")
    p_prof.add_argument("--speedscope", default=None, metavar="FILE",
                        help="write speedscope-compatible collapsed "
                             "stacks (Brendan Gregg folded format)")

    p_st = verb("stats", cmd_stats,
                "metrics-registry run: counters + histograms")
    p_st.add_argument("target",
                      help="built-in app name (series/tsp/raytracer), "
                           "a MiniJava source file, or serve:<preset> "
                           "for a serving scenario with telemetry")
    p_st.add_argument("--json", action="store_true",
                      help="print the raw registry dump as JSON")
    p_st.add_argument("--live", action="store_true",
                      help="stream merged per-node wall-clock metrics "
                           "to stdout while the run executes")
    p_st.add_argument("--interval", type=float, default=0.5,
                      metavar="SECONDS",
                      help="--live refresh period (wall clock)")

    p_tr = verb("trace", cmd_trace, "run with DSM protocol tracing")
    p_tr.add_argument("source", help="MiniJava source file")
    p_tr.set_defaults(nodes=2)
    p_tr.add_argument("--limit", type=int, default=200,
                      help="max trace events recorded")
    p_tr.add_argument("--json", default=None, metavar="FILE",
                      help="also write the events + summary as JSON")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Argument parsing + dispatch; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # A bad spec, or a flag combination the command cannot honour:
        # configs and harnesses reject those before any run starts.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
