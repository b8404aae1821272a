"""Ablation A4 (§6.2) — redundant access-check elimination.

"To reduce the overhead of the heap data accesses, we are currently
working on methods to eliminate unnecessary access checks ... Since we
are planning to employ aggressive access check elimination techniques
such as those used in [19], we expect that in the future we will get
similar speedups for different JVMs."

This ablation measures each benchmark app's single-node instrumentation
slowdown with the pass off (the paper's prototype) and on, for both
JVM brands.  Expected shape: slowdowns drop on both brands, and the
*gap between brands* narrows — the paper's stated motivation.
"""

import pytest

from repro.apps import raytracer, series, tsp
from repro.bench import emit
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig, run_original

APPS = {
    "tsp": tsp.make_source(n_cities=7, n_threads=2),
    "series": series.make_source(n_coeffs=16, steps=30, n_threads=2),
    "raytracer": raytracer.make_source(resolution=10, n_threads=2, n_spheres=16),
}


def _slowdown(src, brand, optimize):
    base = run_original(source=src, brand=brand)
    rw = rewrite_application(compile_source(src), check_elim=int(optimize))
    rep = JavaSplitRuntime(
        rw, RuntimeConfig(num_nodes=1, brands=(brand,))
    ).run()
    assert rep.result == base.result
    return rep.simulated_ns / base.simulated_ns, rw.stats["checks_eliminated"]


@pytest.fixture(scope="module")
def checkelim_results():
    out = {}
    for app, src in APPS.items():
        for brand in ("sun", "ibm"):
            off, _ = _slowdown(src, brand, optimize=False)
            on, eliminated = _slowdown(src, brand, optimize=True)
            out[(app, brand)] = (off, on, eliminated)
    return out


def test_ablation_checkelim_regenerate(checkelim_results, benchmark):
    benchmark.pedantic(
        lambda: _slowdown(APPS["series"], "sun", True),
        rounds=1, iterations=1,
    )
    lines = [f"{'app':<12}{'brand':<7}{'slowdown off':>14}{'slowdown on':>13}"
             f"{'checks gone':>13}"]
    for (app, brand), (off, on, gone) in checkelim_results.items():
        lines.append(f"{app:<12}{brand:<7}{off:>14.2f}{on:>13.2f}{gone:>13}")
    emit("ablation_checkelim", "\n".join(lines))
    for (app, brand), (off, on, _) in checkelim_results.items():
        assert on <= off, (app, brand)


@pytest.mark.parametrize("app", list(APPS))
def test_checkelim_reduces_slowdown(checkelim_results, app):
    for brand in ("sun", "ibm"):
        off, on, gone = checkelim_results[(app, brand)]
        assert gone > 0
        assert on < off


def test_checkelim_narrows_brand_gap(checkelim_results):
    """The paper's motivation: with check elimination the two brands'
    slowdowns converge (on array-heavy TSP, where the gap is widest)."""
    sun_off, sun_on, _ = checkelim_results[("tsp", "sun")]
    ibm_off, ibm_on, _ = checkelim_results[("tsp", "ibm")]
    gap_off = abs(sun_off - ibm_off)
    gap_on = abs(sun_on - ibm_on)
    assert gap_on <= gap_off
