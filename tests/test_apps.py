"""Benchmark-application correctness: distributed result == original."""

import math

import pytest

from repro.apps import raytracer, series, tsp
from repro.runtime import RuntimeConfig, run_distributed, run_original


def check_app(mod, nodes=2, config=None, **params):
    src = mod.make_source(**params)
    base = run_original(source=src)
    if config is None:
        dist = run_distributed(source=src, num_nodes=nodes)
    else:
        dist = run_distributed(source=src, config=config)
    assert dist.result == base.result
    return base, dist


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------
def test_series_distributed_matches_original():
    check_app(series, nodes=2, n_coeffs=12, steps=16, n_threads=4)


def test_series_result_stable_across_node_counts():
    src = series.make_source(n_coeffs=12, steps=16, n_threads=4)
    results = {
        nodes: run_distributed(source=src, num_nodes=nodes).result
        for nodes in (1, 2, 4)
    }
    assert len(set(results.values())) == 1


def test_series_coefficients_against_numpy():
    """Cross-validate the MiniJava integration against a numpy trapezoid
    for a couple of coefficients."""
    src = series.make_source(n_coeffs=4, steps=64, n_threads=1)
    base = run_original(source=src)
    np = pytest.importorskip("numpy")     # a test-only reference

    xs = np.linspace(0.0, 2.0, 65)
    f = np.exp(xs * np.log(xs + 1.0))
    check = 0.0
    for k in range(4):
        w = math.pi * k
        a = np.trapezoid(f * np.cos(w * xs), xs) * 0.5
        b = np.trapezoid(f * np.sin(w * xs), xs) * 0.5
        check += abs(a) + abs(b)
    assert base.result == int(check * 1000)


def test_series_thread_count_does_not_change_result():
    r = {}
    for k in (1, 2, 3, 6):
        src = series.make_source(n_coeffs=12, steps=16, n_threads=k)
        r[k] = run_original(source=src).result
    assert len(set(r.values())) == 1


def test_series_param_validation():
    with pytest.raises(ValueError):
        series.make_source(n_coeffs=2, n_threads=4)


# ---------------------------------------------------------------------------
# TSP
# ---------------------------------------------------------------------------
def _brute_force_tsp(n, seed):
    """Independent Python reimplementation of the tour length."""
    import itertools

    s = seed
    xs, ys = [], []

    def lcg(s):
        s = (s * 1103515245 + 12345) % 2147483648
        return s if s >= 0 else -s

    for _ in range(n):
        s = lcg(s)
        xs.append(s % 1000)
        s = lcg(s)
        ys.append(s % 1000)
    dist = [[int(math.sqrt((xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2))
             for j in range(n)] for i in range(n)]
    best = None
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        length = sum(
            dist[tour[i]][tour[i + 1]] for i in range(n - 1)
        ) + dist[tour[-1]][0]
        best = length if best is None else min(best, length)
    return best


def test_tsp_finds_true_minimum():
    base = run_original(source=tsp.make_source(n_cities=7, n_threads=2))
    assert base.result == _brute_force_tsp(7, tsp.DEFAULT_SEED)


def test_tsp_distributed_matches_original():
    check_app(tsp, nodes=3, n_cities=7, n_threads=3)


def test_tsp_stale_bound_reads_still_give_minimum():
    """The unsynchronized bound read is the interesting DSM behaviour:
    across several cluster layouts the minimum must be identical."""
    src = tsp.make_source(n_cities=7, n_threads=4)
    expected = _brute_force_tsp(7, tsp.DEFAULT_SEED)
    for nodes in (1, 2, 4):
        assert run_distributed(source=src, num_nodes=nodes).result == expected


def test_tsp_different_seeds_different_tours():
    a = run_original(source=tsp.make_source(n_cities=7, seed=1)).result
    b = run_original(source=tsp.make_source(n_cities=7, seed=2)).result
    assert a != b  # overwhelmingly likely for random instances


def test_tsp_param_validation():
    with pytest.raises(ValueError):
        tsp.make_source(n_cities=2)


# ---------------------------------------------------------------------------
# Ray Tracer
# ---------------------------------------------------------------------------
def test_raytracer_distributed_matches_original():
    check_app(raytracer, nodes=2, resolution=8, n_threads=4, n_spheres=8)


def test_raytracer_row_distribution_invariant():
    """Checksum must not depend on how rows are split across threads."""
    results = {}
    for k in (1, 2, 4, 8):
        src = raytracer.make_source(resolution=8, n_threads=k, n_spheres=8)
        results[k] = run_original(source=src).result
    assert len(set(results.values())) == 1


def test_raytracer_hits_some_spheres():
    """The checksum must exceed the pure-background value."""
    res = 8
    src = raytracer.make_source(resolution=res, n_threads=1, n_spheres=64)
    result = run_original(source=src).result
    background = res * res * int(0.05 * 255)
    assert result > background


def test_raytracer_statics_profile():
    """After rewriting, the scene accesses go through the static holder
    (the paper calls Ray Tracer its static-access-heavy benchmark)."""
    from repro.lang import compile_source
    from repro.rewriter import rewrite_application

    src = raytracer.make_source(resolution=8, n_threads=2, n_spheres=8)
    rewritten = rewrite_application(compile_source(src))
    assert rewritten.stats["static_accesses"] > 20
    assert "javasplit.Scene" in rewritten.static_gids


def test_raytracer_mixed_brands():
    src = raytracer.make_source(resolution=8, n_threads=4, n_spheres=8)
    base = run_original(source=src)
    cfg = RuntimeConfig(num_nodes=2, brands=["sun", "ibm"])
    dist = run_distributed(source=src, config=cfg)
    assert dist.result == base.result


def test_raytracer_param_validation():
    with pytest.raises(ValueError):
        raytracer.make_source(resolution=2, n_threads=4)
