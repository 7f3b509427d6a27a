"""Acceptance suite.

Each test checks one shipping criterion end to end at its stated tolerance
and prints a single PASS line with the measured numbers (run with -s to see
them; a failed assertion is the FAIL line).  Budgets are wall-clock seconds
on a single CPU.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

from gen import gen_er, gen_power_law, named_graphs, planted_clique
from graphlets import (
    AdaptiveConfig,
    MicroKernel,
    SampleDesign,
    accumulate,
    adaptive_estimate,
    brute_force_counts,
    brute_force_edge_counts,
    confidence_bounds,
    exact_counts,
    from_edges,
    gfd,
    ks_statistic,
    max_per_edge,
    relative_error,
    sample_and_estimate,
)
from fractions import Fraction

from graphlets.wholegraph import edge_totals


def er_retry(n, p, seed):
    # roll forward deterministically when a sparse draw comes up empty
    s = seed
    while True:
        try:
            return gen_er(n, p, s)
        except ValueError:
            s += 1000


@pytest.fixture(scope="module")
def suite_graphs():
    graphs = list(named_graphs().items())
    for seed in range(50):
        n = 5 + (seed % 26)
        p = (0.1, 0.2, 0.4)[seed % 3]
        graphs.append((f"er-{n}-{p}-{seed}", er_retry(n, p, seed)))
    return graphs


@pytest.fixture(scope="module")
def cal_graph():
    # the calibration instance used by criteria 3, 4, and 9
    return gen_er(60, 0.1, 42)


def report(line):
    print(f"\nPASS {line}")


def test_criterion_01_exact_matches_oracle(suite_graphs):
    # every exact count vector equals brute-force enumeration; budget 10s
    t0 = time.perf_counter()
    for name, g in suite_graphs:
        assert exact_counts(g).X == brute_force_counts(g), name
    dt = time.perf_counter() - t0
    assert dt < 10
    report(f"criterion 1: exact == oracle on {len(suite_graphs)} graphs "
           f"({dt:.1f}s)")


def test_criterion_02_micro_matches_edge_oracle(suite_graphs):
    # per-edge counts equal brute force on every edge; budget 30s
    t0 = time.perf_counter()
    edges_checked = 0
    for name, g in suite_graphs:
        kernel = MicroKernel(g)
        for e in range(g.m):
            assert kernel.counts(e).x == brute_force_edge_counts(g, e), (name, e)
            edges_checked += 1
    dt = time.perf_counter() - t0
    assert dt < 30
    report(f"criterion 2: micro == per-edge oracle on {edges_checked} edges "
           f"({dt:.1f}s)")


def test_criterion_03_estimator_is_unbiased(cal_graph):
    # 1000 half-density samples: per-pattern |mean - truth| <= 3 SE; 60s
    t0 = time.perf_counter()
    g = cal_graph
    truth = exact_counts(g).X
    runs = np.array(
        [sample_and_estimate(g, SampleDesign(p=0.5, seed=s)).X
         for s in range(1000)],
        dtype=float,
    )
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    worst = 0.0
    for i in range(17):
        if se[i] == 0:
            assert mean[i] == truth[i], i
        else:
            zdev = abs(mean[i] - truth[i]) / se[i]
            worst = max(worst, zdev)
            assert zdev <= 3, (i, mean[i], truth[i], zdev)
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 3: worst |mean-truth|/SE = {worst:.2f} <= 3 over 1000 "
           f"runs ({dt:.1f}s)")


def test_criterion_04_interval_coverage(cal_graph):
    # 200 runs at p=0.3: the 95% bounds cover the truth >= 90% of the time
    # for the 4-clique and 4-path slots; budget 60s
    t0 = time.perf_counter()
    g = cal_graph
    truth = exact_counts(g).X
    hits = {7: 0, 12: 0}
    n_runs = 200
    for s in range(n_runs):
        est = sample_and_estimate(g, SampleDesign(p=0.3, seed=s))
        lb, ub = confidence_bounds(est, alpha=0.05)
        for pid in hits:
            i = pid - 1
            hits[pid] += lb[i] <= truth[i] <= ub[i]
    cov7, cov12 = hits[7] / n_runs, hits[12] / n_runs
    assert cov7 >= 0.90 and cov12 >= 0.90, (cov7, cov12)
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 4: coverage 4-clique {cov7:.1%}, 4-path {cov12:.1%} "
           f">= 90% ({dt:.1f}s)")


def test_criterion_05_gfd_closeness():
    # 10% samples of a 10k-edge graph: mean KS distance of the combined
    # frequency distribution to exact <= 0.01 over 10 seeds; budget 60s
    t0 = time.perf_counter()
    n = 2000
    g = gen_er(n, 10 / (n - 1), 9)
    reference = gfd(exact_counts(g).X, "combined")
    dists = []
    for s in range(10):
        est = sample_and_estimate(g, SampleDesign(p=0.10, seed=s))
        dists.append(ks_statistic(gfd(est.X, "combined"), reference))
    mean_ks = float(np.mean(dists))
    assert mean_ks <= 0.01, dists
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 5: mean GFD KS = {mean_ks:.5f} <= 0.01 over 10 seeds "
           f"(m={g.m}, {dt:.1f}s)")


def test_criterion_06_adaptive_convergence():
    # the doubling loop stops by its own delta <= beta rule and the result is
    # within 5% of truth on every 4-vertex pattern; budget 60s
    t0 = time.perf_counter()
    g = gen_er(1000, 0.01, 11)
    truth = exact_counts(g).X
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.01, t_max=200, seed=3))
    assert res.converged, res.reason
    errs = relative_error(res.estimate.X, truth)
    worst = 0.0
    for i in range(6, 17):
        if errs[i] is True:
            continue
        assert errs[i] is not False, i
        worst = max(worst, errs[i])
        assert errs[i] <= 0.05, (i, errs[i])
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 6: {res.reason} after {res.iterations} rounds, "
           f"{res.sampled_edges}/{g.m} edges, worst 4-vertex rel err "
           f"{worst:.4f} <= 0.05 ({dt:.1f}s)")


_SCALE_TIMES = {}


def test_criterion_07_parallel_identity_at_scale():
    # ~1M-edge heavy-tailed graph: 1, 2, and 4 workers produce bitwise
    # identical totals, and so does the whole-graph pass; budget 600s for all
    t0 = time.perf_counter()
    g = gen_power_law(400_000, 5.0, seed=13)
    assert g.m > 900_000
    ids = np.arange(g.m)
    results = {}
    for w in (1, 2, 4):
        tw = time.perf_counter()
        results[w] = accumulate(g, ids, workers=w, inclusion=Fraction(1))
        _SCALE_TIMES[w] = time.perf_counter() - tw
    assert results[1].counts == results[2].counts == results[4].counts
    # the whole-graph pass agrees at every worker count; this graph has tops
    # with more wedges than local.BUDGET, merged inside forked shares too
    whole = {}
    for w in (1, 2, 4):
        tw = time.perf_counter()
        assert edge_totals(g, w) == results[1].counts, w
        whole[w] = time.perf_counter() - tw
    dt = time.perf_counter() - t0
    assert dt < 600
    report(f"criterion 7a: workers 1/2/4 bitwise identical on m={g.m} "
           f"(times {_SCALE_TIMES[1]:.0f}/{_SCALE_TIMES[2]:.0f}/"
           f"{_SCALE_TIMES[4]:.0f}s), whole-graph pass equal at 1/2/4 workers "
           f"(1/2 in {whole[1]:.2f}/{whole[2]:.2f}s)")


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-time speedup needs >= 4 CPUs")
def test_criterion_07_speedup():
    assert _SCALE_TIMES, "identity run must execute first"
    assert _SCALE_TIMES[4] <= 0.5 * _SCALE_TIMES[1], _SCALE_TIMES
    report(f"criterion 7b: 4-worker time {_SCALE_TIMES[4]:.0f}s <= half of "
           f"1-worker {_SCALE_TIMES[1]:.0f}s")


def test_criterion_08_extremal_recovery():
    # (a) 4-clique + 4-cycle side by side, half the edges core-weighted:
    # the exact per-edge maximum is recovered in >= 90 of 100 seeds.
    # (b) K8 planted in sparse noise, 10% core-weighted samples: >= 90/100
    # and strictly more recoveries than uniform sampling.  Budget 60s.
    t0 = time.perf_counter()
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    c4 = [(4, 5), (5, 6), (6, 7), (4, 7)]
    g_small = from_edges(k4 + c4)
    exact_small = max_per_edge(g_small, 7).value
    hits_small = sum(
        max_per_edge(g_small, 7,
                     design=SampleDesign(p=0.5, weighting="kcore", seed=s)
                     ).value == exact_small
        for s in range(100)
    )
    assert hits_small >= 90, hits_small

    g_planted = planted_clique(200, 0.03, 8, seed=1)
    exact_big = max_per_edge(g_planted, 7).value
    assert exact_big == 15  # every planted-clique edge carries C(6,2) cliques
    hits_core = hits_uni = 0
    for s in range(100):
        core = max_per_edge(g_planted, 7,
                            design=SampleDesign(p=0.1, weighting="kcore", seed=s))
        uni = max_per_edge(g_planted, 7, design=SampleDesign(p=0.1, seed=s))
        hits_core += core.value == exact_big
        hits_uni += uni.value == exact_big
    assert hits_core >= 90, hits_core
    assert hits_core > hits_uni, (hits_core, hits_uni)
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 8: recovery {hits_small}/100 (paired), core "
           f"{hits_core}/100 > uniform {hits_uni}/100 (planted) ({dt:.1f}s)")


def test_criterion_09_complement_identities(cal_graph):
    # on every sampled estimate the three level sums reproduce C(n,2),
    # C(n,3), C(n,4) whenever no clamp fires; checked across the suites of
    # criteria 3-6 style runs
    t0 = time.perf_counter()
    checked = 0

    def check(est, n):
        nonlocal checked
        assert not any(est.clamped)
        assert est.X[0] + est.X[1] == pytest.approx(math.comb(n, 2), rel=1e-9)
        assert sum(est.X[2:6]) == pytest.approx(math.comb(n, 3), rel=1e-9)
        assert sum(est.X[6:]) == pytest.approx(math.comb(n, 4), rel=1e-9)
        checked += 1

    g = cal_graph
    for s in range(200):
        check(sample_and_estimate(g, SampleDesign(p=0.5, seed=s)), g.n)
        check(sample_and_estimate(g, SampleDesign(p=0.3, seed=s)), g.n)

    big = gen_er(2000, 10 / 1999, 9)
    for s in range(3):
        check(sample_and_estimate(big, SampleDesign(p=0.10, seed=s)), big.n)

    g6 = gen_er(1000, 0.01, 11)
    res = adaptive_estimate(g6, AdaptiveConfig(beta=0.01, t_max=200, seed=3))
    check(res.estimate, g6.n)
    for row in res.trace:
        X = row["X"]
        assert sum(X[2:6]) == pytest.approx(math.comb(g6.n, 3), rel=1e-9)
        assert sum(X[6:]) == pytest.approx(math.comb(g6.n, 4), rel=1e-9)

    dt = time.perf_counter() - t0
    assert dt < 120
    report(f"criterion 9: level-sum identities held on {checked} estimates "
           f"and {len(res.trace)} adaptive rounds ({dt:.1f}s)")


def test_criterion_10_every_design_calibrated(cal_graph):
    # every design the CLI offers (p or expected size, uniform or core
    # weighted), 400 runs each: per-slot |mean - truth| <= 4 SE (68 checks),
    # and the 95% bounds cover the truth >= 90% of the time for the
    # tailed-triangle and 4-path slots; budget 60s
    t0 = time.perf_counter()
    g = cal_graph
    truth = exact_counts(g).X
    n_runs = 400
    worst, lowest = 0.0, 1.0
    for kw in (dict(p=0.3), dict(size=126),
               dict(p=0.3, weighting="kcore"), dict(size=126, weighting="kcore")):
        runs, hits = [], {9: 0, 12: 0}
        for s in range(n_runs):
            est = sample_and_estimate(g, SampleDesign(seed=s, **kw))
            runs.append(est.X)
            lb, ub = confidence_bounds(est, alpha=0.05)
            for pid in hits:
                hits[pid] += lb[pid - 1] <= truth[pid - 1] <= ub[pid - 1]
        runs = np.array(runs, dtype=float)
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / math.sqrt(n_runs)
        for i in range(17):
            if se[i] == 0:
                assert mean[i] == truth[i], (kw, i)
            else:
                zdev = abs(mean[i] - truth[i]) / se[i]
                worst = max(worst, zdev)
                assert zdev <= 4, (kw, i, mean[i], truth[i], zdev)
        for pid, h in hits.items():
            lowest = min(lowest, h / n_runs)
            assert h / n_runs >= 0.90, (kw, pid, h / n_runs)
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 10: worst |mean-truth|/SE = {worst:.2f} <= 4 and lowest "
           f"coverage {lowest:.1%} >= 90% over 4 designs x {n_runs} runs "
           f"({dt:.1f}s)")


def test_criterion_11_adaptive_calibrated():
    # on a heavy-tailed graph at beta = 0.2, seeds 0-19: >= 18 runs stop
    # "converged" before exhaustion with delta <= beta, and the final 95%
    # bounds cover the truth >= 90% of the time, pooled over the 11 four-vertex
    # slots; the result is the Poisson estimate at the final p (seeds 0-2),
    # and a graph with no 4-vertex sets exhausts to exact counts; budget 60s
    t0 = time.perf_counter()
    g = gen_power_law(6000, 6.0, 2)
    truth = exact_counts(g).X
    beta = 0.2
    converged = covered = 0
    final_p = []
    for s in range(20):
        res = adaptive_estimate(g, AdaptiveConfig(beta=beta, seed=s))
        if res.reason != "converged":
            continue
        assert res.sampled_edges < g.m and res.delta <= beta, (s, res.delta)
        converged += 1
        final_p.append(res.trace[-1]["p"])
        lb, ub = confidence_bounds(res.estimate, alpha=0.05)
        covered += sum(lb[i] <= truth[i] <= ub[i] for i in range(6, 17))
        if s < 3:
            direct = sample_and_estimate(g, SampleDesign(p=final_p[-1], seed=s))
            assert res.estimate.X == direct.X, s
            assert res.estimate.variance == direct.variance, s
    assert converged >= 18, converged
    coverage = covered / (11 * converged)
    assert coverage >= 0.90, coverage

    tri = from_edges([(0, 1), (0, 2), (1, 2)])
    res = adaptive_estimate(tri, AdaptiveConfig(beta=beta))
    assert res.reason == "exhausted" and res.estimate.X == brute_force_counts(tri)
    dt = time.perf_counter() - t0
    assert dt < 60
    report(f"criterion 11: {converged}/20 converged at p <= {max(final_p):.3f} "
           f"(m={g.m}), 95% coverage {covered}/{11 * converged} = "
           f"{coverage:.1%} >= 90% ({dt:.1f}s)")
