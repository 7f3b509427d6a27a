import math
from dataclasses import fields
from fractions import Fraction

import pytest

from gen import gen_er
from graphlets import (
    AdaptiveConfig,
    SampleDesign,
    accumulate,
    adaptive_estimate,
    brute_force_counts,
    confidence_bounds,
    estimate_counts,
    from_edges,
    sample_and_estimate,
)
from graphlets.adaptive import _ci_delta


def test_config_validation():
    assert [f.name for f in fields(AdaptiveConfig)] == ["beta", "t_max", "seed"]
    with pytest.raises(ValueError):
        AdaptiveConfig(beta=-0.1)
    with pytest.raises(ValueError):
        AdaptiveConfig(beta=1.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(t_max=0)
    with pytest.raises(TypeError):
        AdaptiveConfig(phi0=0.5)


def test_exhaustion_is_exact():
    # m = 4: the first round's p = 2 / sqrt(m) is already 1
    g = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.0))
    assert res.reason == "exhausted" and not res.converged
    assert res.sampled_edges == g.m
    assert res.estimate.X == brute_force_counts(g)
    assert res.iterations == 1


def test_beta_zero_runs_to_exhaustion():
    g = gen_er(20, 0.3, 70)
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.0, t_max=500))
    assert res.reason == "exhausted"
    assert res.estimate.X == brute_force_counts(g)
    assert res.delta == 0.0
    # p_t = 2^t / sqrt(m) first reaches 1 at round ceil(log2(sqrt(m)))
    assert res.iterations == math.ceil(math.log2(math.sqrt(g.m)))
    assert res.trace[-1]["p"] == 1.0


def test_trace_shape_and_monotonicity():
    g = gen_er(200, 0.2, 71)
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.0, t_max=4))
    assert res.reason == "t_max"
    assert not res.converged
    assert len(res.trace) == res.iterations == 4
    ps = [row["p"] for row in res.trace]
    assert ps[0] == pytest.approx(2 / math.sqrt(g.m))
    for a, b in zip(ps, ps[1:]):
        assert b == 2 * a
    sampled = [row["sampled"] for row in res.trace]
    assert all(a < b for a, b in zip(sampled, sampled[1:]))
    assert [row["new_edges"] for row in res.trace] == [
        b - a for a, b in zip([0] + sampled, sampled)]
    assert all(row["delta"] > 0 for row in res.trace)
    assert res.sampled_edges == sampled[-1] == res.estimate.k_used
    assert res.delta == res.trace[-1]["delta"]


def test_converges_and_is_deterministic():
    g = gen_er(300, 0.1, 72)
    cfg = AdaptiveConfig(beta=0.2, seed=4)
    a = adaptive_estimate(g, cfg)
    b = adaptive_estimate(g, cfg)
    assert a.reason == "converged" and a.sampled_edges < g.m
    assert a.delta <= cfg.beta
    assert a.estimate.X == b.estimate.X
    assert [r["sampled"] for r in a.trace] == [r["sampled"] for r in b.trace]
    # the stopping statistic is the largest relative 95% upper-bound gap
    _, ub = confidence_bounds(a.estimate)
    X = a.estimate.X
    assert a.delta == max((ub[i] - X[i]) / X[i] for i in range(6, 17) if X[i])


def test_result_is_the_poisson_estimate_at_final_p():
    g = gen_er(300, 0.1, 72)
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.3, seed=5))
    p = res.trace[-1]["p"]
    direct = sample_and_estimate(g, SampleDesign(p=p, seed=5))
    assert res.estimate.X == direct.X
    assert res.estimate.variance == direct.variance
    assert res.estimate.p == p


def test_degenerate_triangle_exhausts():
    # a triangle has no 4-vertex sets at all, so the intervals give no basis
    # to stop and the loop must run to exhaustion
    g = from_edges([(0, 1), (0, 2), (1, 2)])
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.5))
    assert res.reason == "exhausted"
    assert res.delta == 1.0
    assert res.estimate.X == brute_force_counts(g)


def test_clamped_slot_gives_no_basis_to_stop():
    # diamond sampled through its central edge only: the tailed-triangle slot
    # clamps, and a clamped slot must keep the loop going
    g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    acc = accumulate(g, [g.edge_id(0, 1)], with_sq=True, inclusion=Fraction(1, 2))
    est = estimate_counts(g, acc)
    assert est.clamped[9 - 1]
    assert _ci_delta(est) == 1.0


def test_variance_available_at_end():
    g = gen_er(300, 0.1, 74)
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.3))
    assert res.sampled_edges < g.m
    assert res.estimate.variance is not None
    assert any(v > 0 for v in res.estimate.variance)
