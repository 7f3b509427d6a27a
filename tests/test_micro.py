import numpy as np
import pytest

from gen import gen_er, gen_power_law
from graphlets import (
    EDGE_COUNTS,
    Graph,
    MicroKernel,
    brute_force_counts,
    brute_force_edge_counts,
    exact_counts,
    from_edges,
    max_per_edge,
    micro_counts,
    univariate_stats,
)
from graphlets.patterns import EDGE_INCIDENT


@pytest.mark.parametrize("seed", range(6))
def test_micro_equals_edge_oracle(seed):
    g = gen_er(22, 0.3, seed + 30)
    kernel = MicroKernel(g)
    for e in range(g.m):
        assert kernel.counts(e).x == brute_force_edge_counts(g, e), e


def test_micro_named(named):
    for name, g in named.items():
        kernel = MicroKernel(g)
        for e in range(g.m):
            assert kernel.counts(e).x == brute_force_edge_counts(g, e), (name, e)


def test_micro_strictness_and_zones(named):
    res = micro_counts(named["tailed_triangle"], (2, 3))
    assert res.x[1 - 1] == 1
    assert res.x[2 - 1] == res.x[6 - 1] == res.x[17 - 1] == 0
    # pendant edge of the tail: common {}, exclusive 2 has {0, 1}, no far
    assert res.zones == (0, 2, 0, 0)
    assert res.exact


def test_micro_edge_forms(named):
    g = named["C4"]
    by_id = micro_counts(g, 1)
    u, v = map(int, g.edges[1])
    by_pair = micro_counts(g, (v, u))
    assert by_id.x == by_pair.x
    with pytest.raises(KeyError):
        micro_counts(g, (0, 2))


def test_micro_multiplicity_identity():
    for seed in (1, 5):
        g = gen_er(18, 0.35, seed + 60)
        total = brute_force_counts(g)
        kernel = MicroKernel(g)
        sums = np.zeros(17, dtype=np.int64)
        for e in range(g.m):
            sums += np.array(kernel.counts(e).x)
        for pid in range(1, 18):
            assert sums[pid - 1] == EDGE_COUNTS[pid] * total[pid - 1], pid


def test_integer_exact_at_huge_n():
    # a single edge among 2e8 vertices: C(r, 2) far pairs is past 2**53, where
    # a float round trip is off by one; the marks' untouched pages cost no RSS
    n = 2 * 10**8
    g = Graph(n=n, indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32),
              edges=np.array([[0, 1]]))
    res = micro_counts(g, 0)
    r = n - 2
    assert res.x[15] == r * (r - 1) // 2
    assert all(type(val) is int for val in res.x)


def test_hub_scale_multiplicity_and_max():
    # beyond the oracle's reach: fold-back against the exact global counts on
    # a power-law graph whose hubs hold ~200 neighbors
    g = gen_power_law(3000, 5.0, 1)
    kernel = MicroKernel(g)
    per_edge = np.array([kernel.counts(e).x for e in range(g.m)], dtype=object)
    sums = per_edge.sum(axis=0)
    total = exact_counts(g).X
    for pid in EDGE_INCIDENT:
        assert sums[pid - 1] == EDGE_COUNTS[pid] * total[pid - 1], pid
    assert max_per_edge(g, "4-cycle", workers=2).value == max(per_edge[:, 9])


def test_p4_univariate_example(named):
    # the 4-path pattern appears once per edge of P4: summary is all ones
    stats = univariate_stats(named["P4"], 12)
    assert stats["values"].tolist() == [1, 1, 1]
    assert stats["median"] == 1 and stats["min"] == 1 and stats["max"] == 1
    assert stats["std"] == 0


def test_univariate_fields():
    g = gen_er(20, 0.3, 40)
    stats = univariate_stats(g, 4)
    assert stats["edges"] == g.m
    assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]


def test_p_e_validation(named):
    with pytest.raises(ValueError):
        micro_counts(named["K4"], 0, p_e=0)
    with pytest.raises(ValueError):
        micro_counts(named["K4"], 0, p_e=1.2)


def test_sampled_micro_zone_slots_stay_exact():
    g = gen_er(30, 0.3, 41)
    for e in (0, 3, 7):
        full = micro_counts(g, e)
        part = micro_counts(g, e, p_e=0.5, seed=2)
        # zone sizes are never sampled, so the pure-zone slots match exactly
        for i in (1 - 1, 3 - 1, 4 - 1, 5 - 1):
            assert part.x[i] == full.x[i]
        assert all(v >= 0 for v in part.x)
        assert not part.exact


def test_sampled_micro_unbiased_mean():
    # neighbor-sampled tallies average out to the exact per-edge counts
    g = gen_er(30, 0.35, 42)
    kernel = MicroKernel(g)
    e = int(np.argmax(g.edge_hardness()))
    exact = np.array(micro_counts(g, e).x, dtype=float)
    rng = np.random.default_rng(7)
    runs = np.array(
        [kernel.counts(e, p_e=0.4, rng=rng).x for _ in range(400)], dtype=float)
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    for i in range(17):
        if se[i] == 0:
            assert mean[i] == exact[i], i
        else:
            assert abs(mean[i] - exact[i]) <= 4 * se[i], i


def test_sampled_micro_unclamped_low_count():
    # a zero clamp pulls this slot's mean about 19 SE above its true value
    g = gen_er(30, 0.35, 43)
    kernel = MicroKernel(g)
    i = 15 - 1  # 4-node-2-edge
    assert micro_counts(g, 63).x[i] == 2
    rng = np.random.default_rng(0)
    vals = np.array([kernel.counts(63, p_e=0.4, rng=rng).x[i] for _ in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 2) <= 4 * se, (vals.mean(), se)


def test_sampled_micro_deterministic_by_seed():
    g = gen_er(25, 0.3, 43)
    a = micro_counts(g, 4, p_e=0.3, seed=9)
    b = micro_counts(g, 4, p_e=0.3, seed=9)
    assert a.x == b.x


def test_kernel_reuse_consistent():
    g = gen_er(25, 0.3, 44)
    kernel = MicroKernel(g)
    first = [kernel.counts(e).x for e in range(g.m)]
    again = [kernel.counts(e).x for e in range(g.m)]
    assert first == again
