from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import gen_er, gen_power_law
from graphlets import (
    EDGE_COUNTS,
    Graph,
    MicroKernel,
    SampleDesign,
    accumulate,
    brute_force_counts,
    brute_force_edge_counts,
    exact_counts,
    from_edges,
    max_per_edge,
    micro_counts,
    univariate_stats,
    unrestricted_counts,
)
from graphlets.local import zone_kernel


def _fan(k: int) -> Graph:
    """Hub 0 joined to every vertex of the path 1 - 2 - ... - k."""
    return from_edges([(0, i) for i in range(1, k + 1)] + [(i, i + 1) for i in range(1, k)])


@pytest.mark.parametrize("g", [
    *(pytest.param(gen_er(22, 0.3, seed + 30), id=str(seed)) for seed in range(6)),
    # path edge (1, 2) of a fan: its common neighbor, the hub, has an empty up-list
    pytest.param(_fan(6), id="fan-empty-up-list"),
])
def test_micro_equals_edge_oracle(g):
    kernel = MicroKernel(g)
    for e in range(g.m):
        assert kernel.counts(e).x == brute_force_edge_counts(g, e), e


@st.composite
def small_graphs(draw):
    """A random graph (perhaps edgeless), a circulant graph (every degree
    equal, so the id breaks every rank tie), a star or a clique on at most 10
    vertices, plus up to 3 isolated vertices, under a random relabelling."""
    kind = draw(st.sampled_from(["random", "circulant", "star", "clique"]))
    if kind == "random":
        n0 = draw(st.integers(2, 9))
        pairs = [(a, b) for a in range(n0) for b in range(a + 1, n0)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    elif kind == "circulant":
        n0 = draw(st.integers(3, 10))
        steps = draw(st.sets(st.integers(1, n0 // 2), min_size=1))
        edges = [(i, (i + s) % n0) for i in range(n0) for s in steps]
    elif kind == "star":
        n0 = draw(st.integers(2, 10))
        edges = [(0, leaf) for leaf in range(1, n0)]
    else:
        n0 = draw(st.integers(2, 8))
        edges = [(a, b) for a in range(n0) for b in range(a + 1, n0)]
    n = n0 + draw(st.integers(0, 3))
    label = draw(st.permutations(range(n)))
    return from_edges([(label[a], label[b]) for a, b in edges], n=n)


@settings(max_examples=150)
@given(small_graphs())
def test_oriented_kernel_equals_oracle(g):
    kernel = MicroKernel(g)
    for e in range(g.m):
        x = kernel.counts(e).x
        assert x == brute_force_edge_counts(g, e), e
        assert all(type(val) is int for val in x)


@settings(max_examples=150)
@given(small_graphs())
def test_up_lists_partition_edges(g):
    offsets, ids = zone_kernel(g).up
    assert zone_kernel(g).up[1] is ids  # cached
    assert ids.dtype == np.int32 and len(offsets) == len(g.indptr)
    assert np.diff(offsets).sum() == offsets[-1] == g.m
    deg = g.degrees
    low = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    # each edge once, from its lower (degree, id) end, each list in id order
    assert ((deg[low] < deg[ids]) | ((deg[low] == deg[ids]) & (low < ids))).all()
    pairs = np.sort(np.column_stack([low, ids]), axis=1)
    assert sorted(map(tuple, pairs.tolist())) == sorted(map(tuple, g.edges.tolist()))
    for w in range(len(offsets) - 1):
        assert (np.diff(ids[offsets[w]:offsets[w + 1]]) > 0).all()


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
    assert [len(a) for a in zone_kernel(g).up] == [3, 1]  # sized by the CSR, not by n


def test_batched_routes_exact_at_huge_n():
    # the same edge through accumulate's and MicroKernel's batches: int64 slot
    # arithmetic must come back as exact Python ints
    n = 2 * 10**8
    g = Graph(n=n, indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32),
              edges=np.array([[0, 1]]))
    r = n - 2
    acc = accumulate(g, [0, 0], inclusion=Fraction(1))
    assert all(type(val) is int for val in acc.counts)
    assert acc.counts == [2 * c for c in unrestricted_counts(g, 0)]
    assert acc.counts[14] == r * (r - 1)
    x = MicroKernel(g).counts(0).x
    assert all(type(val) is int for val in x)
    assert x == micro_counts(g, 0).x and x[15] == r * (r - 1) // 2
    assert not zone_kernel(g).words[:2].any()


def test_hub_scale_multiplicity_and_max():
    # beyond the oracle's reach: fold-back against the exact global counts on
    # a power-law graph whose hubs hold ~200 neighbors
    g = gen_power_law(3000, 5.0, 1)
    kernel = MicroKernel(g)
    per_edge = np.array([kernel.counts(e).x for e in range(g.m)], dtype=object)
    sums = per_edge.sum(axis=0)
    total = exact_counts(g).X
    for pid, edges in EDGE_COUNTS.items():  # edgeless patterns: 0 on both sides
        assert sums[pid - 1] == edges * total[pid - 1], pid
    assert max_per_edge(g, "4-cycle", workers=2).value == max(per_edge[:, 9])


def test_max_per_edge_workers_agree():
    g = gen_power_law(3000, 5.0, 1)
    kcore = SampleDesign(size=400, weighting="kcore", seed=3)
    for pattern, design in (("4-cycle", None), ("4-clique", None), ("4-cycle", kcore)):
        one = max_per_edge(g, pattern, design=design, workers=1)
        assert max_per_edge(g, pattern, design=design, workers=2) == one, pattern


def test_univariate_stats_is_the_kernel_loop():
    g = gen_er(25, 0.3, 45)
    kernel = MicroKernel(g)
    for pid in (4, 10, 15):
        loop = [kernel.counts(e).x[pid - 1] for e in range(g.m)]
        assert kernel.column(np.arange(g.m), pid).tolist() == loop, pid
        stats = univariate_stats(g, pid)
        assert (stats["edges"], stats["min"], stats["max"], stats["mean"]) == (
            g.m, min(loop), max(loop), sum(loop) / g.m), pid


def test_p4_univariate_example(named):
    # the 4-path pattern appears once per edge of P4: summary is all ones
    g = named["P4"]
    stats = univariate_stats(g, 12)
    assert MicroKernel(g).column(np.arange(g.m), 12).tolist() == [1, 1, 1]
    assert stats["median"] == 1 and stats["min"] == 1 and stats["max"] == 1
    assert stats["std"] == 0


def test_univariate_fields():
    g = gen_er(20, 0.3, 40)
    stats = univariate_stats(g, 4)
    assert stats["edges"] == g.m
    assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]


def test_kernel_reuse_consistent():
    g = gen_er(25, 0.3, 44)
    kernel = MicroKernel(g)
    first = [kernel.counts(e).x for e in range(g.m)]
    again = [kernel.counts(e).x for e in range(g.m)]
    assert first == again
