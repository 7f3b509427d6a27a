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
    offsets, ids = g.up_lists()
    assert g.up_lists()[1] is ids  # cached
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
    assert [len(a) for a in g.up_lists()] == [3, 1]  # sized by the CSR, not by n


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


def test_max_per_edge_workers_agree():
    g = gen_power_law(3000, 5.0, 1)
    kcore = SampleDesign(size=400, weighting="kcore", seed=3)
    for pattern, design in (("4-cycle", None), ("4-clique", None), ("4-cycle", kcore)):
        one = max_per_edge(g, pattern, design=design, workers=1)
        assert max_per_edge(g, pattern, design=design, workers=2) == one, pattern


@pytest.mark.parametrize("p_e", [1.0, 0.4])
def test_univariate_stats_is_the_kernel_loop(p_e):
    g = gen_er(25, 0.3, 45)
    kernel = MicroKernel(g)
    for pid in (4, 10, 15):
        rng = np.random.default_rng(6) if p_e < 1 else None
        loop = [kernel.counts(e, p_e=p_e, rng=rng).x[pid - 1] for e in range(g.m)]
        assert univariate_stats(g, pid, p_e=p_e, seed=6)["values"].tolist() == loop, pid


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


def _fan(k: int) -> Graph:
    """Hub 0 joined to every vertex of the path 1 - 2 - ... - k."""
    return from_edges([(0, i) for i in range(1, k + 1)] + [(i, i + 1) for i in range(1, k)])


@pytest.mark.parametrize("g, e", [
    # the hardest edge of a dense ER graph
    pytest.param(gen_er(30, 0.35, 42), "hardest", id="er-hardest"),
    # the hub edge of a power-law graph, whose up-lists are long
    pytest.param(gen_power_law(300, 5.0, 2), 716, id="pl-hub"),
    # path edge (1, 2) of a fan: its common neighbor, the hub, has an empty up-list
    pytest.param(_fan(6), (1, 2), id="fan-empty-up-list"),
])
def test_sampled_micro_unbiased_mean(g, e):
    # neighbor-sampled tallies average out to the exact per-edge counts
    kernel = MicroKernel(g)
    if e == "hardest":
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


def test_sampled_route_keeps_whole_lists(named):
    # at p_e = 1 - 1e-9 every up-list is kept whole, each entry with weight 1
    for name, g in named.items():
        kernel = MicroKernel(g)
        rng = np.random.default_rng(0)
        for e in range(g.m):
            assert kernel.counts(e, p_e=1 - 1e-9, rng=rng).x == kernel.counts(e).x, (name, e)


def test_sampled_micro_unclamped_low_count():
    # a zero clamp pulls this slot's mean about 16 SE above its true value
    g = gen_er(30, 0.35, 43)
    kernel = MicroKernel(g)
    i = 15 - 1  # 4-node-2-edge
    assert micro_counts(g, 63).x[i] == 2
    rng = np.random.default_rng(0)
    vals = np.array([kernel.counts(63, p_e=0.4, rng=rng).x[i] for _ in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 2) <= 4 * se, (vals.mean(), se)


# micro_counts(g, e, p_e=0.4, seed=s).x as float.hex, recorded from the kernel
# that keeps ceil(d * p_e) random entries of each up-list of d entries, weighted
# by d / ceil(d * p_e); this pins the draw order and the float sums of that
# route, so the sampled path must stay bitwise the same
SAMPLED_GOLDEN = [
    ("er", 7, 2, "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.c000000000000p+3 "
     "0x1.a000000000000p+3 0x0.0p+0 0x0.0p+0 0x1.1555555555556p+2 0x1.a800000000000p+4 "
     "0x1.7000000000001p+3 0x1.0eaaaaaaaaaaap+5 0x1.4755555555555p+6 0x1.0aaaaaaaaaaabp+3 "
     "0x1.0b55555555556p+7 0x1.8000000000002p+4 0x1.affffffffffffp+5 0x0.0p+0"),
    ("er", 0, 5, "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.4000000000000p+3 "
     "0x1.1000000000000p+4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.7d55555555556p+4 "
     "0x1.6000000000000p+2 0x1.e555555555555p+3 0x1.3355555555555p+6 0x1.0000000000000p+3 "
     "0x1.c2aaaaaaaaaabp+6 0x1.02aaaaaaaaaacp+5 0x1.9eaaaaaaaaaaap+6 0x0.0p+0"),
    ("pl", 716, 1, "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+3 0x1.a000000000000p+5 "
     "0x1.dc00000000000p+7 0x0.0p+0 0x0.0p+0 0x1.9000000000000p+5 0x1.e800000000000p+8 "
     "0x1.1800000000000p+4 0x1.3b00000000000p+9 0x1.a7c0000000000p+9 0x1.c980000000000p+10 "
     "0x1.7cd8000000000p+13 0x1.7380000000000p+8 0x1.b2de000000000p+14 0x0.0p+0"),
    ("pl", 17, 3, "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+2 0x1.2600000000000p+8 "
     "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+1 0x1.4000000000000p+5 "
     "0x0.0p+0 0x1.1d00000000000p+10 0x1.6900000000000p+9 0x1.4ada000000000p+15 0x0.0p+0"),
]


def test_sampled_micro_golden():
    graphs = {"er": gen_er(30, 0.3, 41), "pl": gen_power_law(300, 5.0, 2)}
    assert int(np.argmax(graphs["pl"].edge_hardness())) == 716  # its hardest edge
    for name, e, seed, golden in SAMPLED_GOLDEN:
        x = micro_counts(graphs[name], e, p_e=0.4, seed=seed).x
        assert " ".join(float(val).hex() for val in x) == golden, (name, e, seed)


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
