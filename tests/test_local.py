from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import gen_er, neighbors, suite_graphs
from graphlets import (
    AdaptiveConfig,
    MicroKernel,
    SampleDesign,
    VertexMarker,
    accumulate,
    adaptive_estimate,
    classify_edge,
    confidence_bounds,
    from_edges,
    max_per_edge,
    sample_and_estimate,
    univariate_stats,
    unrestricted_counts,
)
from graphlets import local, wholegraph
from graphlets.local import edge_tallies, isum, zone_kernel
from graphlets.oracle import brute_force_edge_counts

SUITE = suite_graphs()


def zones_by_sets(g, u, v):
    nu = set(neighbors(g, u).tolist())
    nv = set(neighbors(g, v).tolist())
    T = nu & nv
    return T, nu - nv - {v}, nv - nu - {u}


@pytest.mark.parametrize("seed", range(6))
def test_classify_edge_zones(seed):
    g = gen_er(25, 0.25, seed)
    marker = VertexMarker(g.n)
    for e in range(g.m):
        u, v = map(int, g.edges[e])
        loc = classify_edge(g, u, v, marker)
        T, su, sv = zones_by_sets(g, u, v)
        assert set(loc.T.tolist()) == T
        assert set(loc.S_u.tolist()) == su
        assert set(loc.S_v.tolist()) == sv
        assert loc.far == g.n - len(T) - len(su) - len(sv) - 2


def kernel_scan(g, u, v):
    """(t, K_e, C_e) of edge (u, v) from the zone kernel, one edge per batch."""
    c = zone_kernel(g).tallies(np.array([[u, v]]))[0]
    return c[2], c[6], c[9]


@pytest.mark.parametrize("seed", range(6))
def test_clique_cycle_marker_vs_bsearch(seed):
    g = gen_er(30, 0.2, seed + 50)
    for e in range(g.m):
        u, v = map(int, g.edges[e])
        ref = brute_force_edge_counts(g, e)
        # 4-cliques and induced 4-cycles at e
        assert kernel_scan(g, u, v)[1:] == (ref[6], ref[9])


def test_clique_cycle_by_hand():
    k4 = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert kernel_scan(k4, 0, 1) == (2, 1, 0)  # {2,3} adjacent pair in T

    c4 = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert kernel_scan(c4, 0, 1) == (0, 0, 1)  # 3 in S_u(0) adjacent to 2 in S_v(1)


def test_unrestricted_tuple_shape(named):
    g = named["tailed_triangle"]
    c = unrestricted_counts(g, 0)
    assert len(c) == 17
    assert all(isinstance(x, int) for x in c)
    assert c[0] == 1 and c[1] == 0 and c[5] == 0 and c[16] == 0


def test_unrestricted_rejects_bad_edges(named):
    g = named["P4"]
    for e in (-1, g.m):
        with pytest.raises(ValueError):
            unrestricted_counts(g, e)  # -1 must not wrap to the last edge
    with pytest.raises(KeyError):
        unrestricted_counts(g, (0, 2))  # not an edge
    assert unrestricted_counts(g, (2, 1)) == unrestricted_counts(g, 1)


@pytest.mark.parametrize("seed", range(4))
def test_unrestricted_matches_zone_formulas(seed):
    g = gen_er(20, 0.3, seed + 9)
    marker = VertexMarker(g.n)
    for e in range(g.m):
        u, v = map(int, g.edges[e])
        c = unrestricted_counts(g, e, marker)
        T, su_set, sv_set = zones_by_sets(g, u, v)
        t, su, sv = len(T), len(su_set), len(sv_set)
        r = g.n - t - su - sv - 2
        assert c[2] == t
        assert c[3] == su + sv
        assert c[4] == r
        # pairs inside T that are themselves adjacent = cliques at the edge
        k4 = sum(b in neighbors(g, a) for a in T for b in T if a < b)
        assert c[6] == k4
        cyc = sum(b in neighbors(g, a) for a in su_set for b in sv_set)
        assert c[9] == cyc
        assert c[7] == t * (t - 1) // 2
        assert c[8] == t * (su + sv)
        assert c[10] == su * (su - 1) // 2 + sv * (sv - 1) // 2
        assert c[11] == su * sv
        assert c[12] == (su + sv) * r
        assert c[13] == t * r
        assert c[14] == r * (r - 1) // 2
        assert c[15] == g.m - g.degrees[u] - g.degrees[v] + 1


def test_marker_generation_isolation():
    # interleaved calls on different edges never bleed marks across edges
    g = gen_er(15, 0.4, 2)
    marker = VertexMarker(g.n)
    baseline = [unrestricted_counts(g, e) for e in range(g.m)]
    twice = [unrestricted_counts(g, e, marker) for e in range(g.m)] and [
        unrestricted_counts(g, e, marker) for e in range(g.m)
    ]
    assert twice == baseline


@st.composite
def tally_rows(draw):
    """n, m and rows (t, k4, cyc, d_u, d_v) that some edge of such a graph has."""
    n = draw(st.integers(2, 2**31 - 1))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        du, dv = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        t = draw(st.integers(max(0, du + dv - n), min(du, dv) - 1))
        k4 = draw(st.integers(0, t * (t - 1) // 2))
        cyc = draw(st.integers(0, (du - 1 - t) * (dv - 1 - t)))
        rows.append((t, k4, cyc, du, dv))
    m = draw(st.integers(max(du + dv - 1 for *_, du, dv in rows), n * (n - 1) // 2))
    return n, m, rows


@given(tally_rows())
def test_edge_tallies_on_arrays_match_ints(case):
    # the int64 evaluation is exact for every n a Graph holds
    n, m, rows = case
    cols = edge_tallies(*np.array(rows, dtype=np.int64).T, n, m)
    want = [edge_tallies(*row, n, m) for row in rows]
    assert all(type(x) is int for c in want for x in c)
    assert [[int(col[i]) for col in cols] for i in range(len(rows))] == [list(c) for c in want]
    assert [isum(col) for col in cols] == [sum(col) for col in zip(*want)]


# ---------------------------------------------------------------------------
# the one zone kernel, held to the oracle and to the whole-graph pass


@pytest.mark.parametrize("name", sorted(n for n, g in SUITE.items() if g.n <= 64))
def test_kernel_matches_edge_oracle(name):
    g = SUITE[name]
    kernel = MicroKernel(g)
    for e in range(g.m):
        ref = brute_force_edge_counts(g, e)
        u, v = map(int, g.edges[e])
        assert kernel_scan(g, u, v) == (ref[2], ref[6], ref[9]), e  # t, 4-cliques, 4-cycles
        assert kernel.counts(e).x == ref, e


def test_kernel_tallies_sum_to_edge_totals():
    g = SUITE["power_law"]
    c = zone_kernel(g).tallies(g.edges.astype(np.int64))[0]
    assert [isum(col) for col in c] == wholegraph.edge_totals(g)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_one_edge_tallies_match_the_batch(name):
    # a one-edge call takes the Python-int branch; a batch, the int64 arrays
    g = SUITE[name]
    kernel, ends = zone_kernel(g), g.edges.astype(np.int64)
    batch = kernel.tallies(ends)[0]
    for i in range(g.m):
        one = kernel.tallies(ends[i:i + 1])[0]
        assert all(type(x) is int for x in one), i
        assert list(one) == [int(col[i]) for col in batch], i


def split_outputs(g):
    """Every batched caller's results on g; the mark words are zero after each."""
    words = zone_kernel(g).words
    out = []

    def keep(*results):
        assert not words.any()
        out.extend(results)

    ids = np.random.default_rng(1).integers(0, g.m, 3 * g.m // 2)  # repeats included
    acc = accumulate(g, ids, with_sq=True, inclusion=Fraction(1, 3))
    keep(acc.counts, acc.sq)
    est = sample_and_estimate(g, SampleDesign(size=g.m // 3, weighting="kcore", seed=2))
    keep(est.X, est.variance, confidence_bounds(est))
    res = adaptive_estimate(g, AdaptiveConfig(beta=0.2, seed=3))
    keep(res.estimate.X, res.trace)
    keep(max_per_edge(g, "4-cycle"), max_per_edge(g, "4-clique", SampleDesign(p=0.3, seed=4)))
    keep(MicroKernel(g).column(np.arange(g.m), 12).tolist(), univariate_stats(g, 12))
    return out


@pytest.mark.parametrize("name", ["power_law", "planted", "er3"])
def test_batch_split_invariance(name, monkeypatch):
    g = SUITE[name]
    want = split_outputs(g)
    for patch in ({"EDGES": 1}, {"BUDGET": 1}, {"BUDGET": 2**40}, {"STAR": 0},
                  {"STAR": 2**62}):
        with monkeypatch.context() as mp:
            for key, value in patch.items():
                mp.setattr(local, key, value)
            assert split_outputs(g) == want, patch


def star_with_noise():
    """K_{1,150} at vertex 0 plus G(201, 0.03) noise: one center with more
    than 2 * EDGES edges, so more than one star batch."""
    hub = [(0, i) for i in range(1, 151)]
    return from_edges(np.vstack([hub, gen_er(201, 0.03, 7).edges]))


PARITY = {"power_law": SUITE["power_law"], "planted": SUITE["planted"],
          "star": star_with_noise()}


@pytest.mark.parametrize("budget", [None, 64])
@pytest.mark.parametrize("name", sorted(PARITY))
def test_tallies_agree_across_batch_kinds(name, budget, monkeypatch):
    # every edge's (c, M, D) is the same from a star batch as from a lane batch
    g = PARITY[name]
    kernel, rng = zone_kernel(g), np.random.default_rng(0)
    ids = np.concatenate([np.arange(g.m), rng.integers(0, g.m, g.m // 2)])  # repeats
    ends = g.edges[ids].astype(np.int64)
    flip = rng.random(len(ends)) < 0.5
    ends[flip] = ends[flip, ::-1]  # either end first
    if budget:  # slices the larger centers' scans
        monkeypatch.setattr(local, "BUDGET", budget)
        scans = [np.diff(kernel.up[0])[neighbors(g, h)].sum() for h in range(g.n)]
        assert max(scans) > budget
    out = []
    for star in (0, 2**62):  # every center to star batches, then none
        monkeypatch.setattr(local, "STAR", star)
        out.append(kernel.tallies(ends))
        assert not kernel.words.any()
    (c, M, D), (c_lane, M_lane, D_lane) = out
    assert all(np.array_equal(a, b) for a, b in zip(c, c_lane))
    assert np.array_equal(M, M_lane) and np.array_equal(D, D_lane)
    assert not M[0].any() and not M[:, 0].any()  # zone-to-zone pairs only


def test_batches_keep_to_the_edge_cap_and_budget(monkeypatch):
    g = SUITE["power_law"]
    kernel, batches, stars, inside = zone_kernel(g), [], [], []
    batch, star, gather = local.ZoneKernel._batch, local.ZoneKernel._star, local._gather

    def spy(self, ends):
        batches.append(ends)
        return batch(self, ends)

    def star_spy(self, h, x, flip):
        stars.append((h, x, []))
        inside.append(True)
        try:
            return star(self, h, x, flip)
        finally:
            inside.pop()

    def gather_spy(offsets, ids, verts):
        lists, lens = gather(offsets, ids, verts)
        if inside:  # (lists, entries) of each gather in a star batch
            stars[-1][2].append((len(verts), len(lists)))
        return lists, lens

    monkeypatch.setattr(local.ZoneKernel, "_batch", spy)
    monkeypatch.setattr(local.ZoneKernel, "_star", star_spy)
    monkeypatch.setattr(local, "_gather", gather_spy)
    monkeypatch.setattr(local, "BUDGET", 1500)
    ends = g.edges[np.argsort(-g.edge_hardness(), kind="stable")]

    def lane_batches_keep_to_the_cap_and_budget(ends):
        sizes = [len(b) for b in batches]
        assert np.array_equal(np.concatenate(batches), ends)  # in the call's order
        works = [int(kernel.reach[b].sum()) for b in batches]
        # a batch over the budget is one edge alone; reach bounds what a batch gathers
        assert all(size <= local.EDGES and (work <= 1500 or size == 1)
                   for size, work in zip(sizes, works))
        # a batch ends only where the edge cap or the budget ends it
        reach = kernel.reach[ends].sum(axis=1)
        starts = np.cumsum(sizes)[:-1]
        assert all(size == local.EDGES or work + reach[at] > 1500
                   for size, work, at in zip(sizes, works, starts))
        return sizes, works

    with monkeypatch.context() as mp:  # every edge to the lane batches
        mp.setattr(local, "STAR", 2**62)
        kernel.tallies(ends)
    assert not stars
    sizes, works = lane_batches_keep_to_the_cap_and_budget(ends)
    assert sum(sizes) == g.m
    assert {size for size, work in zip(sizes, works) if work > 1500} == {1}
    assert max(sizes) == local.EDGES

    batches.clear()
    kernel.tallies(ends)
    in_star = {frozenset((h, int(y))) for h, x, _ in stars for y in x}
    lanes = np.array([e for e in ends.tolist() if frozenset(e) not in in_star])
    sizes, _ = lane_batches_keep_to_the_cap_and_budget(lanes)
    # star batches count toward the total: every edge once, in one kind of batch
    assert sum(sizes) + sum(len(x) for _, x, _ in stars) == g.m == len(lanes) + len(in_star)
    # a lane's work, reach[x] + |up(x)|, bounds what a star batch gathers for it
    work = kernel.reach + np.diff(kernel.up[0])
    for (h, x, gathers), nxt in zip(stars, stars[1:] + [(None, None, None)]):
        assert len(x) <= 2 * local.EDGES and (work[x].sum() <= 1500 or len(x) == 1)
        assert all(entries <= 1500 or lists == 1 for lists, entries in gathers)
        if nxt[0] == h:  # a center's batch ends only where the lane cap or the budget does
            assert len(x) == 2 * local.EDGES or work[x].sum() + work[nxt[1][0]] > 1500
    assert len({h for h, _, _ in stars}) < len(stars)  # some center takes several batches
    assert max(len(x) for _, x, _ in stars) == 2 * local.EDGES
