import math
import os
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gen import assert_no_child_left, gen_power_law, serialize, suite_graphs
from graphlets import (
    Graph,
    MicroKernel,
    accumulate,
    brute_force_counts,
    exact_counts,
    from_edges,
    parse_graph,
    scaled_contributions,
    unrestricted_counts,
)
from graphlets import estimate, local, wholegraph


SUITE = suite_graphs()


def kernel_totals(g):
    return accumulate(g, np.arange(g.m), inclusion=Fraction(1)).counts


@pytest.mark.parametrize("name", sorted(SUITE))
def test_totals_equal_edge_kernel(name):
    g = SUITE[name]
    totals = wholegraph.edge_totals(g)
    assert totals == kernel_totals(g)
    assert all(type(x) is int for x in totals)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_tiny_budget_splits_chunks(name, monkeypatch):
    # a few entries per chunk: the listing spans many ids, and a top vertex with
    # more wedges than that spans several chunks of its own id, whose run
    # lengths must add up across them
    monkeypatch.setattr(local, "BUDGET", 5)
    assert wholegraph.edge_totals(SUITE[name]) == kernel_totals(SUITE[name])


@pytest.mark.parametrize("budget", [local.BUDGET, 5], ids=["default", "5"])
def test_totals_equal_at_any_worker_count(budget, monkeypatch, eight_cpus):
    # at 5 the map has many ids, and each heavy top adds up its chunks in a
    # forked share as well as in this process
    monkeypatch.setattr(local, "BUDGET", budget)
    for name, g in SUITE.items():
        ref = wholegraph.edge_totals(g)
        for workers in (2, 3, 5):
            assert wholegraph.edge_totals(g, workers) == ref, (name, workers)
            assert exact_counts(g, workers).X == exact_counts(g).X, (name, workers)
    assert_no_child_left()


def test_one_chunk_graph_never_forks(monkeypatch, eight_cpus, named):
    # K5's pass is one triangle chunk and one wedge group: two ids, fewer than
    # two per share at two workers, so they run in this process
    def no_fork():
        raise AssertionError("forked for a pass of two ids")

    monkeypatch.setattr(os, "fork", no_fork)
    assert exact_counts(named["K5"], workers=2).X == brute_force_counts(named["K5"])


def test_exact_counts_runs_no_edge_kernel(monkeypatch, named):
    def refuse(*args, **kwargs):
        raise AssertionError("exact_counts must not run the per-edge kernel")

    monkeypatch.setattr(estimate, "accumulate", refuse)
    monkeypatch.setattr(local.ZoneKernel, "tallies", refuse)
    assert exact_counts(named["K5"]).X == brute_force_counts(named["K5"])
    with pytest.raises(ValueError):
        exact_counts(named["K5"], workers=0)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 40))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=1, unique=True))
    return from_edges(pairs, n=n)


@given(graphs())
@example(from_edges([(0, 1)]))
@example(from_edges([(0, 1)], n=9))
@example(from_edges([(0, k) for k in range(1, 12)]))
@example(from_edges([(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)], n=10))
@example(from_edges(list(combinations(range(5), 2))))
def test_exact_matches_oracle(g):
    X = exact_counts(g).X
    assert X == brute_force_counts(g)
    assert all(type(x) is int for x in X)


def test_exact_sum_past_int64():
    # three entries of 2**62 overflow an int64 sum; the halves do not
    x = np.full(3, 2**62, dtype=np.int64)
    assert local.isum(x) == 3 * 2**62
    assert local.isum(-x) == -3 * 2**62
    assert local.isum(np.stack([x, -x])).tolist() == [3 * 2**62, -3 * 2**62]  # by row


def single_edge(n):
    """Edge (0, 1) among n vertices; nothing of length n is allocated."""
    return Graph(n=n, indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32),
                 edges=np.array([[0, 1]]))


def test_exact_at_the_largest_n():
    n = 2**31 - 1
    X = exact_counts(single_edge(n)).X
    assert all(type(x) is int for x in X)
    r = n - 2
    want = [0] * 17
    want[0], want[1] = 1, math.comb(n, 2) - 1
    want[4], want[5] = r, math.comb(n, 3) - r
    want[15], want[16] = math.comb(r, 2), math.comb(n, 4) - math.comb(r, 2)
    assert X == want


def test_sliced_reduction_exact_at_the_largest_n(monkeypatch):
    # a triangle with a tail of two edges among 2**31 - 1 vertices: C(r, 2) is
    # near 2**61 on each edge, so its five one-edge slices sum past int64
    n, edges = 2**31 - 1, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
    deg, t = [2, 2, 3, 2, 1], [1, 1, 1, 0, 0]
    g = Graph(n=n, indptr=np.array([0, 2, 4, 7, 9, 10]),
              indices=np.array([1, 2, 0, 2, 0, 1, 3, 2, 4, 3], dtype=np.int32),
              edges=np.array(edges))
    want = [sum(col) for col in zip(*(local.edge_tallies(te, 0, 0, deg[u], deg[v], n, 5)
                                      for (u, v), te in zip(edges, t)))]
    assert wholegraph.edge_totals(g) == want
    monkeypatch.setattr(local, "CHUNK", 1)
    assert wholegraph.edge_totals(g) == want
    assert want[14] > 2**63


@pytest.mark.parametrize("name", sorted(SUITE))
def test_sliced_reduction_sums_alike(name, monkeypatch):
    # the closing reduction walks t(e) in CHUNK slices, never all m at once
    g = SUITE[name]
    sizes, tallies = [], wholegraph.edge_tallies
    monkeypatch.setattr(wholegraph, "edge_tallies",
                        lambda t, *rest: sizes.append(len(t)) or tallies(t, *rest))
    monkeypatch.setattr(local, "CHUNK", 5)
    assert wholegraph.edge_totals(g) == kernel_totals(g)
    assert max(sizes) <= 5 and sum(sizes) == g.m


@pytest.mark.parametrize("n, avg_deg, seed", [(30000, 5.0, 0), (20000, 4.0, 3)])
def test_working_set_per_edge(n, avg_deg, seed):
    # numpy reports its buffers to tracemalloc, so the traced peak is the same
    # on every run; an m-length array per id, or the tally columns at length
    # m, would take it past 200 bytes an edge
    g = gen_power_law(n, avg_deg, seed)
    tracemalloc.start()
    try:
        wholegraph.edge_totals(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * g.m, peak / g.m


def snap_text(n: int, m: int, seed: int) -> str:
    """A SNAP-style edge list: a # header, tab separators, sparse 7-digit ids."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(9 * 10**6, size=n, replace=False) + 10**6
    rows = ids[rng.integers(0, n, size=(m, 2))]
    rows = rows[rows[:, 0] != rows[:, 1]]
    head = f"# Directed graph\n# Nodes: {n} Edges: {len(rows)}\n# FromNodeId\tToNodeId\n"
    return head + "\n".join(map("{}\t{}".format, *rows.T.tolist())) + "\n"


@pytest.mark.parametrize("make", [lambda: snap_text(60000, 130000, 0),  # 2.1 MB
                                  lambda: serialize(gen_power_law(30000, 5.0, 0))],
                         ids=["snap", "canonical"])
def test_parse_working_set_per_text_byte(make):
    # the byte route's scratch arrays are a block long: a dozen text-length
    # ones would take the traced peak of a parse past 10 bytes a text byte
    text = make()
    tracemalloc.start()
    try:
        parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * len(text), peak / len(text)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_small_chunks_reduce_alike(name, monkeypatch):
    g = SUITE[name]
    ids = np.arange(g.m)
    ref = accumulate(g, ids, with_sq=True, inclusion=Fraction(1, 2))
    columns = [MicroKernel(g).column(ids, pid) for pid in range(1, 18)]
    sizes, tallies = [], local.ZoneKernel.tallies
    monkeypatch.setattr(local.ZoneKernel, "tallies",
                        lambda self, ends: sizes.append(len(ends)) or tallies(self, ends))
    monkeypatch.setattr(local, "CHUNK", 5)
    alt = accumulate(g, ids, with_sq=True, inclusion=Fraction(1, 2))
    assert (alt.counts, alt.sq) == (ref.counts, ref.sq)
    for pid, want in enumerate(columns, 1):
        got = MicroKernel(g).column(ids, pid)
        assert got.dtype == want.dtype and np.array_equal(got, want), pid
    assert max(sizes) <= 5 and sum(sizes) == 18 * g.m  # both split at the patched CHUNK


def test_squares_past_int64():
    # z of the far-pairs slot is about 6 r**2 = 2.4e17 here: its square is far
    # past int64 and float precision, so the squares must stay Python ints
    g = single_edge(2 * 10**8)
    acc = accumulate(g, [0], with_sq=True, inclusion=Fraction(1, 2))
    assert acc.sq == [z * z for z in scaled_contributions(unrestricted_counts(g, 0))]
    assert max(acc.sq) > 2**113
