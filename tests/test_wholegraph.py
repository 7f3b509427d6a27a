import math
import mmap
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


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
def test_shared_buffer_is_unmapped(monkeypatch, eight_cpus):
    # every pass maps its t(e) buffer afresh; none may outlive its call
    def shared_anonymous():
        with open("/proc/self/maps") as maps:  # "/dev/zero (deleted)" names them
            return sum(f[1].endswith("s") and f[5:6] == ["/dev/zero"]
                       for f in map(str.split, maps))

    monkeypatch.setattr(local, "BUDGET", 5)
    g = SUITE["power_law"]
    ref, before = wholegraph.edge_totals(g), shared_anonymous()
    for _ in range(50):
        assert wholegraph.edge_totals(g, 2) == ref
    assert shared_anonymous() <= before
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


EDGE_CASES = {"edgeless": from_edges([], n=3), "one_edge": from_edges([(0, 1)]),
              "one_edge_largest_n": single_edge(2**31 - 1)}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name", [*sorted(SUITE), *EDGE_CASES])
def test_shares_send_back_two_ints(name, workers, monkeypatch, eight_cpus):
    # each share adds t(e) into its own row of the shared buffer, so what
    # crosses a pipe is its 4-clique and 4-cycle counts, never an m-length array
    g = {**SUITE, **EDGE_CASES}[name]
    monkeypatch.setattr(local, "BUDGET", 5)
    maps = []

    def kept(fn, ids, k):
        maps.append((len(ids), local._parallel_map(fn, ids, k)))
        return maps[-1][1]

    monkeypatch.setattr(wholegraph, "_parallel_map", kept)
    assert wholegraph.edge_totals(g, workers) == wholegraph.edge_totals(g)
    assert_no_child_left()
    n_ids, first = maps[0]  # the parallel pass; the second map is the workers = 1 one
    assert len(first) == (workers if n_ids >= 2 * workers else 1)  # forked where it could
    assert all(type(part) is tuple and len(part) == 2 and all(type(x) is int for x in part)
               for _, parts in maps for part in parts)


def tailed_triangle(n):
    """A triangle with a tail of two edges among n vertices, and each edge's
    tallies from ``edge_tallies`` on Python ints; nothing of length n is
    allocated."""
    edges, deg, t = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], [2, 2, 3, 2, 1], [1, 1, 1, 0, 0]
    g = Graph(n=n, indptr=np.array([0, 2, 4, 7, 9, 10]),
              indices=np.array([1, 2, 0, 2, 0, 1, 3, 2, 4, 3], dtype=np.int32),
              edges=np.array(edges))
    return g, [local.edge_tallies(te, 0, 0, deg[u], deg[v], n, 5)
               for (u, v), te in zip(edges, t)]


def test_totals_exact_at_the_largest_n():
    # C(r, 2) is near 2**61 on each edge, so the five edges sum past int64
    g, cols = tailed_triangle(2**31 - 1)
    want = [sum(col) for col in zip(*cols)]
    assert wholegraph.edge_totals(g) == want
    assert want[14] > 2**63


TOP = 2**31 - 1  # the largest n a Graph holds


@st.composite
def edge_rows(draw):
    """n and rows (t, d_u, d_v) that edges of a graph on n vertices can have."""
    n = draw(st.integers(2, TOP))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        du, dv = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        rows.append((draw(st.integers(max(0, du + dv - n), min(du, dv) - 1)), du, dv))
    return n, rows


def edge_sums(t, du, dv):
    """The six edge sums ``local.tally_sums`` takes, of one edge."""
    return t, t * t, t * (du + dv), du + dv, du * dv, du * du + dv * dv


@given(edge_rows())
@example((TOP, []))
@example((2, [(0, 1, 1)]))
@example((TOP, [(TOP - 2, TOP - 1, TOP - 1)] * 3))  # t = min(d_u, d_v) - 1 and r = 0
@example((TOP, [(0, 1, 1), (2**30, 2**31 - 3, 2**30 + 1), (TOP - 2, TOP - 1, TOP - 1)]))
def test_tally_sums_equal_summed_tallies(case):
    # the closed form against the per-edge tallies summed over m edges, on
    # Python ints and on int64 arrays; its sums taken by isum as the pass takes them
    n, rows = case
    m = len(rows)
    want = [sum(col) for col in zip(*(local.edge_tallies(t, 0, 0, du, dv, n, m)
                                      for t, du, dv in rows))] or [0] * 17
    got = local.tally_sums(n, m, *([sum(col) for col in zip(*(edge_sums(*row) for row in rows))]
                                   or [0] * 6))
    t, du, dv = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    cols = local.edge_tallies(t, t * 0, t * 0, du, dv, n, m)
    sums = [local.isum(x) for x in edge_sums(t, du, dv)]
    assert got == want == [local.isum(col) for col in cols] == local.tally_sums(n, m, *sums)
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("n, avg_deg, seed", [(30000, 5.0, 0), (20000, 4.0, 3)])
def test_working_set_per_edge(n, avg_deg, seed, monkeypatch):
    # numpy reports its buffers to tracemalloc, so the traced peak is the same
    # on every run; an m-length array per id would take it past 200 bytes an
    # edge.  tracemalloc cannot see the shared t(e) buffer, so its bytes are
    # added to the peak
    g = gen_power_law(n, avg_deg, seed)
    shared, real = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: shared.append(args[1]) or real(*args))
    tracemalloc.start()
    try:
        wholegraph.edge_totals(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shared == [8 * g.m]  # one row at one worker
    assert peak + sum(shared) <= 200 * g.m, (peak + sum(shared)) / g.m


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


def test_squares_exact_at_the_largest_n(monkeypatch):
    # z of the far-pairs slot is about 6 C(r, 2), near 2**64: its square passes
    # 2**128, and every one-edge chunk's limbs are summed alike
    g, cols = tailed_triangle(2**31 - 1)
    want = [sum(z * z for z in zs) for zs in zip(*map(scaled_contributions, cols))]
    for chunk in (local.CHUNK, 1):
        monkeypatch.setattr(local, "CHUNK", chunk)
        acc = accumulate(g, np.arange(5), with_sq=True, inclusion=Fraction(1, 2))
        assert acc.sq == want
        assert acc.counts == [sum(col) for col in zip(*cols)]
    assert max(want) > 2**128


def test_squares_past_int64():
    # z of the far-pairs slot is about 6 r**2 = 2.4e17 here: its square is far
    # past int64 and float precision, so only the limbs keep it exact
    g = single_edge(2 * 10**8)
    acc = accumulate(g, [0], with_sq=True, inclusion=Fraction(1, 2))
    assert acc.sq == [z * z for z in scaled_contributions(unrestricted_counts(g, 0))]
    assert max(acc.sq) > 2**113
