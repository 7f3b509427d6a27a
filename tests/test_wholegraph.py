import math
import os
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gen import assert_no_child_left, suite_graphs
from graphlets import (
    Graph,
    accumulate,
    brute_force_counts,
    exact_counts,
    from_edges,
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
    # more wedges than that spans several chunks of its own id, whose runs must
    # merge across them
    monkeypatch.setattr(local, "BUDGET", 5)
    assert wholegraph.edge_totals(SUITE[name]) == kernel_totals(SUITE[name])


@pytest.mark.parametrize("budget", [local.BUDGET, 5])
def test_totals_equal_at_any_worker_count(budget, monkeypatch, eight_cpus):
    # at 5 the map has many ids, and each heavy top merges its chunks in a
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


@pytest.mark.parametrize("name", sorted(SUITE))
def test_small_chunks_reduce_alike(name, monkeypatch):
    g = SUITE[name]
    ids = np.arange(g.m)
    ref = accumulate(g, ids, with_sq=True, inclusion=Fraction(1, 2))
    monkeypatch.setattr(estimate, "CHUNK", 5)
    alt = accumulate(g, ids, with_sq=True, inclusion=Fraction(1, 2))
    assert (alt.counts, alt.sq) == (ref.counts, ref.sq)


def test_squares_past_int64():
    # z of the far-pairs slot is about 6 r**2 = 2.4e17 here: its square is far
    # past int64 and float precision, so the squares must stay Python ints
    g = single_edge(2 * 10**8)
    acc = accumulate(g, [0], with_sq=True, inclusion=Fraction(1, 2))
    assert acc.sq == [z * z for z in scaled_contributions(unrestricted_counts(g, 0))]
    assert max(acc.sq) > 2**113
