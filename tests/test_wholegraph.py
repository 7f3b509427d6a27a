from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gen import gen_er, gen_power_law, named_graphs, planted_clique
from graphlets import accumulate, brute_force_counts, exact_counts, from_edges
from graphlets import estimate, wholegraph


def suite():
    graphs = dict(named_graphs())
    for s in range(6):
        graphs[f"er{s}"] = gen_er(30, 0.1 + 0.15 * s, s)
    graphs["power_law"] = gen_power_law(3000, 5.0, 1)
    graphs["planted"] = planted_clique(60, 0.1, 12, 3)
    return graphs


SUITE = suite()


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
    # a few entries per chunk: hub out-lists and one top vertex's wedges span
    # several chunks, so the carried runs must merge across them
    monkeypatch.setattr(wholegraph, "BUDGET", 5)
    assert wholegraph.edge_totals(SUITE[name]) == kernel_totals(SUITE[name])


def test_exact_counts_runs_no_edge_kernel(monkeypatch, named):
    def refuse(*args, **kwargs):
        raise AssertionError("exact_counts must not run the per-edge kernel")

    monkeypatch.setattr(estimate, "accumulate", refuse)
    monkeypatch.setattr(estimate, "unrestricted_counts", refuse)
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
    assert wholegraph._isum(x) == 3 * 2**62
    assert wholegraph._isum(-x) == -3 * 2**62
