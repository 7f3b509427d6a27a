import math
from unittest import mock

import numpy as np
import pytest

from gen import gen_er
from graphlets import (
    EDGE_COUNTS,
    OracleSizeError,
    brute_force_counts,
    brute_force_edge_counts,
    from_edges,
    oracle,
)

# hand-checked full count vectors, indexed by pattern id - 1
HAND = {
    "K4": [6, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "K5": [10, 0, 10, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "P4": [3, 3, 0, 2, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    "C4": [4, 2, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    "star3": [3, 3, 0, 3, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    "triangle_iso": [3, 3, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    "two_edges": [2, 4, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    "tailed_triangle": [4, 2, 1, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_counts(name, named):
    assert brute_force_counts(named[name]) == HAND[name]


def test_level_sums():
    g = gen_er(18, 0.3, 3)
    y = brute_force_counts(g)
    assert y[0] + y[1] == math.comb(g.n, 2)
    assert sum(y[2:6]) == math.comb(g.n, 3)
    assert sum(y[6:]) == math.comb(g.n, 4)


def test_size_cap(monkeypatch):
    g = gen_er(30, 0.2, 0)
    # refused before the O(n^2) bitmasks are built
    monkeypatch.setattr(oracle, "_adjacency_bits", mock.Mock(side_effect=AssertionError))
    with pytest.raises(OracleSizeError):
        brute_force_counts(g, max_n=20)
    with pytest.raises(OracleSizeError):
        brute_force_edge_counts(g, 0, max_n=20)
    with pytest.raises(AssertionError):  # the patched builder is the one called
        brute_force_counts(g)


def test_edge_counts_strict_containment(named):
    g = named["tailed_triangle"]
    for e in range(g.m):
        y = brute_force_edge_counts(g, e)
        assert y[0] == 1
        assert y[1] == 0 and y[5] == 0 and y[16] == 0


def test_edge_counts_by_id_or_pair(named):
    g = named["C4"]
    u, v = map(int, g.edges[2])
    assert brute_force_edge_counts(g, 2) == brute_force_edge_counts(g, (u, v))
    with pytest.raises(KeyError):
        brute_force_edge_counts(g, (0, 2))  # diagonal of C4


def test_edge_counts_reject_bad_ids(named):
    g = named["P4"]
    for e in (-1, g.m):
        with pytest.raises(ValueError):
            brute_force_edge_counts(g, e)  # -1 must not wrap to the last edge
    with pytest.raises(KeyError):
        brute_force_edge_counts(g, (0, 2))


def test_multiplicity_identity():
    # per-edge counts summed over edges = global count * edges-per-pattern
    for seed in range(4):
        g = gen_er(14, 0.35, seed)
        total = brute_force_counts(g)
        sums = np.zeros(17, dtype=np.int64)
        for e in range(g.m):
            sums += brute_force_edge_counts(g, e)
        for pid in range(1, 18):
            assert sums[pid - 1] == EDGE_COUNTS[pid] * total[pid - 1], pid


def test_known_edge_vector(named):
    # middle edge of P4 sees both ends; end edge sees a path and a far vertex
    p4 = named["P4"]
    mid = brute_force_edge_counts(p4, (1, 2))
    assert mid[3 - 1] == 0 and mid[4 - 1] == 2 and mid[12 - 1] == 1
    end = brute_force_edge_counts(p4, (0, 1))
    assert end[4 - 1] == 1 and end[5 - 1] == 1 and end[12 - 1] == 1
