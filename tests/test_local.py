import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import gen_er
from graphlets import VertexMarker, classify_edge, from_edges, unrestricted_counts
from graphlets.local import clique_count, cycle_count, edge_tallies, isum
from graphlets.oracle import brute_force_edge_counts


def zones_by_sets(g, u, v):
    nu = set(g.neighbors(u).tolist())
    nv = set(g.neighbors(v).tolist())
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


@pytest.mark.parametrize("seed", range(6))
def test_clique_cycle_marker_vs_bsearch(seed):
    g = gen_er(30, 0.2, seed + 50)
    marker = VertexMarker(g.n)
    for e in range(g.m):
        u, v = map(int, g.edges[e])
        loc = classify_edge(g, u, v, marker)
        ref = brute_force_edge_counts(g, e)
        assert clique_count(g, loc, marker) == ref[6]  # 4-cliques at e
        assert cycle_count(g, loc, marker) == ref[9]  # induced 4-cycles at e


def test_clique_cycle_by_hand():
    k4 = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    marker = VertexMarker(k4.n)
    loc = classify_edge(k4, 0, 1, marker)
    assert clique_count(k4, loc, marker) == 1  # {2,3} adjacent pair in T

    c4 = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
    marker = VertexMarker(c4.n)
    loc = classify_edge(c4, 0, 1, marker)
    assert cycle_count(c4, loc, marker) == 1  # 3 in S_u(0) adjacent to 2 in S_v(1)


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
        k4 = sum(g.has_edge(a, b) for a in T for b in T if a < b)
        assert c[6] == k4
        cyc = sum(g.has_edge(a, b) for a in su_set for b in sv_set)
        assert c[9] == cyc
        assert c[7] == t * (t - 1) // 2
        assert c[8] == t * (su + sv)
        assert c[10] == su * (su - 1) // 2 + sv * (sv - 1) // 2
        assert c[11] == su * sv
        assert c[12] == (su + sv) * r
        assert c[13] == t * r
        assert c[14] == r * (r - 1) // 2
        assert c[15] == g.m - g.degree(u) - g.degree(v) + 1


def test_marker_generation_isolation():
    # interleaved calls on different edges never bleed marks across edges
    g = gen_er(15, 0.4, 2)
    marker = VertexMarker(g.n)
    baseline = [unrestricted_counts(g, e) for e in range(g.m)]
    twice = [unrestricted_counts(g, e, marker) for e in range(g.m)] and [
        unrestricted_counts(g, e, marker) for e in range(g.m)
    ]
    assert twice == baseline


def test_marker_stride_overflow_guard():
    marker = VertexMarker(4)
    for _ in range(1000):
        marker.fresh()
    assert marker.gen == 1000 * 8


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
