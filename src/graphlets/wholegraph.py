"""Exact raw totals from one degree-ordered pass over the whole graph.

``edge_totals(g)`` returns the seventeen sums over every edge of the
unrestricted tallies c(e) of ``local.edge_tallies``, with no per-edge
loop.  Vertices are ranked by (degree, id) and each edge points from its
lower- to its higher-ranked end (Chiba and Nishizeki 1985):

* each triangle x < a < b is listed once, from the edge x -> a, an
  out-neighbor b of x after a, and a lookup of a -> b, and adds one to t(e)
  on its three edges;
* each 4-clique x < a < b < c is counted once, from its listed triangle
  x < a < b and an out-neighbor c of x after b adjacent to a and b;
* each non-induced 4-cycle is counted once, from its highest-ranked vertex x
  and the opposite vertex y: every wedge x - a - y with a and y below x adds
  one to codeg(x, y), and the cycles number sum C(codeg, 2) (ESCAPE, Pinar,
  Seshadhri and Vishal 2017).

Every other total is the sum over edges of ``local.edge_tallies`` of t(e),
the endpoint degrees, n and m.  The listing and the wedges split into ids,
each gathering at most ``local.BUDGET`` entries at a time, which
``estimate._parallel_map`` shares out over the workers (Ahmed et al. 2015
split the same per-edge pass over edges):

* a triangle id is one range of edges x -> a, taken in order of a so that
  the lookups of a -> b land near each other, with its 4-clique probe;
* a wedge id is a run of consecutive top vertices x whose wedges fit in
  ``BUDGET``, so each codeg(x, y) is whole in one id and comes from the run
  lengths of one sort of the wedge keys.  A top with more wedges than
  ``BUDGET`` is an id of its own: it sorts its wedges a chunk at a time and
  merges each chunk's (key, count) runs into the next.

Each share returns its partial t(e) and its 4-clique and 4-cycle counts; their
sums are the same for any worker count.  Every sum is reduced exactly into a
Python int, so the totals are exact at any n a ``Graph`` holds.
"""

from __future__ import annotations

import numpy as np

from . import local
from .graph import Graph
from .local import _chunks, _positions, edge_tallies, isum


def _heads(k: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``k`` starts."""
    return np.flatnonzero(np.concatenate([[len(k) > 0], k[1:] != k[:-1]]))


def edge_totals(g: Graph, workers: int = 1) -> list[int]:
    """Sums over all edges of the 17 unrestricted tallies, as Python ints.

    Equal to ``accumulate(g, range(m), inclusion=1).counts`` for any
    ``workers``.  Vertex arrays are sized by the CSR, never by ``g.n``.
    """
    from .estimate import _parallel_map  # deferred: estimate imports this module
    N, m, n = len(g.indptr) - 1, g.m, int(g.n)
    deg = np.diff(g.indptr).astype(np.int64)
    by_rank = np.argsort(deg * N + np.arange(N))  # (degree, id): the keys are distinct
    rank = np.empty(N, dtype=np.int64)
    rank[by_rank] = np.arange(N)
    deg = deg[by_rank]
    # relabel by rank: edge p runs lo[p] -> hi[p] and the keys are sorted, so
    # the edges are the out-lists
    u, v = rank[g.edges].T
    keys = np.sort(np.minimum(u, v) * N + np.maximum(u, v))
    del u, v  # 16 bytes an edge, not to be held through the pass
    lo, hi = keys // N, keys % N
    outdeg = np.bincount(lo, minlength=N)
    out_start = np.cumsum(outdeg) - outdeg
    later = out_start[lo] + outdeg[lo] - np.arange(m) - 1  # x's out-neighbors after a, at x -> a

    # wedges x - a - y with a, y below the top x, in order of x; the neighbors
    # of a below x are a's in-list plus its out-list up to x
    by_top = np.argsort(hi * N + lo)
    a, top = lo[by_top], hi[by_top]
    nbrs = np.concatenate([keys, top * N + a])
    nbrs.sort(kind="stable")  # merges the two sorted runs
    nbrs %= N  # rank-sorted neighbor lists
    nbr_start = np.cumsum(deg) - deg
    below = deg[a] - outdeg[a] + (by_top - out_start[a])
    top_end = np.cumsum(deg - outdeg)  # the edges into top x end here in by_top order
    wedges = np.diff(np.concatenate([[0], np.cumsum(below)])[top_end], prepend=0)

    def find(a, b):
        """Position of edge a -> b in ``keys``, and whether it is there."""
        k = a * N + b
        pos = np.minimum(np.searchsorted(keys, k), m - 1)
        return pos, keys[pos] == k

    def triangles(c0, c1, t):
        """List the triangles x < a < b from the edges x -> a at by_top[c0:c1],
        adding one to t on their edges; return the 4-cliques x < a < b < c."""
        e = by_top[c0:c1]  # in order of a, the lookups of a -> b land near each other
        xa = np.repeat(e, later[e])
        xb = _positions(e + 1, later[e])
        ab, tri = find(hi[xa], hi[xb])
        xa, ab, xb = xa[tri], ab[tri], xb[tri]
        t += np.bincount(np.concatenate([xa, ab, xb]), minlength=m)
        k4 = 0
        for d0, d1 in _chunks(later[xb]):  # c: an out-neighbor of x after b
            owner = np.repeat(np.arange(d0, d1), later[xb[d0:d1]])
            c = hi[_positions(xb[d0:d1] + 1, later[xb[d0:d1]])]
            hit = find(hi[xa[owner]], c)[1]
            k4 += int(np.count_nonzero(find(hi[ab[owner[hit]]], c[hit])[1]))
        return k4

    def wedge_keys(e0, e1):
        """Sorted keys x * N + y of the wedges through edges e0..e1-1 (by top)."""
        span = below[e0:e1]
        k = np.repeat(top[e0:e1] * N, span)
        k += nbrs[_positions(nbr_start[a[e0:e1]], span)]
        k.sort()
        return k

    def cycles(x0, x1):
        """Sum of C(codeg(x, y), 2) over the tops x0..x1-1."""
        e0, e1 = int(top_end[x0 - 1]) if x0 else 0, int(top_end[x1 - 1])
        k = codeg = np.empty(0, dtype=np.int64)
        for f0, f1 in _chunks(below[e0:e1]):  # one chunk unless x0 is a heavy top
            new = wedge_keys(e0 + f0, e0 + f1)
            heads = _heads(new)
            codeg = np.concatenate([codeg, np.diff(np.append(heads, len(new)))])
            if e0 + f1 < e1 or len(k):  # a heavy top: its runs so far merge with this chunk's
                k = np.concatenate([k, new[heads]])
                order = np.argsort(k)
                k, codeg = k[order], codeg[order]
                heads = _heads(k)
                k, codeg = k[heads], np.add.reduceat(codeg, heads)
        return isum(codeg * (codeg - 1) // 2)

    jobs = [(triangles, c0, c1) for c0, c1 in _chunks(later[by_top])]
    jobs += [(cycles, x0, x1) for x0, x1 in _chunks(wedges) if wedges[x0:x1].any()]

    def share(ids):
        t = np.zeros(m, dtype=np.int64)
        k4 = c4 = 0
        for i in ids.tolist():
            fn, i0, i1 = jobs[i]
            if fn is triangles:
                k4 += triangles(i0, i1, t)
            else:
                c4 += cycles(i0, i1)
        return t, k4, c4

    parts = _parallel_map(share, np.arange(len(jobs)), workers)
    t = parts[0][0]
    for part in parts[1:]:
        t += part[0]
    k4, c4 = sum(p[1] for p in parts), sum(p[2] for p in parts)

    # every other total sums edge_tallies over the edges; K and Q fill in the
    # two tallies that t(e) and the degrees do not determine
    c = [0] * 17
    for i in range(0, m, local.BUDGET):
        e = slice(i, i + local.BUDGET)
        cols = edge_tallies(t[e], 0, 0, deg[lo[e]], deg[hi[e]], n, m)
        c = [acc + isum(x) for acc, x in zip(c, cols)]
    c[6] = 6 * k4
    c[9] = 4 * (c4 - (c[7] - 6 * k4) - 3 * k4)  # induced: minus diamonds and K4s
    return c
