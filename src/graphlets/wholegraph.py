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

Every other total is a polynomial of degree at most 2 in t(e) and the
endpoint degrees, summed over the edges: ``local.tally_sums`` states it from
six exact edge sums.  The listing and the wedges split into ids,
each gathering at most ``local.BUDGET`` entries at a time, which
``local._parallel_map`` shares out over the workers (Ahmed et al. 2015
split the same per-edge pass over edges):

* a triangle id is one range of edges x -> a, taken in order of a so that
  the lookups of a -> b land near each other, with its 4-clique probe; it
  adds one to its share's t(e) in place on each edge of each triangle;
* a wedge id is a run of consecutive top vertices x whose wedges fit in
  ``BUDGET``, so each codeg(x, y) is whole in one id and comes from the run
  lengths of one sort of the wedge keys.  A top with more wedges than
  ``BUDGET`` is an id of its own: it sorts its wedges a chunk at a time and
  adds each chunk's run lengths into its share's codeg(x, y) by y.

Share w adds its t(e) into row w of one zero-filled shared buffer mapped
before the map, and sends back only its 4-clique and 4-cycle counts; the
caller adds up the rows of the shares that ran.  Each share also holds one
heavy top's codeg(x, y) by y, one per vertex of the CSR.  The closing sums
are over int64 products below 2**63 for n < 2**31, each reduced exactly into
a Python int, so the totals are exact at any n a ``Graph`` holds and the
same for any worker count.
"""

from __future__ import annotations

import mmap

import numpy as np

from .graph import Graph, _positions
from .local import _chunks, _cpus, _parallel_map, isum, tally_sums


def _runs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values in the sorted ``k`` starts, and its length."""
    heads = np.flatnonzero(np.concatenate([[len(k) > 0], k[1:] != k[:-1]]))
    return heads, np.diff(np.append(heads, len(k)))


def edge_totals(g: Graph, workers: int = 1) -> list[int]:
    """Sums over all edges of the 17 unrestricted tallies, as Python ints.

    Equal to ``accumulate(g, range(m), inclusion=1).counts`` for any
    ``workers``.  Vertex arrays are sized by the CSR, never by ``g.n``.
    """
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
        for edge in (xa, ab, xb):  # in place: no m-length array per id
            np.add.at(t, edge, 1)
        k4 = 0
        for d0, d1 in _chunks(later[xb]):  # c: an out-neighbor of x after b
            owner = np.repeat(np.arange(d0, d1), later[xb[d0:d1]])
            c = hi[_positions(xb[d0:d1] + 1, later[xb[d0:d1]])]
            hit = find(hi[xa[owner]], c)[1]
            k4 += int(np.count_nonzero(find(hi[ab[owner[hit]]], c[hit])[1]))
        return k4

    def wedge_ys(e0, e1):
        """The y of each wedge x - a - y through the edges e0..e1-1 (by top)."""
        return nbrs[_positions(nbr_start[a[e0:e1]], below[e0:e1])]

    def cycles(x0, x1, by_y):
        """Sum of C(codeg(x, y), 2) over the tops x0..x1-1."""
        e0, e1 = int(top_end[x0 - 1]) if x0 else 0, int(top_end[x1 - 1])
        parts = list(_chunks(below[e0:e1]))
        if len(parts) == 1:  # each codeg(x, y) is one run of equal keys x * N + y
            k = np.repeat(top[e0:e1] * N, below[e0:e1])
            k += wedge_ys(e0, e1)
            k.sort()
            codeg = _runs(k)[1]
        else:  # a heavy top x0: each chunk adds its runs of equal y into by_y[y]
            fresh = []  # the ys first met in each chunk
            for f0, f1 in parts:
                y = wedge_ys(e0 + f0, e0 + f1)
                y.sort()
                heads, codeg = _runs(y)
                y = y[heads]
                fresh.append(y[by_y[y] == 0])
                by_y[y] += codeg
            y = np.concatenate(fresh)
            codeg, by_y[y] = by_y[y], 0  # zero again for the next heavy top
        return isum(codeg * (codeg - 1) // 2)

    jobs = [(triangles, c0, c1) for c0, c1 in _chunks(later[by_top])]
    jobs += [(cycles, x0, x1) for x0, x1 in _chunks(wedges) if wedges[x0:x1].any()]

    # share w's first id is w, so row w is its t(e); one row per share the map can run
    rows = max(1, min(workers, _cpus(), len(jobs)))
    t_rows = np.frombuffer(mmap.mmap(-1, 8 * rows * m) if m else b"",
                           dtype=np.int64).reshape(rows, m)

    def share(ids):
        by_y = np.zeros(N, dtype=np.int64)
        k4 = c4 = 0
        for i in ids.tolist():
            fn, i0, i1 = jobs[i]
            if fn is triangles:
                k4 += triangles(i0, i1, t_rows[ids[0]])
            else:
                c4 += cycles(i0, i1, by_y)
        return k4, c4

    parts = _parallel_map(share, np.arange(len(jobs)), workers)
    t = t_rows[0]
    for row in t_rows[1:len(parts)]:  # the rows of the shares that ran
        t += row
    k4, c4 = map(sum, zip(*parts))
    del keys, later, by_top, a, top, nbrs, below, jobs  # the sums reuse their memory

    # every tally but K and Q is a polynomial in t(e) and the endpoint degrees
    du, dv = deg[lo], deg[hi]
    d = du + dv
    c = tally_sums(n, m, *(isum(x) for x in (t, t * t, t * d, d, du * dv, du * du + dv * dv)))
    c[6] = 6 * k4
    c[9] = 4 * (c4 - (c[7] - 6 * k4) - 3 * k4)  # induced: minus diamonds and K4s
    return c
