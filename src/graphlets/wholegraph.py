"""Exact raw totals from one degree-ordered pass over the whole graph.

``edge_totals(g)`` returns the seventeen sums over every edge of the
unrestricted tallies c(e) of ``local.edge_tallies``, with no per-edge
loop.  Vertices are ranked by (degree, id) and each edge points from its
lower- to its higher-ranked end (Chiba and Nishizeki 1985):

* each triangle is listed once, from an edge x -> a and an out-neighbor b
  of a that is adjacent to x, and adds one to t(e) on its three edges;
* each 4-clique is counted once, from a listed triangle and an out-neighbor
  of its top vertex adjacent to the other two;
* each non-induced 4-cycle is counted once, from its highest-ranked vertex x
  and the opposite vertex y: every wedge x - a - y with a and y below x adds
  one to codeg(x, y), and the cycles number sum C(codeg, 2) (ESCAPE, Pinar,
  Seshadhri and Vishal 2017).

Every other total is the sum over edges of ``local.edge_tallies`` of t(e),
the endpoint degrees, n and m.  Work runs in chunks of at most ``BUDGET``
gathered neighbor entries or edges, and every sum is reduced exactly into a
Python int, so the totals are exact at any n a ``Graph`` holds.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .local import edge_tallies, isum

BUDGET = 1 << 17  # gathered entries per chunk: bounds the pass's working set


def _chunks(work: np.ndarray):
    """Contiguous (lo, hi) item ranges whose summed ``work`` is within BUDGET.

    An item heavier than the budget gets a range of its own.
    """
    ends = np.cumsum(work)
    lo = 0
    while lo < len(work):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + BUDGET, side="right")))
        yield lo, hi
        lo = hi


def _expand(starts: np.ndarray, lens: np.ndarray):
    """Positions starts[i] + j for every j < lens[i], and each one's owner i."""
    owner = np.repeat(np.arange(len(lens)), lens)
    heads = np.cumsum(lens) - lens
    return owner, np.arange(len(owner)) + np.repeat(starts - heads, lens)


def edge_totals(g: Graph) -> list[int]:
    """Sums over all edges of the 17 unrestricted tallies, as Python ints.

    Equal to ``accumulate(g, range(m), inclusion=1).counts``.  Vertex arrays
    are sized by the CSR, never by ``g.n``.
    """
    N, m, n = len(g.indptr) - 1, g.m, int(g.n)
    deg = np.diff(g.indptr).astype(np.int64)
    by_rank = np.argsort(deg, kind="stable")
    rank = np.empty(N, dtype=np.int64)
    rank[by_rank] = np.arange(N)
    deg = deg[by_rank]
    # relabel by rank: edge p runs lo[p] -> hi[p] and the keys are sorted, so
    # the edges are the out-lists, and lookups for one lo land near each other
    ends = rank[g.edges.astype(np.int64)]
    keys = np.sort(ends.min(axis=1) * N + ends.max(axis=1))
    lo, hi = keys // N, keys % N
    outdeg = np.bincount(lo, minlength=N)
    out_start = np.cumsum(outdeg) - outdeg

    def find(a, b):
        """Position of edge a -> b in ``keys``, and whether it is there."""
        k = a * N + b
        pos = np.minimum(np.searchsorted(keys, k), m - 1)
        return pos, keys[pos] == k

    t = np.zeros(m, dtype=np.int64)
    k4 = 0
    for c0, c1 in _chunks(outdeg[hi]):
        owner, ab = _expand(out_start[hi[c0:c1]], outdeg[hi[c0:c1]])
        xa = owner + c0
        xb, tri = find(lo[xa], hi[ab])
        xa, ab, xb = xa[tri], ab[tri], xb[tri]
        t += np.bincount(np.concatenate([xa, ab, xb]), minlength=m)
        x, a, b = lo[xa], hi[xa], hi[ab]
        for d0, d1 in _chunks(outdeg[b]):  # triangle x < a < b; c above b
            owner, bc = _expand(out_start[b[d0:d1]], outdeg[b[d0:d1]])
            owner, c = owner + d0, hi[bc]
            hit = find(x[owner], c)[1]
            k4 += int(np.count_nonzero(find(a[owner[hit]], c[hit])[1]))

    # wedges x - a - y with a, y below the top x, streamed in order of x; the
    # neighbors of a below x are a's in-list plus its out-list up to x.  The
    # keys of a chunk's last x may go on in the next chunk: their runs carry
    nbrs = np.sort(np.concatenate([keys, hi * N + lo])) % N  # rank-sorted lists
    nbr_start = np.cumsum(deg) - deg
    by_top = np.argsort(hi, kind="stable")
    a, top = lo[by_top], hi[by_top]
    below = deg[a] - outdeg[a] + (by_top - out_start[a])
    carry_k = carry_c = np.empty(0, dtype=np.int64)
    c4 = 0
    for c0, c1 in _chunks(below):
        owner, ay = _expand(nbr_start[a[c0:c1]], below[c0:c1])
        k = np.concatenate([carry_k, top[owner + c0] * N + nbrs[ay]])
        codeg = np.concatenate([carry_c, np.ones(len(ay), dtype=np.int64)])
        if len(k) == 0:
            continue
        order = np.argsort(k)
        k, codeg = k[order], codeg[order]
        heads = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        k, codeg = k[heads], np.add.reduceat(codeg, heads)
        held = k // N == top[c1 - 1] if c1 < m else np.zeros(len(k), dtype=bool)
        carry_k, carry_c, codeg = k[held], codeg[held], codeg[~held]
        c4 += isum(codeg * (codeg - 1) // 2)

    # every other total sums edge_tallies over the edges; K and Q fill in the
    # two tallies that t(e) and the degrees do not determine
    c = [0] * 17
    for i in range(0, m, BUDGET):
        cols = edge_tallies(t[i:i + BUDGET], 0, 0, deg[lo[i:i + BUDGET]],
                            deg[hi[i:i + BUDGET]], n, m)
        c = [acc + isum(x) for acc, x in zip(c, cols)]
    c[6] = 6 * k4
    c[9] = 4 * (c4 - (c[7] - 6 * k4) - 3 * k4)  # induced: minus diamonds and K4s
    return c
