"""Edge-local neighborhood decomposition and unrestricted tallies.

For an edge e = (u, v) the other vertices fall in four zones: T (common
neighbors), S_u and S_v (neighbors of u only, of v only) and the r far ones.
``ZoneKernel`` marks, for a batch of up to 31 edges, each vertex's int64 word
with two bits per edge, "in N(u)" and "in N(v)": their code is the vertex's
zone, 3 for T, 2 for S_u, 1 for S_v, 0 for far and the endpoints.  Each zone
member's up-list (``Graph.up_lists``) is read once, and one bincount of (edge,
zone of the source, code of the target) gives every edge's 4x4 matrix M of
adjacent zone pairs, each pair seen once, from its lower-ranked end: the
4-cliques are M[T][T] and the 4-cycles M[S_u][S_v] + M[S_v][S_u].
``edge_tallies`` turns those and the endpoint degrees into the 17 unrestricted
tallies, for one edge or for arrays of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, resolve_edge

# zone codes: a vertex's two mark bits for one edge (u, v), "in N(u)" the high one
_SV, _SU, _T = 1, 2, 3
EDGES = 31  # edges per batch: two mark bits each in one int64 word
BUDGET = 1 << 17  # gathered neighbor entries per batch or chunk: bounds its working set
CHUNK = 4096  # edges per vectorized reduction: bounds its per-edge arrays


class VertexMarker:
    """A generation counter kept for callers that pass a marker; nothing reads it."""

    STRIDE = 8

    def __init__(self, n: int):
        self.n, self.gen = n, 0

    def fresh(self) -> int:
        self.gen += self.STRIDE
        return self.gen


@dataclass
class EdgeLocal:
    u: int
    v: int
    T: np.ndarray
    S_u: np.ndarray
    S_v: np.ndarray
    far: int


def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions starts[i] + j for every j < lens[i], concatenated in order of i."""
    heads = np.cumsum(lens) - lens  # where each run lands in the output
    out = np.repeat(starts - heads, lens)
    out += np.arange(len(out))
    return out


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


def _gather(offsets: np.ndarray, ids: np.ndarray, verts: np.ndarray):
    """The lists of ``verts`` in the CSR (offsets, ids), concatenated without a
    Python loop, and each list's length."""
    starts = offsets[verts]
    lens = offsets[verts + 1] - starts
    return ids[_positions(starts, lens)], lens


def classify_edge(g: Graph, u: int, v: int, marker: VertexMarker | None = None) -> EdgeLocal:
    """Split V \\ {u, v} into the T / S_u / S_v / far zones; ``marker`` goes unused."""
    kernel = zone_kernel(g)
    nbrs, src, cell = kernel._mark(np.array([[u, v]]))
    kernel.words[nbrs] = 0
    T, S_u, S_v = (src[cell == z] for z in (_T, _SU, _SV))
    return EdgeLocal(u=u, v=v, T=T, S_u=S_u, S_v=S_v, far=g.n - len(src) - 2)


class ZoneKernel:
    """Mark words and up-lists of one graph.  The n words are zero between
    batches, so their untouched pages cost no RSS; ``reach[x]``, the sum over
    N(x) of 1 + |up-list|, bounds what a batch gathers for an edge at x."""

    def __init__(self, g: Graph):
        self.g, self.up, self.deg = g, g.up_lists(), g.degrees
        self.words = np.zeros(g.n, dtype=np.int64)
        run = np.concatenate([[0], np.cumsum(1 + np.diff(self.up[0])[g.indices])])
        self.reach = run[g.indptr[1:]] - run[g.indptr[:-1]]

    def tallies(self, ends: np.ndarray):
        """(t, M, D) over the edges (u, v) in ``ends``: common neighbors, adjacent
        zone pairs M[zone of the lower-ranked end][zone of the other] and zone degree
        sums D[zone], each an array over the edges."""
        parts = [self._batch(ends[b:min(b + EDGES, hi)])
                 for lo, hi in _chunks(self.reach[ends].sum(axis=1))
                 for b in range(lo, hi, EDGES)]
        if not parts:  # no edges: one empty batch shapes the empty arrays
            parts = [self._batch(ends)]
        return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))

    def _mark(self, ends):
        """Mark a batch; (entries to clear, its sources, 4 * edge + zone of each)."""
        g, B = self.g, len(ends)
        ends = ends.T.ravel()  # u_0 .. u_B-1, v_0 .. v_B-1
        shift = np.arange(2 * B) % B * 2
        nbrs, lens = _gather(g.indptr, g.indices, ends)
        at = np.repeat(shift, lens)
        # no vertex is twice in one list, so the bits added are distinct: adding sets them
        np.add.at(self.words, nbrs, np.repeat(np.repeat([_SU, _SV], B) << shift, lens))
        np.bitwise_and.at(self.words, ends, ~(_T << shift))  # endpoints are in no zone
        code = (self.words[nbrs] >> at) & 3
        split = int(lens[:B].sum())  # sources: N(u) less v, and N(v) in S_v alone
        keep = np.concatenate([code[:split] != 0, code[split:] == _SV])
        return nbrs, nbrs[keep], (at[keep] << 1) + code[keep]

    def _batch(self, ends):
        B = len(ends)
        nbrs, src, cell = self._mark(ends)
        t = np.bincount(cell, minlength=4 * B)[_T::4]
        # each sum is at most 2m < 2**53, so the float bincount is exact
        D = np.bincount(cell, self.deg[src], 4 * B).astype(np.int64)
        up, lens = _gather(*self.up, src)
        key = np.repeat(cell << 2, lens)  # 16 * edge + 4 * zone, plus the target's code
        key += (self.words[up] >> ((key >> 4) << 1)) & 3
        self.words[nbrs] = 0
        M = np.bincount(key, minlength=16 * B).reshape(B, 4, 4)
        return t, M.transpose(1, 2, 0), D.reshape(B, 4).T


def zone_kernel(g: Graph) -> ZoneKernel:
    """The graph's one ``ZoneKernel``, built on first use."""
    if g._zones is None:
        g._zones = ZoneKernel(g)
    return g._zones


def edge_tallies(t, k4, cyc, du, dv, n, m) -> tuple:
    """The 17-slot unrestricted tally vector c(e), in plain arithmetic.

    ``t``, ``du`` and ``dv`` are the common-neighbor count and the endpoint
    degrees, so |S_u| = du - 1 - t, |S_v| = dv - 1 - t and r = n - du - dv + t;
    ``k4`` and ``cyc`` are the 4-cliques and 4-cycles at e.  Slots (0-based by
    pattern id - 1):
      c1 = 1 and c2 = 0 (bookkeeping); c3 = t; c4 = |S_u| + |S_v|; c5 = r;
      c7 = k4; c8 = C(t, 2); c9 = t (|S_u| + |S_v|); c10 = cyc;
      c11 = C(|S_u|, 2) + C(|S_v|, 2); c12 = |S_u||S_v|; c13 = (|S_u| + |S_v|) r;
      c14 = t r; c15 = C(r, 2); c16 = edges sharing no endpoint with e.
      c6 and c17 stay zero: those patterns are complement-filled downstream.

    One body serves Python ints (one edge, exact at any scale) and int64
    arrays (many edges, exact for n < 2**31, the bound of ``Graph``).
    """
    zero = t * 0  # 0, or an array of zeros shaped like t
    su, sv = du - 1 - t, dv - 1 - t
    s, r = su + sv, n - du - dv + t
    return (zero + 1, zero, t, s, r, zero, k4, t * (t - 1) // 2, t * s, cyc,
            su * (su - 1) // 2 + sv * (sv - 1) // 2, su * sv, s * r, t * r,
            r * (r - 1) // 2, m - du - dv + 1, zero)


def isum(x) -> int:
    """Exact sum of an int64 array (or one int): its 32-bit halves are summed apart."""
    return (int(np.sum(x >> 32)) << 32) + int(np.sum(x & 0xFFFFFFFF))


def unrestricted_counts(g: Graph, e, marker: VertexMarker | None = None) -> tuple[int, ...]:
    """The 17-slot unrestricted tally vector c(e) of one edge (``edge_tallies``).

    All values are plain Python ints (exact at any scale).
    """
    u, v = resolve_edge(g, e)  # ``marker`` goes unused: the zone kernel keeps its own marks
    t, M, _ = (a[..., 0].tolist() for a in zone_kernel(g).tallies(np.array([[u, v]])))
    return edge_tallies(t, M[_T][_T], M[_SU][_SV] + M[_SV][_SU], g.degree(u), g.degree(v),
                        g.n, g.m)
