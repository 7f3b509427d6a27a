"""Edge-local neighborhood decomposition and unrestricted tallies.

For an edge e = (u, v) the remaining vertices split into four zones:

* ``T``   common neighbors of u and v,
* ``S_u`` neighbors of u only, ``S_v`` neighbors of v only,
* the far zone of size ``r = n - |T| - |S_u| - |S_v| - 2`` (adjacent to
  neither endpoint).

``scan_edge`` finds t = |T|, the 4-cliques K_e (one scan over T) and the
4-cycles C_e (one scan over the smaller exclusive zone).  ``edge_tallies``
turns those and the endpoint degrees into the 17 unrestricted tallies; it is
the one statement of those relations, for one edge or for arrays of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, resolve_edge

_EMPTY = np.empty(0, dtype=np.int32)

# zone codes added onto the per-call generation stamp
_SV, _SU, _T = 1, 2, 3


class VertexMarker:
    """Generation-stamped vertex marks: O(1) reset, no per-edge clearing.

    A mark is ``gen + code`` where ``gen`` jumps by a fixed stride per
    ``fresh()`` call, so stale stamps from earlier edges can never collide
    with live codes.
    """

    STRIDE = 8

    def __init__(self, n: int):
        self.marks = np.zeros(n, dtype=np.int64)
        self.gen = 0

    def fresh(self) -> int:
        self.gen += self.STRIDE
        return self.gen

    def code(self, verts: np.ndarray) -> np.ndarray:
        """Live code per vertex (0 when unmarked this generation)."""
        return np.maximum(self.marks[verts] - self.gen, 0)  # stale marks are <= gen


@dataclass
class EdgeLocal:
    u: int
    v: int
    T: np.ndarray
    S_u: np.ndarray
    S_v: np.ndarray
    far: int


def _gather(offsets: np.ndarray, ids: np.ndarray, verts: np.ndarray):
    """The lists of ``verts`` in the CSR (offsets, ids), concatenated without a
    Python loop, and each list's length."""
    starts = offsets[verts]
    lens = offsets[verts + 1] - starts
    heads = np.cumsum(lens) - lens  # where each list lands in the output
    total = int(heads[-1] + lens[-1]) if len(lens) else 0
    if total == 0:
        return _EMPTY, lens
    return ids[np.repeat(starts - heads, lens) + np.arange(total)], lens


def _flat_neighbors(g: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``verts`` without a Python loop."""
    return _gather(g.indptr, g.indices, verts)[0]


def classify_edge(g: Graph, u: int, v: int, marker: VertexMarker) -> EdgeLocal:
    """Split V \\ {u, v} into the T / S_u / S_v / far zones, marking them.

    On return the marker holds live stamps for T, S_u, S_v (codes 3, 2, 1);
    u and v themselves carry no live mark.
    """
    gen = marker.fresh()
    marks = marker.marks
    nu = g.neighbors(u)
    nv = g.neighbors(v)
    marks[nv] = gen + _SV
    marks[u] = gen  # u appears in nv; neutralize before any scan
    mu = marks[nu]
    T = nu[mu == gen + _SV]
    S_u = nu[(mu != gen + _SV) & (nu != v)]
    marks[T] = gen + _T
    marks[S_u] = gen + _SU
    S_v = nv[(marks[nv] == gen + _SV) & (nv != u)]
    far = g.n - len(T) - len(S_u) - len(S_v) - 2
    return EdgeLocal(u=u, v=v, T=T, S_u=S_u, S_v=S_v, far=far)


def clique_count(g: Graph, local: EdgeLocal, marker: VertexMarker) -> int:
    """Number of 4-cliques containing the edge: adjacent pairs within T."""
    if len(local.T) < 2:
        return 0
    hits = marker.marks[_flat_neighbors(g, local.T)] == marker.gen + _T
    return int(np.count_nonzero(hits)) // 2  # each pair is seen from both sides


def cycle_count(g: Graph, local: EdgeLocal, marker: VertexMarker) -> int:
    """Number of 4-cycles containing the edge: S_u -- S_v adjacencies."""
    if len(local.S_u) == 0 or len(local.S_v) == 0:
        return 0
    # scan the smaller side; each cross pair is seen exactly once
    side, other = (local.S_u, _SV) if len(local.S_u) <= len(local.S_v) else (local.S_v, _SU)
    hits = marker.marks[_flat_neighbors(g, side)] == marker.gen + other
    return int(np.count_nonzero(hits))


def scan_edge(g: Graph, u: int, v: int, marker: VertexMarker) -> tuple[int, int, int]:
    """(t, K_e, C_e) of edge (u, v): its common neighbors, 4-cliques and 4-cycles."""
    local = classify_edge(g, u, v, marker)
    return len(local.T), clique_count(g, local, marker), cycle_count(g, local, marker)


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
    if marker is None:
        marker = VertexMarker(g.n)
    u, v = resolve_edge(g, e)
    t, k4, cyc = scan_edge(g, u, v, marker)
    return edge_tallies(t, k4, cyc, g.degree(u), g.degree(v), g.n, g.m)
