"""Edge-local neighborhood decomposition and unrestricted tallies.

For an edge e = (u, v) the remaining vertices split into four zones:

* ``T``   common neighbors of u and v,
* ``S_u`` neighbors of u only, ``S_v`` neighbors of v only,
* the far zone of size ``r = n - |T| - |S_u| - |S_v| - 2`` (adjacent to
  neither endpoint).

From the zone sizes, one clique scan over T, and one cycle scan over S_u,
the fourteen unrestricted per-edge tallies c3..c16 follow in closed form.
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
        m = self.marks[verts]
        return np.where(m > self.gen, m - self.gen, 0)


@dataclass
class EdgeLocal:
    u: int
    v: int
    T: np.ndarray
    S_u: np.ndarray
    S_v: np.ndarray
    far: int


def _flat_neighbors(g: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``verts`` without a Python loop."""
    if len(verts) == 0:
        return _EMPTY
    starts = g.indptr[verts]
    lens = g.indptr[verts + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return _EMPTY
    # offsets within each run: arange(total) minus each run's cumulative start
    run_heads = np.repeat(np.cumsum(lens) - lens, lens)
    idx = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - run_heads)
    return g.indices[idx]


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


def clique_count_bsearch(g: Graph, T: np.ndarray) -> int:
    """Marker-free 4-clique tally: binary-search each T-neighbor in T."""
    if len(T) < 2:
        return 0
    flat = _flat_neighbors(g, np.asarray(T))
    pos = np.searchsorted(T, flat)
    pos[pos == len(T)] = 0
    return int(np.count_nonzero(T[pos] == flat)) // 2


def cycle_count_bsearch(g: Graph, S_u: np.ndarray, S_v: np.ndarray) -> int:
    """Marker-free 4-cycle tally: binary-search S_u's neighbors in S_v."""
    if len(S_u) == 0 or len(S_v) == 0:
        return 0
    side, table = (S_u, S_v) if len(S_u) <= len(S_v) else (S_v, S_u)
    flat = _flat_neighbors(g, np.asarray(side))
    pos = np.searchsorted(table, flat)
    pos[pos == len(table)] = 0
    return int(np.count_nonzero(table[pos] == flat))


def unrestricted_counts(g: Graph, e, marker: VertexMarker | None = None) -> tuple[int, ...]:
    """The 17-slot unrestricted tally vector c(e) for one edge.

    Slots (0-based by pattern id - 1):
      c1 = 1 and c2 = 0 (bookkeeping); c3 = |T|; c4 = |S_u| + |S_v|;
      c5 = r; c7 = 4-cliques at e; c8 = C(|T|, 2); c9 = |T| (|S_u| + |S_v|);
      c10 = 4-cycles at e; c11 = C(|S_u|, 2) + C(|S_v|, 2); c12 = |S_u||S_v|;
      c13 = (|S_u| + |S_v|) r; c14 = |T| r; c15 = C(r, 2);
      c16 = edges sharing no endpoint with e.  c6 and c17 stay zero: those
      patterns are complement-filled downstream, not tallied.

    All values are plain Python ints (exact at any scale).
    """
    if marker is None:
        marker = VertexMarker(g.n)
    u, v = resolve_edge(g, e)
    local = classify_edge(g, u, v, marker)
    t, su, sv, r = len(local.T), len(local.S_u), len(local.S_v), local.far
    k4 = clique_count(g, local, marker)
    c4cyc = cycle_count(g, local, marker)
    du, dv = g.degree(u), g.degree(v)

    c = [0] * 17
    c[0] = 1
    c[2] = t
    c[3] = su + sv
    c[4] = r
    c[6] = k4
    c[7] = t * (t - 1) // 2
    c[8] = t * (su + sv)
    c[9] = c4cyc
    c[10] = su * (su - 1) // 2 + sv * (sv - 1) // 2
    c[11] = su * sv
    c[12] = (su + sv) * r
    c[13] = t * r
    c[14] = r * (r - 1) // 2
    c[15] = g.m - du - dv + 1
    return tuple(c)
