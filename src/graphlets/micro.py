"""Per-edge pattern counts: how many instances contain one given edge.

Counts here are strict-containment: a pattern instance is attributed to edge
(u, v) only when both endpoints are among its vertices, so the edgeless and
endpoint-missing patterns (ids 2, 6, 17) are always zero and id 1 is always
one.  Summed over all edges, each count equals the global count times the
pattern's edge multiplicity (patterns.EDGE_COUNTS).

``local.ZoneKernel.tallies`` gives the unrestricted tallies c of
``local.edge_tallies`` (among them t, |S_u| + |S_v|, a_tt = c7 and a_uv =
c10), the adjacent zone pairs M among T, S_u and S_v (each read once, from
its lower-ranked end) and the zone degree sums D_T and D_S (over S_u and
S_v).  M holds a_tt, a_uu and a_vv on its diagonal and a_ts and a_uv as a
cell plus its transpose; the far tallies follow:

    a_tf = D_T - 2t - 2 a_tt - a_ts
    a_sf = D_S - |S_u| - |S_v| - 2 (a_uu + a_vv) - a_ts - 2 a_uv

The slots start from c and move each adjacent pair to the pattern it
completes, in int64 arrays over many edges: every term is below C(n, 2) <
2**61, so the counts are exact for every n a ``Graph`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, resolve_edge
from .local import _SU, _SV, _T, per_edge, zone_kernel
from .patterns import resolve_pattern


@dataclass
class MicroEstimate:
    """Counts of pattern instances containing one edge, by pattern id - 1.

    ``zones`` is (common, exclusive-u, exclusive-v, far) sizes.
    """

    x: list
    u: int
    v: int
    zones: tuple[int, int, int, int]


class MicroKernel:
    """Per-edge counts on one graph, from its ``local.zone_kernel``: mark
    words and up-lists, both built on first use, once."""

    def __init__(self, g: Graph):
        self.g = g
        self._zones = zone_kernel(g)

    def counts(self, edge) -> MicroEstimate:
        u, v = resolve_edge(self.g, edge)
        x = self._slots(*self._zones.tallies(np.array([[u, v]])))
        su = int(self._zones.deg[u]) - 1 - x[2]
        return MicroEstimate(x=x, u=u, v=v, zones=(x[2], su, x[3] - su, x[4]))

    def column(self, ids, pattern_id) -> np.ndarray:
        """Exact counts of one pattern (an id or a name) at each edge of ``ids``, as int64."""
        slot = resolve_pattern(pattern_id) - 1
        col = np.zeros(len(ids), dtype=np.int64)
        for at, x in per_edge(self.g, ids, lambda at, *cMD: (at, self._slots(*cMD)[slot]), 1):
            col[at] = x
        return col

    def _slots(self, c, M, D) -> list:
        """The 17 slots from one ``ZoneKernel.tallies`` result (c, M, D): int64
        arrays over its edges; of one edge, Python ints."""
        x = list(c)
        t, s, a_tt, a_uv = x[2], x[3], x[6], x[9]  # s = |S_u| + |S_v|
        a_ss = M[_SU][_SU] + M[_SV][_SV]
        a_ts = M[_T][_SU] + M[_SU][_T] + M[_T][_SV] + M[_SV][_T]
        a_tf = D[_T] - 2 * t - 2 * a_tt - a_ts
        a_sf = D[_SU] + D[_SV] - s - 2 * a_ss - a_ts - 2 * a_uv
        a_ff = x[15] - (a_tt + a_ts + a_ss + a_uv) - (a_tf + a_sf)
        x[7] = x[7] - a_tt + a_ts
        x[8] = x[8] - a_ts + a_tf + a_ss
        x[10] = x[10] - a_ss
        x[11] = x[11] - a_uv + a_sf
        x[12], x[13] = x[13] - a_tf, x[12] - a_sf
        x[14], x[15] = a_ff, x[14] - a_ff
        return x


def micro_counts(g: Graph, edge) -> MicroEstimate:
    """Count the patterns containing one edge."""
    return MicroKernel(g).counts(edge)


def univariate_stats(g: Graph, pattern_id: int) -> dict:
    """Five-number summary plus mean/std of one pattern's per-edge counts,
    which ``MicroKernel(g).column(np.arange(g.m), pattern_id)`` gives."""
    vals = MicroKernel(g).column(np.arange(g.m), pattern_id).astype(np.float64)
    if not len(vals):
        raise ValueError("no edges to summarize")
    q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
    return {
        "edges": int(len(vals)),
        "min": float(vals.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(vals.max()),
        "mean": float(vals.mean()),
        "std": float(vals.std()),
    }
