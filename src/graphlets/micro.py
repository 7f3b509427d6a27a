"""Per-edge pattern counts: how many instances contain one given edge.

Counts here are strict-containment: a pattern instance is attributed to edge
(u, v) only when both endpoints are among its vertices, so the edgeless and
endpoint-missing patterns (ids 2, 6, 17) are always zero and id 1 is always
one.  Summed over all edges, each count equals the global count times the
pattern's edge multiplicity (patterns.EDGE_COUNTS).

The kernel takes the zones from ``local.classify_edge``: common T, exclusive
S_u and S_v, and far.  It needs seven adjacent zone-pair tallies, a_tt, a_ts,
a_tf, a_uu, a_vv, a_uv and a_sf.  The slots are the unrestricted tallies of
``local.edge_tallies`` with each adjacent pair moved to the pattern it
completes.

The kernel scans only the up-lists (``Graph.up_lists``) of T, S_u and S_v,
so an adjacent pair inside those zones is read once, from its lower-ranked
end.  One ``np.bincount`` of (zone of the lower end, code of the upper end)
gives a_tt, a_uu and a_vv on its diagonal, and a_ts and a_uv as a cell plus
its transpose.  The far tallies follow from the degree sums D_T = sum over T
of d(w) and D_S = the same over S_u and S_v:

    a_tf = D_T - 2t - 2 a_tt - a_ts
    a_sf = D_S - |S_u| - |S_v| - 2 (a_uu + a_vv) - a_ts - 2 a_uv

Exact counts (p_e = 1) are integer arithmetic throughout, so they are exact
at any n.  Neighbor-sampled counts (p_e < 1) keep ceil(d * p_e) random
entries of each gathered up-list of d entries and weight each kept entry by
d / ceil(d * p_e) in the same bincount.  Every tally, and every slot, is
linear in those cells, so each is unbiased.  No clamp is applied, so a
sampled count can come out negative when its true value is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, resolve_edge
from .local import _SU, _SV, _T, VertexMarker, _gather, classify_edge, edge_tallies

_ZONES = np.array([_T, _SU, _SV])  # zone codes in the order T, S_u, S_v


@dataclass
class MicroEstimate:
    """Counts of pattern instances containing one edge, by pattern id - 1.

    Ints when exact (p_e = 1), floats when neighbor-sampled.  ``zones`` is
    (common, exclusive-u, exclusive-v, far) sizes.
    """

    x: list
    u: int
    v: int
    p_e: float
    zones: tuple[int, int, int, int]

    @property
    def exact(self) -> bool:
        return self.p_e >= 1.0


class MicroKernel:
    """Reusable per-edge counting state for one graph: vertex marks and the
    graph's up-lists, both built here, once."""

    def __init__(self, g: Graph):
        self.g = g
        self._marker = VertexMarker(g.n)
        self._up = g.up_lists()

    def counts(self, edge, p_e: float = 1.0, rng=None) -> MicroEstimate:
        if not (0 < p_e <= 1):
            raise ValueError(f"p_e must be in (0, 1], got {p_e}")
        g = self.g
        u, v = resolve_edge(g, edge)
        local = classify_edge(g, u, v, self._marker)
        t, su, sv, r = len(local.T), len(local.S_u), len(local.S_v), local.far
        exact = p_e >= 1.0
        src = np.concatenate([local.T, local.S_u, local.S_v])
        nbrs, lens = _gather(*self._up, src)
        keys = np.repeat(np.repeat(_ZONES * 4, (t, su, sv)), lens)
        weights = None  # unweighted, the bincount stays integer: exact counts are ints
        if not exact:
            picked, weights = _subsample(lens, p_e, rng)
            nbrs, keys = nbrs[picked], keys[picked]
        keys += self._marker.code(nbrs)
        M = np.bincount(keys, weights=weights, minlength=16).reshape(4, 4).tolist()
        deg = g.indptr[src + 1] - g.indptr[src]
        d_t, d_s = int(deg[:t].sum()), int(deg[t:].sum())

        a_tt, a_uu, a_vv = M[_T][_T], M[_SU][_SU], M[_SV][_SV]
        a_ts = M[_T][_SU] + M[_SU][_T] + M[_T][_SV] + M[_SV][_T]
        a_uv = M[_SU][_SV] + M[_SV][_SU]
        a_tf = d_t - 2 * t - 2 * a_tt - a_ts
        a_sf = d_s - su - sv - 2 * (a_uu + a_vv) - a_ts - 2 * a_uv
        a_ss = a_uu + a_vv
        x = list(edge_tallies(t, a_tt, a_uv, g.degree(u), g.degree(v), g.n, g.m))
        a_ff = x[15] - (a_tt + a_ts + a_ss + a_uv) - (a_tf + a_sf)
        x[7] = x[7] - a_tt + a_ts
        x[8] = x[8] - a_ts + a_tf + a_ss
        x[10] = x[10] - a_ss
        x[11] = x[11] - a_uv + a_sf
        x[12], x[13] = x[13] - a_tf, x[12] - a_sf
        x[14], x[15] = a_ff, x[14] - a_ff
        if not exact:
            x[1] = x[5] = x[16] = 0.0
        return MicroEstimate(x=x, u=u, v=v, p_e=p_e, zones=(t, su, sv, r))


def _subsample(lens: np.ndarray, p_e: float, rng):
    """Positions of ceil(d * p_e) random entries of each run of d = ``lens``
    entries, and each kept entry's weight d / ceil(d * p_e)."""
    if rng is None:
        rng = np.random.default_rng(0)
    keep = np.ceil(lens * p_e).astype(np.int64)
    owner = np.repeat(np.arange(len(lens)), lens)
    # a random order within each run; keep its first keep[run] entries
    order = np.lexsort((rng.random(len(owner)), owner))
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(lens) - lens, lens)
    picked = order[rank < keep[owner]]
    owner = owner[picked]
    return picked, lens[owner] / keep[owner]


def micro_counts(g: Graph, edge, p_e: float = 1.0, seed: int = 0) -> MicroEstimate:
    """Count (or neighbor-sample) the patterns containing one edge."""
    rng = np.random.default_rng(seed) if p_e < 1.0 else None
    return MicroKernel(g).counts(edge, p_e=p_e, rng=rng)


def univariate_stats(g: Graph, pattern_id: int, p_e: float = 1.0, seed: int = 0) -> dict:
    """Five-number summary plus mean/std of one pattern's per-edge counts."""
    kernel = MicroKernel(g)
    rng = np.random.default_rng(seed) if p_e < 1.0 else None
    vals = np.array(
        [kernel.counts(e, p_e=p_e, rng=rng).x[pattern_id - 1] for e in range(g.m)],
        dtype=np.float64,
    )
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
        "values": vals,
    }
