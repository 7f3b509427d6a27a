"""Per-edge pattern counts: how many instances contain one given edge.

Counts here are strict-containment: a pattern instance is attributed to edge
(u, v) only when both endpoints are among its vertices, so the edgeless and
endpoint-missing patterns (ids 2, 6, 17) are always zero and id 1 is always
one.  Summed over all edges, each count equals the global count times the
pattern's edge multiplicity (patterns.EDGE_COUNTS).

The kernel takes the zones from ``local.classify_edge`` (common T, exclusive
S_u and S_v, far), stamps u and v with one more endpoint code, gathers the
neighbor lists of T, S_u and S_v into one flat array, and tallies each
(source zone, target code) pair with one ``np.bincount``.  The adjacent
zone-pair tallies a_tt, a_ts, a_tf, a_uu, a_vv, a_uv and a_sf are read off
that 4 x 5 matrix: a pair inside one zone is seen from both sides and
halved, a pair across zones is read from one fixed side.  At p_e = 1 every
step is integer arithmetic, so the counts are exact at any n.

Neighbor-sampled counts (p_e < 1) keep ceil(d * p_e) random entries of each
gathered vertex's d neighbors and weight each kept entry by d / s, so every
tally, and every slot (linear in the tallies), is unbiased.  No clamp is
applied, so a sampled count can come out negative when its true value is
small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, resolve_edge
from .local import _SU, _SV, _T, VertexMarker, _flat_neighbors, classify_edge

# code stamped on u and v after classify_edge, so that they do not read as
# far; it must stay below VertexMarker.STRIDE
_END = 4
_CODES = _END + 1  # far (0), the three zone codes, _END


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
    """Reusable per-edge counting state for one graph."""

    def __init__(self, g: Graph):
        self.g = g
        self._marker = VertexMarker(g.n)

    def counts(self, edge, p_e: float = 1.0, rng=None) -> MicroEstimate:
        if not (0 < p_e <= 1):
            raise ValueError(f"p_e must be in (0, 1], got {p_e}")
        g = self.g
        u, v = resolve_edge(g, edge)
        marker = self._marker
        local = classify_edge(g, u, v, marker)
        marker.marks[[u, v]] = marker.gen + _END
        t, su, sv, r = len(local.T), len(local.S_u), len(local.S_v), local.far
        exact = p_e >= 1.0

        src = np.concatenate([local.T, local.S_u, local.S_v])
        deg = g.indptr[src + 1] - g.indptr[src]
        zone = np.repeat(np.repeat([_T, _SU, _SV], [t, su, sv]), deg)
        nbrs = _flat_neighbors(g, src)
        weights = None
        if not exact:
            if rng is None:
                rng = np.random.default_rng(0)
            keep = np.ceil(deg * p_e).astype(np.int64)
            owner = np.repeat(np.arange(len(src)), deg)
            # a random order within each source's run; keep its first s entries
            order = np.lexsort((rng.random(len(nbrs)), owner))
            rank = np.arange(len(nbrs)) - np.repeat(np.cumsum(deg) - deg, deg)
            picked = order[rank < keep[owner]]
            nbrs, zone = nbrs[picked], zone[picked]
            weights = (deg / keep)[owner[picked]]
        keys = zone * _CODES + marker.code(nbrs)
        M = np.bincount(keys, weights=weights, minlength=4 * _CODES)
        M = M.reshape(4, _CODES).tolist()

        a_tt, a_uu, a_vv = (
            M[z][z] // 2 if exact else M[z][z] / 2 for z in (_T, _SU, _SV)
        )
        a_ts = M[_T][_SU] + M[_T][_SV]
        a_tf = M[_T][0]
        a_uv = M[_SU][_SV]
        a_sf = M[_SU][0] + M[_SV][0]

        a_ss = a_uu + a_vv
        e_in = a_tt + a_ts + a_ss + a_uv
        e_cross = a_tf + a_sf
        a_ff = g.m - (g.degree(u) + g.degree(v) - 1) - e_in - e_cross

        s = su + sv
        x = [0 if exact else 0.0] * 17
        x[0] = 1
        x[2] = t
        x[3] = s
        x[4] = r
        x[6] = a_tt
        x[7] = t * (t - 1) // 2 - a_tt + a_ts
        x[8] = (t * s - a_ts) + a_tf + a_ss
        x[9] = a_uv
        x[10] = su * (su - 1) // 2 + sv * (sv - 1) // 2 - a_ss
        x[11] = (su * sv - a_uv) + a_sf
        x[12] = t * r - a_tf
        x[13] = s * r - a_sf
        x[14] = a_ff
        x[15] = r * (r - 1) // 2 - a_ff
        return MicroEstimate(x=x, u=u, v=v, p_e=p_e, zones=(t, su, sv, r))


def micro_counts(g: Graph, edge, p_e: float = 1.0, seed: int = 0) -> MicroEstimate:
    """Count (or neighbor-sample) the patterns containing one edge."""
    rng = np.random.default_rng(seed) if p_e < 1.0 else None
    return MicroKernel(g).counts(edge, p_e=p_e, rng=rng)


def univariate_stats(
    g: Graph, pattern_id: int, p_e: float = 1.0, seed: int = 0, edges=None
) -> dict:
    """Five-number summary plus mean/std of one pattern's per-edge counts."""
    kernel = MicroKernel(g)
    rng = np.random.default_rng(seed) if p_e < 1.0 else None
    ids = np.arange(g.m) if edges is None else np.asarray(edges, dtype=np.int64)
    vals = np.array(
        [kernel.counts(int(e), p_e=p_e, rng=rng).x[pattern_id - 1] for e in ids],
        dtype=np.float64,
    )
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
