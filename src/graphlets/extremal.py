"""Extremal per-edge search: the largest per-edge count of one pattern.

The per-edge counts on the scanned edges are exact (no inclusion scaling),
so the reported maximum is a lower bound on the true maximum and never an
overestimate.  Scanning everything gives the exact answer; scanning a
weighted edge sample (core-number weighting concentrates draws where dense
patterns live) trades coverage for speed.  Ties go to the smallest edge id
regardless of scan order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import SampleDesign, sample_edges
from .graph import Graph
from .local import per_edge
from .micro import MicroKernel
from .patterns import resolve_pattern


@dataclass
class ExtremalResult:
    pattern_id: int
    value: int
    edge_id: int
    endpoints: tuple[int, int]
    scanned: int
    exact: bool  # True when every edge was scanned


def max_per_edge(
    g: Graph,
    pattern,
    design: SampleDesign | None = None,
    workers: int = 1,
) -> ExtremalResult:
    """Maximum per-edge count of ``pattern`` over scanned (or all) edges."""
    pid = resolve_pattern(pattern)
    ids = np.arange(g.m, dtype=np.int64) if design is None else sample_edges(g, design)
    if len(ids) == 0:
        raise ValueError("edge sample is empty; nothing to scan")

    kernel = MicroKernel(g)

    def best(at, c, M, D):  # (largest count, -edge id): ties go to the smaller id
        col = np.atleast_1d(kernel._slots(c, M, D)[pid - 1])  # an int for one edge
        return int(col.max()), -int(ids[at][col == col.max()].min())

    value, neg_id = max(per_edge(g, ids, best, workers))
    u, v = g.edges[-neg_id]
    return ExtremalResult(
        pattern_id=pid,
        value=value,
        edge_id=-neg_id,
        endpoints=(int(u), int(v)),
        scanned=int(len(ids)),
        exact=len(ids) == g.m,
    )
