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
from .local import _parallel_map
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


def _best_over(kernel: MicroKernel, ids, pid: int) -> tuple[int, int]:
    """(largest count, -edge id) over ``ids``: ties go to the smaller id."""
    col = kernel.column(ids, pid)
    return int(col.max()), -int(ids[col == col.max()].min())


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

    kernel = MicroKernel(g)  # built here, so forked workers share its up-lists
    parts = _parallel_map(lambda part: _best_over(kernel, part, pid), ids, workers)
    best_val, neg_eid = max(parts)
    best_eid = -neg_eid

    u, v = g.edges[best_eid]
    return ExtremalResult(
        pattern_id=pid,
        value=int(best_val),
        edge_id=int(best_eid),
        endpoints=(int(u), int(v)),
        scanned=int(len(ids)),
        exact=len(ids) == g.m,
    )
