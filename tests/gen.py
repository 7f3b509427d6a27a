"""Deterministic graph generators, and helpers, shared by the tests."""

from __future__ import annotations

import os
from itertools import combinations

import numpy as np
import pytest

from graphlets import Graph, from_edges


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) drawn from one seeded upper-triangular mask."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    us, vs = np.nonzero(mask)
    if len(us) == 0:
        raise ValueError("empty draw; raise p or change the seed")
    return from_edges(np.column_stack([us, vs]), n=n)


def gen_power_law(n: int, avg_deg: float, seed: int, gamma: float = 2.3) -> Graph:
    """Heavy-tailed graph by stub matching on a truncated power-law sequence.

    Self-loops and duplicate pairs from the matching are dropped, so the
    realized edge count lands a little under n * avg_deg / 2.
    """
    rng = np.random.default_rng(seed)
    dmax = max(4, int(np.sqrt(n * avg_deg)))
    ks = np.arange(1, dmax + 1, dtype=np.float64)
    probs = ks ** (-gamma)
    probs /= probs.sum()
    deg = rng.choice(len(ks), size=n, p=probs) + 1
    # rescale to the requested average while preserving the tail shape
    deg = np.maximum(1, np.round(deg * (avg_deg / deg.mean())).astype(np.int64))
    if deg.sum() % 2:
        deg[0] += 1
    stubs = np.repeat(np.arange(n), deg)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return from_edges(pairs, n=n)


def planted_clique(n: int, p: float, k: int, seed: int) -> Graph:
    """G(n, p) noise with a k-clique planted on vertices 0..k-1."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    us, vs = np.nonzero(mask)
    noise = list(zip(us.tolist(), vs.tolist()))
    return from_edges(noise + list(combinations(range(k), 2)), n=n)


def neighbors(g: Graph, v: int) -> np.ndarray:
    """Sorted neighbor ids of v (a CSR slice, do not mutate)."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


def serialize(g: Graph) -> str:
    """Canonical text form: header ``n m`` then sorted ``u v`` rows (u < v)."""
    return "".join(f"{u} {v}\n" for u, v in [(g.n, g.m)] + g.edges.tolist())


def named_graphs() -> dict[str, Graph]:
    """Small fixed graphs with hand-checkable counts."""
    return {
        "K4": from_edges(list(combinations(range(4), 2))),
        "K5": from_edges(list(combinations(range(5), 2))),
        "P4": from_edges([(0, 1), (1, 2), (2, 3)]),
        "C4": from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]),
        "star3": from_edges([(0, 1), (0, 2), (0, 3)]),
        "triangle_iso": from_edges([(0, 1), (0, 2), (1, 2)], n=4),
        "two_edges": from_edges([(0, 1), (2, 3)]),
        "tailed_triangle": from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]),
    }


def suite_graphs() -> dict[str, Graph]:
    """The named graphs, six ER densities, a power-law graph with ~200-neighbor
    hubs and a planted 12-clique: the graphs every per-edge route is held to."""
    graphs = dict(named_graphs())
    for s in range(6):
        graphs[f"er{s}"] = gen_er(30, 0.1 + 0.15 * s, s)
    graphs["power_law"] = gen_power_law(3000, 5.0, 1)
    graphs["planted"] = planted_clique(60, 0.1, 12, 3)
    return graphs


def assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
