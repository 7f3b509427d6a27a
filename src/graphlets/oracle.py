"""Brute-force reference counts by explicit subset enumeration.

Everything here is deliberately simple: classify each vertex subset by its
induced edge count and degree multiset, using per-vertex neighbor bitmasks.
No identity from the estimator modules is reused, so these counts can serve
as the independent check for all of them.  Cost is O(n^4); refuse anything
past ``max_n`` rather than silently crawl.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import patterns
from .graph import Graph, resolve_edge


class OracleSizeError(RuntimeError):
    """Graph too large for exhaustive enumeration."""


def _adjacency_bits(g: Graph) -> list[int]:
    """Per-vertex neighbor bitmasks (arbitrary-size ints): O(n^2) bits in all."""
    bits = [0] * g.n
    for u, v in g.edges.tolist():
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def _check_size(g: Graph, max_n: int) -> None:
    """Refuse before any O(n^2) bitmask table or subset loop is built."""
    if g.n > max_n:
        raise OracleSizeError(
            f"n={g.n} exceeds the enumeration cap {max_n}; "
            "raise max_n only if you accept exhaustive enumeration"
        )


def brute_force_counts(g: Graph, max_n: int = 64) -> list[int]:
    """All seventeen pattern counts by full enumeration of 2/3/4-subsets.

    Returns a list indexed by pattern id - 1.  The size-2 and complement
    entries come from the same enumeration, so every level sums to C(n, k).
    """
    _check_size(g, max_n)
    bits = _adjacency_bits(g)
    y = [0] * 17
    y[0] = g.m
    y[1] = comb(g.n, 2) - g.m

    for a, b, c in combinations(range(g.n), 3):
        e = ((bits[a] >> b) & 1) + ((bits[a] >> c) & 1) + ((bits[b] >> c) & 1)
        y[(3, 4, 5, 6)[3 - e] - 1] += 1

    for quad in combinations(range(g.n), 4):
        mask = 0
        for v in quad:
            mask |= 1 << v
        degs = tuple(sorted((bits[v] & mask).bit_count() for v in quad))
        y[patterns.classify_small(sum(degs) // 2, degs) - 1] += 1
    return y


def brute_force_edge_counts(g: Graph, e, max_n: int = 64) -> list[int]:
    """Per-edge pattern counts: subsets of size 2..4 that contain both ends.

    ``e`` is an edge id or an (u, v) pair that must be an edge.  Entry i-1
    counts the subsets containing both endpoints whose induced subgraph is
    pattern i; patterns that cannot hold an adjacent vertex pair (2, 6, 17)
    are therefore always zero.  Graphs past ``max_n`` vertices raise
    OracleSizeError, as in ``brute_force_counts``.
    """
    _check_size(g, max_n)
    u, v = resolve_edge(g, e)
    bits = _adjacency_bits(g)
    y = [0] * 17
    y[0] = 1

    rest = [w for w in range(g.n) if w != u and w != v]
    for w in rest:
        e3 = 1 + ((bits[u] >> w) & 1) + ((bits[v] >> w) & 1)
        y[(3, 4, 5)[3 - e3] - 1] += 1

    for w, x in combinations(rest, 2):
        mask = (1 << u) | (1 << v) | (1 << w) | (1 << x)
        degs = tuple(sorted((bits[t] & mask).bit_count() for t in (u, v, w, x)))
        y[patterns.classify_small(sum(degs) // 2, degs) - 1] += 1
    return y
