"""Undirected simple-graph container and text ingestion.

The in-memory form is CSR adjacency (sorted neighbor lists) plus a canonical
edge table: rows (u, v) with u < v, sorted lexicographically.  The row index
of that table is the edge id used everywhere else (sampling, per-edge
statistics, tie breaking).
"""

from __future__ import annotations

import errno
import gzip
import os
import re
from dataclasses import dataclass, field

import numpy as np

_SPLIT = re.compile(r"[,\s]+")


class GraphParseError(ValueError):
    """Raised when graph text cannot be parsed; carries the offending line."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass
class Graph:
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    edges: np.ndarray  # (m, 2), u < v, lexicographically sorted
    labels: list | None = None  # dense id -> original label; None means identity
    _adj_bits: list[int] | None = field(default=None, repr=False, compare=False)
    _core: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a CSR slice, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_id(self, u: int, v: int) -> int:
        """Row index of edge {u, v} in the canonical table; KeyError if absent."""
        a, b = (u, v) if u < v else (v, u)
        lo = np.searchsorted(self.edges[:, 0], a, side="left")
        hi = np.searchsorted(self.edges[:, 0], a, side="right")
        j = lo + np.searchsorted(self.edges[lo:hi, 1], b)
        if j < hi and self.edges[j, 1] == b:
            return int(j)
        raise KeyError(f"({u}, {v}) is not an edge")

    def edge_hardness(self) -> np.ndarray:
        """Degree-sum work proxy d(u) + d(v) per edge id."""
        deg = self.degrees
        return deg[self.edges[:, 0]] + deg[self.edges[:, 1]]

    def adjacency_bits(self) -> list[int]:
        """Per-vertex neighbor bitmasks (arbitrary-size ints), built lazily."""
        if self._adj_bits is None:
            bits = [0] * self.n
            for u, v in self.edges:
                bits[u] |= 1 << int(v)
                bits[v] |= 1 << int(u)
            self._adj_bits = bits
        return self._adj_bits

    def core_numbers(self) -> np.ndarray:
        """k-core number per vertex via bucket peeling; cached."""
        if self._core is None:
            self._core = _peel_cores(self)
        return self._core

    def edge_core(self) -> np.ndarray:
        """min(core[u], core[v]) per edge id."""
        core = self.core_numbers()
        return np.minimum(core[self.edges[:, 0]], core[self.edges[:, 1]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges.shape == other.edges.shape
            and bool(np.array_equal(self.edges, other.edges))
        )


def resolve_edge(g: Graph, edge) -> tuple[int, int]:
    """Normalize an edge given as an id or a (u, v) pair to its endpoints."""
    if hasattr(edge, "__len__"):
        if len(edge) != 2:
            raise ValueError(f"edge pair must have two vertices, got {edge!r}")
        u, v = int(edge[0]), int(edge[1])
        g.edge_id(u, v)  # raises KeyError if absent
        return (u, v) if u < v else (v, u)
    e = int(edge)
    if not (0 <= e < g.m):
        raise ValueError(f"edge id {e} out of range for m={g.m}")
    u, v = g.edges[e]
    return int(u), int(v)


def from_edges(pairs, n: int | None = None, labels: list | None = None) -> Graph:
    """Build a Graph from an iterable of (u, v) int pairs.

    Self-loops are dropped and duplicates merged.  ``n`` overrides the
    inferred vertex count (max id + 1), never shrinking it.
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        raise GraphParseError("graph has no edges")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge array must have shape (m, 2)")
    if arr.min() < 0:
        raise ValueError("vertex ids must be non-negative")
    arr = arr[arr[:, 0] != arr[:, 1]]  # self-loops
    if len(arr) == 0:
        raise GraphParseError("graph has no edges after dropping self-loops")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    edges = np.unique(np.column_stack([lo, hi]), axis=0)
    n_seen = int(edges.max()) + 1
    if n is None:
        n = n_seen
    elif n < n_seen:
        raise ValueError(f"declared n={n} smaller than max vertex id {n_seen - 1}")

    both = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, both[:, 0] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(
        n=n,
        indptr=indptr,
        indices=both[:, 1].astype(np.int32),
        edges=edges.astype(np.int32),
        labels=labels,
    )


def _peel_cores(g: Graph) -> np.ndarray:
    """Linear-time core decomposition (bin-bucket vertex peeling)."""
    n = g.n
    deg = g.degrees.astype(np.int64).copy()
    maxdeg = int(deg.max()) if n else 0
    # counting sort of vertices by degree
    bins = np.zeros(maxdeg + 2, dtype=np.int64)
    for d in deg:
        bins[d + 1] += 1
    np.cumsum(bins, out=bins)
    pos = np.empty(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    fill = bins[:-1].copy()
    for v in range(n):
        pos[v] = fill[deg[v]]
        order[pos[v]] = v
        fill[deg[v]] += 1
    bin_start = bins[:-1].copy()

    core = deg.copy()
    indptr, indices = g.indptr, g.indices
    for i in range(n):
        v = order[i]
        for w in indices[indptr[v]:indptr[v + 1]]:
            if core[w] > core[v]:
                # swap w to the front of its degree bucket, then shrink it
                dw = core[w]
                pw, start = pos[w], bin_start[dw]
                u = order[start]
                if u != w:
                    order[start], order[pw] = w, u
                    pos[w], pos[u] = start, pw
                bin_start[dw] += 1
                core[w] -= 1
    return core


def serialize(g: Graph) -> str:
    """Canonical text form: header ``n m`` then sorted ``u v`` rows (u < v)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse graph text in edge-list, canonical, or MatrixMarket form.

    ``fmt`` is one of auto/edgelist/canonical/mtx.  Auto detection: a
    MatrixMarket banner wins; otherwise the text is accepted as canonical
    when its first line is a consistent ``n m`` header (m matching the
    number of following rows, all endpoints < n); anything else is an edge
    list with arbitrary labels (``#`` and ``%`` comment lines allowed).
    """
    if fmt not in ("auto", "edgelist", "canonical", "mtx"):
        raise ValueError(f"unknown format hint {fmt!r}")
    stripped = text.lstrip()
    if stripped.startswith("%%MatrixMarket") or fmt == "mtx":
        return _parse_mtx(text)

    rows = []  # (lineno, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        rows.append((lineno, _SPLIT.split(line)))
    if not rows:
        raise GraphParseError("no edges in input")

    if fmt in ("auto", "canonical"):
        g = _try_canonical(rows, strict=(fmt == "canonical"))
        if g is not None:
            return g
    return _parse_edgelist(rows)


def _try_canonical(rows, strict: bool) -> Graph | None:
    lineno, head = rows[0]
    ok = len(head) == 2 and all(t.lstrip("-").isdigit() for t in head)
    n = m = -1
    if ok:
        n, m = int(head[0]), int(head[1])
        ok = n > 0 and m == len(rows) - 1
    pairs = []
    if ok:
        for ln, toks in rows[1:]:
            if len(toks) != 2 or not all(t.isdigit() for t in toks):
                ok = False
                lineno = ln
                break
            u, v = int(toks[0]), int(toks[1])
            if not (0 <= u < v < n):
                ok = False
                lineno = ln
                break
            pairs.append((u, v))
    if not ok:
        if strict:
            raise GraphParseError("not a valid canonical graph", lineno)
        return None
    return from_edges(pairs, n=n)


def _parse_edgelist(rows) -> Graph:
    label_ids: dict = {}
    pairs = []
    for lineno, toks in rows:
        if len(toks) != 2:
            raise GraphParseError(f"expected two labels, got {toks!r}", lineno)
        ids = []
        for t in toks:
            if t not in label_ids:
                label_ids[t] = len(label_ids)
            ids.append(label_ids[t])
        pairs.append(ids)
    labels = list(label_ids)
    # keep integer labels as integers so identity-labeled graphs stay plain
    if all(t.lstrip("-").isdigit() for t in labels):
        labels = [int(t) for t in labels]
    return from_edges(pairs, n=len(label_ids), labels=labels)


def _parse_mtx(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphParseError("missing MatrixMarket banner", 1)
    banner = lines[0].split()
    if len(banner) < 3 or banner[1] != "matrix" or banner[2] != "coordinate":
        raise GraphParseError(f"unsupported MatrixMarket type: {lines[0]!r}", 1)
    dims = None
    pairs = []
    seen = 0
    declared = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        toks = _SPLIT.split(line)
        if dims is None:
            if len(toks) != 3:
                raise GraphParseError(f"expected 'rows cols nnz', got {line!r}", lineno)
            try:
                r, c, nnz = (int(t) for t in toks)
            except ValueError:
                raise GraphParseError(f"non-integer dimensions {line!r}", lineno) from None
            dims = max(r, c)
            declared = nnz
            continue
        if len(toks) not in (2, 3):
            raise GraphParseError(f"bad entry {line!r}", lineno)
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {line!r}", lineno) from None
        if not (1 <= i <= dims and 1 <= j <= dims):
            raise GraphParseError(f"index out of range in {line!r}", lineno)
        pairs.append((i - 1, j - 1))
        seen += 1
    if dims is None:
        raise GraphParseError("missing dimension line")
    if declared is not None and seen != declared:
        raise GraphParseError(f"header declared {declared} entries, found {seen}")
    # header dimensions are authoritative: isolated vertices are retained
    return from_edges(pairs, n=dims)


def load_graph(source: str | os.PathLike, fmt: str = "auto") -> Graph:
    """Load a graph from a file path (gzip by suffix) or from literal text.

    A string argument naming an existing file is read from disk; any other
    string is treated as graph text itself, except one without whitespace:
    every edge line needs two labels, so that string can only be a missing
    path and raises ``FileNotFoundError``.
    """
    if isinstance(source, str) and source.split() == [source] and not os.path.exists(source):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), source)
    if isinstance(source, os.PathLike) or (
        isinstance(source, str) and "\n" not in source and os.path.exists(source)
    ):
        path = os.fspath(source)
        if path.endswith(".gz"):
            with gzip.open(path, "rt") as fh:
                text = fh.read()
        else:
            with open(path, "rt") as fh:
                text = fh.read()
        return parse_graph(text, fmt)
    if isinstance(source, str):
        return parse_graph(source, fmt)
    raise TypeError(f"cannot load graph from {type(source).__name__}")
