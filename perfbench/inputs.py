"""Seeded benchmark inputs: the graph generator, the two file formats, the cache.

The generator is the benchmark's own, so an edit to the test helpers cannot
shift what the benchmark measures.  It is stub matching on a truncated
power-law degree sequence (gamma = 2.3, as in the test suite's
``gen_power_law``), with one difference: the degree sequence is the
stratified quantile sequence of that distribution rather than an i.i.d.
draw.  Every seed therefore has the same degree multiset, hubs included, and
the seed chooses which vertex gets which degree and how the stubs are wired.
That keeps the work a run does (sum of d(u) + d(v) over edges) the same
across seeds, so seed-to-seed spread in the timings is noise, not input size.

Nothing here imports the package under test: the files, the expected degree
sequence and the input facts come from numpy alone.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

GAMMA = 2.3


def degree_sequence(n: int, avg_deg: float) -> np.ndarray:
    """Stratified quantiles of the truncated power law on 1..sqrt(n * avg_deg).

    Rescaled to the requested mean as the test generator does, with an even
    total so that the stubs pair up.
    """
    dmax = max(4, int(np.sqrt(n * avg_deg)))
    ks = np.arange(1, dmax + 1, dtype=np.float64)
    cdf = np.cumsum(ks ** (-GAMMA))
    cdf /= cdf[-1]
    u = (np.arange(n) + 0.5) / n
    deg = np.searchsorted(cdf, u) + 1
    deg = np.maximum(1, np.round(deg * (avg_deg / deg.mean())).astype(np.int64))
    if deg.sum() % 2:
        deg[-1] += 1
    return deg


def power_law_edges(n: int, avg_deg: float, seed: int) -> np.ndarray:
    """Canonical edge table (u < v, unique, sorted) of one seeded stub matching.

    Self-loops and repeated pairs from the matching are dropped, so m lands a
    little under n * avg_deg / 2.
    """
    rng = np.random.default_rng(seed)
    deg = rng.permutation(degree_sequence(n, avg_deg))
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.column_stack([lo, hi]), axis=0)


@dataclass(frozen=True)
class GraphSpec:
    """One input graph: generator size and the file format it is stored in.

    ``fmt`` is ``canonical`` (plain ``n m`` header, sorted ``u v`` rows) or
    ``snap`` (gzipped edge list: ``#`` header lines, tab separators, sparse
    non-contiguous integer ids, shuffled rows in random orientation).
    """

    n: int
    avg_deg: float
    fmt: str

    def key(self, seed: int) -> str:
        return f"pl-n{self.n}-d{self.avg_deg:g}-{self.fmt}-s{seed}"

    def filename(self) -> str:
        return "graph.txt" if self.fmt == "canonical" else "graph.snap.gz"


def _write_canonical(path: str, n: int, edges: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"{n} {len(edges)}\n")
        np.savetxt(fh, edges, fmt="%d")


def _write_snap(path: str, n: int, edges: np.ndarray, seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    labels = rng.choice(20 * n, size=n, replace=False)  # sparse, unordered ids
    rows = labels[edges[rng.permutation(len(edges))]]
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip][:, ::-1]
    used = np.unique(edges).size
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        header = (
            f"# Undirected graph: seeded power-law stub matching, seed {seed}\n"
            f"# Nodes: {used} Edges: {len(rows)}\n"
            "# FromNodeId\tToNodeId\n"
        )
        gz.write(header.encode())
        body = "\n".join(f"{a}\t{b}" for a, b in rows.tolist()) + "\n"
        gz.write(body.encode())


def wedge_counts(n: int, edges: np.ndarray, chunk: int = 2_000_000) -> tuple[int, int]:
    """Triangles and non-induced 4-cycles, from wedges alone.

    A wedge is a pair a < b of neighbors of one center.  It is closed when
    {a, b} is an edge, and each triangle closes three wedges.  Two wedges on
    the same pair {a, b} form one 4-cycle, and each 4-cycle is seen from both
    of its diagonals.  Independent of the package, this pins the triangle
    count and the induced sum 4-cycle + chordal-cycle + 3 * 4-clique.
    """
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    nbr = both[:, 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, both[:, 0] + 1, 1)
    np.cumsum(indptr, out=indptr)
    edge_keys = edges[:, 0] * n + edges[:, 1]  # sorted: the table is lexicographic
    # each adjacency slot k pairs with the later slots of its own row
    row_end = np.repeat(indptr[1:], np.diff(indptr))
    later = row_end - np.arange(len(nbr)) - 1
    starts = np.cumsum(later) - later
    keys, closed = [], 0
    lo = 0
    while lo < len(nbr):
        hi = int(np.searchsorted(starts, starts[lo] + chunk, side="right"))
        hi = max(hi, lo + 1)
        reps = later[lo:hi]
        k = np.repeat(np.arange(lo, hi), reps)
        offset = np.arange(len(k)) - np.repeat(np.cumsum(reps) - reps, reps)
        key = nbr[k] * n + nbr[k + 1 + offset]
        pos = np.minimum(np.searchsorted(edge_keys, key), len(edge_keys) - 1)
        closed += int(np.count_nonzero(edge_keys[pos] == key))
        keys.append(key)
        lo = hi
    _, codeg = np.unique(np.concatenate(keys), return_counts=True)
    codeg = codeg.astype(np.int64)
    return closed // 3, int((codeg * (codeg - 1) // 2).sum()) // 2


def graph_facts(n: int, edges: np.ndarray, keep_isolated: bool = True) -> dict:
    """Size, degree and wedge facts of a canonical edge table, from numpy alone.

    Without ``keep_isolated`` the facts describe the graph an edge list
    yields, which cannot name isolated vertices.
    """
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    if not keep_isolated:
        deg = deg[deg > 0]
    triangles, cycles4 = wedge_counts(n, edges)
    d_all = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    du, dv = d_all[edges[:, 0]], d_all[edges[:, 1]]
    return {
        "n": int(len(deg)),
        "m": int(len(edges)),
        "max_degree": int(deg.max()),
        "sum_d2": int((deg * deg).sum()),
        "degree_sha": degree_sha(deg),
        "triangles": triangles,
        "noninduced_4cycles": cycles4,
        # non-induced 3-stars and 4-vertex paths (3 edges), from degrees
        "noninduced_3stars": int((deg * (deg - 1) * (deg - 2) // 6).sum()),
        "noninduced_paths": int(((du - 1) * (dv - 1)).sum()) - 3 * triangles,
        # sum over edges of (d(u) + d(v) - 2)^2: the exact variance of the
        # sampled wedge estimate
        "edge_wedge_sq": int(((du + dv - 2) ** 2).sum()),
    }


def degree_sha(degrees: np.ndarray) -> str:
    """Fingerprint of a degree multiset, comparable with the input facts."""
    return hashlib.sha256(np.sort(np.asarray(degrees, dtype=np.int64)).tobytes()).hexdigest()


def prepare(spec: GraphSpec, seed: int, cache_dir: str) -> tuple[str, dict]:
    """Path of the seeded input file and its facts, generating them once."""
    with open(__file__, "rb") as fh:  # a changed generator never reuses old files
        version = hashlib.sha256(fh.read()).hexdigest()[:8]
    folder = os.path.join(cache_dir, f"{spec.key(seed)}-{version}")
    path = os.path.join(folder, spec.filename())
    facts_path = os.path.join(folder, "facts.json")
    if os.path.exists(facts_path):
        with open(facts_path) as fh:
            return path, json.load(fh)
    os.makedirs(folder, exist_ok=True)
    edges = power_law_edges(spec.n, spec.avg_deg, seed)
    if spec.fmt == "canonical":
        _write_canonical(path, spec.n, edges)
    elif spec.fmt == "snap":
        _write_snap(path, spec.n, edges, seed)
    else:
        raise ValueError(f"unknown input format {spec.fmt!r}")
    facts = graph_facts(spec.n, edges, keep_isolated=spec.fmt == "canonical")
    facts["file_bytes"] = os.path.getsize(path)
    tmp = facts_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(facts, fh)
    os.replace(tmp, facts_path)  # facts last: their presence marks a complete entry
    return path, facts
