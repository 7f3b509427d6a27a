"""Edge-local neighborhood decomposition and unrestricted tallies.

For an edge e = (u, v) the other vertices fall in four zones: T (common
neighbors), S_u and S_v (neighbors of u only, of v only) and the r far ones.
``ZoneKernel`` marks, for a batch of up to 31 edges, each vertex's int64 word
with two bits per edge, "in N(u)" and "in N(v)": their code is the vertex's
zone, 3 for T, 2 for S_u, 1 for S_v, 0 for far and the endpoints.  The kernel
orients every edge from its lower- to its higher-ranked end by (degree, id),
the rank of ``wholegraph`` (Chiba and Nishizeki 1985): vertex w's up-list
holds its neighbors ranked above w, in id order, so the lists hold each edge
once.  They are the kernel's own second CSR (int64 offsets, int32 ids), sized
by the CSR, never by n.  Each zone member's up-list is read once, and one
bincount of (edge, zone of the source, code of the target) gives every edge's
4x4 matrix M of adjacent zone pairs, each pair seen once, from its
lower-ranked end: the 4-cliques are M[T][T] and the 4-cycles M[S_u][S_v] +
M[S_v][S_u].
``ZoneKernel.tallies`` turns those and the endpoint degrees into the 17
unrestricted tallies c of ``edge_tallies``: every per-edge caller starts from
c.  ``tally_sums`` states their sum over all edges from six edge sums.  The
fork map ``_parallel_map``, which every module's workers run on, is here.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _gather, resolve_edge

# zone codes: a vertex's two mark bits for one edge (u, v), "in N(u)" the high one
_SV, _SU, _T = 1, 2, 3
EDGES = 31  # edges per batch: two mark bits each in one int64 word
# gathered neighbor entries per batch or chunk: bounds its working set.  At
# 2**17 the whole-graph pass's ids made megabyte temporaries that glibc gave
# back to the OS and faulted in again on every call: 6,000-8,000 minor faults
# a call on a 72,000-edge power-law graph, against 1,100 at 2**16, where the
# call runs 20-25% faster.  The 986,093-edge north-star graph takes as long at
# 2**16 as at 2**17; at 2**15 more of its tops split into chunks, which costs
# it about 30 ms a call.
BUDGET = 1 << 16
CHUNK = 4096  # edges per vectorized reduction: bounds its per-edge arrays


class VertexMarker:
    """Kept for callers that pass a marker to ``classify_edge`` or
    ``unrestricted_counts``; nothing reads it."""

    def __init__(self, n: int):
        self.n = n


@dataclass
class EdgeLocal:
    u: int
    v: int
    T: np.ndarray
    S_u: np.ndarray
    S_v: np.ndarray
    far: int


def _chunks(work: np.ndarray, most: int | None = None):
    """Contiguous (lo, hi) item ranges whose summed ``work`` is within BUDGET,
    each of at most ``most`` items when it is given.

    An item heavier than the budget gets a range of its own.
    """
    ends = np.cumsum(work)
    lo = 0
    while lo < len(work):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + BUDGET, side="right")))
        hi = hi if most is None else min(hi, lo + most)
        yield lo, hi
        lo = hi


def _cpus() -> int:
    """How many CPUs this process may run on: the cap on a map's shares."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(fn, share: np.ndarray, fd: int):
    """In a forked child: pickle (True, fn(share), None), or (False, error,
    traceback) on any failure, to ``fd``; then end the process, so it never
    returns into the caller's code or flushes its stdio buffers."""
    try:
        try:
            data = pickle.dumps((True, fn(share), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # every failure goes back to the caller
            tb = traceback.format_exc()
            try:
                data = pickle.dumps((False, exc, tb))
            except Exception:  # an unpicklable error still reports its traceback
                data = pickle.dumps((False, RuntimeError(tb), tb))
        with os.fdopen(fd, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def _share_result(fd: int, w: int):
    """What forked share ``w`` pickled to ``fd``; its exception is raised here."""
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    if not chunks:
        raise RuntimeError(f"forked share {w} ended without a result")
    ok, value, tb = pickle.loads(b"".join(chunks))  # bytes our own child wrote
    if not ok:
        raise value from RuntimeError(f"in forked share {w}:\n{tb}")
    return value


def _parallel_map(fn, ids: np.ndarray, workers: int) -> list:
    """``fn`` over k interleaved shares ids[w::k] of ``ids``, one result per share.

    k is ``workers``, capped at the CPUs this process may use.  This process
    runs share 0; each other share runs in a forked child, which inherits
    ``fn`` and ``ids`` copy-on-write and pickles its result back through a
    pipe (its own process never returns from the fork).  A child's exception
    is raised here; if this process fails, its children are killed.  Every
    child is reaped before the call returns.
    k = 1, fewer than two ids per share, or a platform without ``os.fork``
    runs ``fn`` on all of ``ids`` in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    k = min(workers, _cpus())
    if k == 1 or len(ids) < 2 * k or not hasattr(os, "fork"):
        return [fn(ids)]
    pids, reads = [], []
    finished = False
    try:
        for w in range(1, k):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, ids[w::k], wr)
                pids.append(pid)
            finally:
                os.close(wr)
        out = [fn(ids[0::k])]
        out += [_share_result(r, w) for w, r in enumerate(reads, 1)]
        finished = True
        return out
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def classify_edge(g: Graph, u: int, v: int, marker: VertexMarker | None = None) -> EdgeLocal:
    """Split V \\ {u, v} into the T / S_u / S_v / far zones; ``marker`` goes unused."""
    kernel = zone_kernel(g)
    nbrs, src, cell = kernel._mark(np.array([[u, v]]))
    kernel.words[nbrs] = 0
    T, S_u, S_v = (src[cell == z] for z in (_T, _SU, _SV))
    return EdgeLocal(u=u, v=v, T=T, S_u=S_u, S_v=S_v, far=g.n - len(src) - 2)


class ZoneKernel:
    """Mark words (one per CSR vertex) and up-lists of one graph.  The words are
    zero between batches, so their untouched pages cost no RSS; ``reach[x]``, the
    sum over N(x) of 1 + |up-list|, bounds what a batch gathers for an edge at x."""

    def __init__(self, g: Graph):
        self.g, self.deg = g, g.degrees
        rank = self.deg * len(self.deg) + np.arange(len(self.deg))  # (degree, id) order
        above = rank[g.indices] > np.repeat(rank, self.deg)
        run = np.zeros(len(g.indices) + 1, dtype=np.int64)  # both prefix sums, in turn
        np.cumsum(above, dtype=np.int64, out=run[1:])
        self.up = run[g.indptr], g.indices[above]
        self.words = np.zeros(len(self.deg), dtype=np.int64)
        np.cumsum((1 + np.diff(self.up[0]))[g.indices], out=run[1:])
        self.reach = run[g.indptr[1:]] - run[g.indptr[:-1]]

    def tallies(self, ends: np.ndarray):
        """(c, M, D) over the edges (u, v) in ``ends``: the 17 unrestricted tallies
        of ``edge_tallies``, adjacent zone pairs M[zone of the lower-ranked
        end][zone of the other] and zone degree sums D[zone], as arrays over the
        edges; of one edge, as Python ints, which cost less than arrays."""
        parts = [self._batch(ends[lo:hi])
                 for lo, hi in _chunks(self.reach[ends].sum(axis=1), EDGES)]
        if not parts:  # no edges: one empty batch shapes the empty arrays
            parts = [self._batch(ends)]
        t, M, D = (np.concatenate(p, axis=-1) for p in zip(*parts))
        du, dv = self.deg[ends].T
        if len(ends) == 1:
            t, M, D, du, dv = (a[..., 0].tolist() for a in (t, M, D, du, dv))
        c = edge_tallies(t, M[_T][_T], M[_SU][_SV] + M[_SV][_SU], du, dv,
                         self.g.n, self.g.m)
        return c, M, D

    def _mark(self, ends):
        """Mark a batch; (entries to clear, its sources, 4 * edge + zone of each)."""
        g, B = self.g, len(ends)
        ends = ends.T.ravel()  # u_0 .. u_B-1, v_0 .. v_B-1
        shift = np.arange(2 * B) % B * 2
        nbrs, lens = _gather(g.indptr, g.indices, ends)
        at = np.repeat(shift, lens)
        # no vertex is twice in one list, so the bits added are distinct: adding sets them
        np.add.at(self.words, nbrs, np.repeat(np.repeat([_SU, _SV], B) << shift, lens))
        np.bitwise_and.at(self.words, ends, ~(_T << shift))  # endpoints are in no zone
        code = (self.words[nbrs] >> at) & 3
        split = int(lens[:B].sum())  # sources: N(u) less v, and N(v) in S_v alone
        keep = np.concatenate([code[:split] != 0, code[split:] == _SV])
        return nbrs, nbrs[keep], (at[keep] << 1) + code[keep]

    def _batch(self, ends):
        B = len(ends)
        nbrs, src, cell = self._mark(ends)
        t = np.bincount(cell, minlength=4 * B)[_T::4]
        # each sum is at most 2m < 2**53, so the float bincount is exact
        D = np.bincount(cell, self.deg[src], 4 * B).astype(np.int64)
        up, lens = _gather(*self.up, src)
        key = np.repeat(cell << 2, lens)  # 16 * edge + 4 * zone, plus the target's code
        key += (self.words[up] >> ((key >> 4) << 1)) & 3
        self.words[nbrs] = 0
        M = np.bincount(key, minlength=16 * B).reshape(B, 4, 4)
        return t, M.transpose(1, 2, 0), D.reshape(B, 4).T


def zone_kernel(g: Graph) -> ZoneKernel:
    """The graph's one ``ZoneKernel``, built on first use."""
    if g._zones is None:
        g._zones = ZoneKernel(g)
    return g._zones


def edge_tallies(t, k4, cyc, du, dv, n, m) -> tuple:
    """The 17-slot unrestricted tally vector c(e), in plain arithmetic.

    ``t``, ``du`` and ``dv`` are the common-neighbor count and the endpoint
    degrees, so |S_u| = du - 1 - t, |S_v| = dv - 1 - t and r = n - du - dv + t;
    ``k4`` and ``cyc`` are the 4-cliques and 4-cycles at e.  Slots (0-based by
    pattern id - 1):
      c1 = 1 and c2 = 0 (bookkeeping); c3 = t; c4 = |S_u| + |S_v|; c5 = r;
      c7 = k4; c8 = C(t, 2); c9 = t (|S_u| + |S_v|); c10 = cyc;
      c11 = C(|S_u|, 2) + C(|S_v|, 2); c12 = |S_u||S_v|; c13 = (|S_u| + |S_v|) r;
      c14 = t r; c15 = C(r, 2); c16 = edges sharing no endpoint with e.
      c6 and c17 stay zero: those patterns are complement-filled downstream.

    One body serves Python ints (one edge, exact at any scale) and int64
    arrays (many edges, exact for n < 2**31, the bound of ``Graph``).
    """
    zero = t * 0  # 0, or an array of zeros shaped like t
    su, sv = du - 1 - t, dv - 1 - t
    s, r = su + sv, n - du - dv + t
    return (zero + 1, zero, t, s, r, zero, k4, t * (t - 1) // 2, t * s, cyc,
            su * (su - 1) // 2 + sv * (sv - 1) // 2, su * sv, s * r, t * r,
            r * (r - 1) // 2, m - du - dv + 1, zero)


def tally_sums(n, m, t, tt, td, d, dd, d2) -> list[int]:
    """The sum over all m edges of ``edge_tallies(t, 0, 0, d_u, d_v, n, m)`` in
    closed form, as Python ints, from the edge sums ``t`` = sum t, ``tt`` =
    sum t^2, ``td`` = sum t (d_u + d_v), ``d`` = sum (d_u + d_v), ``dd`` =
    sum d_u d_v and ``d2`` = sum (d_u^2 + d_v^2): every slot is of degree at
    most 2 in t, d_u and d_v, so no pass over the edges is needed (PGD, Ahmed
    et al. 2015)."""
    # the sum over edges of x y, for x and y linear in (1, t, d_u + d_v)
    moments = ((m, t, d), (t, tt, td), (d, td, d2 + 2 * dd))

    def dot(x, y):
        return sum(xi * mij * yj for xi, row in zip(x, moments) for mij, yj in zip(row, y))

    one, tri, p = (1, 0, 0), (0, 1, 0), (1, 1, 0)  # p = 1 + t
    s, r = (-2, -2, 1), (n, 1, -1)  # |S_u| + |S_v| and r, as in edge_tallies
    susv = dd - dot(p, (0, 0, 1)) + dot(p, p)  # (d_u - p)(d_v - p)
    return [m, 0, t, dot(one, s), dot(one, r), 0, 0, (tt - t) // 2, dot(tri, s), 0,
            (dot(s, s) - 2 * susv - dot(one, s)) // 2, susv, dot(s, r), dot(tri, r),
            (dot(r, r) - dot(one, r)) // 2, (m + 1) * m - d, 0]


def isum(x):
    """Exact sum of an int64 array along its last axis: its 32-bit halves are
    summed apart.  A Python int for a 1-D array, an object array of them for
    the rows of a 2-D one."""
    return ((np.sum(x >> 32, axis=-1).astype(object) << 32)
            + np.sum(x & 0xFFFFFFFF, axis=-1).astype(object))


def unrestricted_counts(g: Graph, e, marker: VertexMarker | None = None) -> tuple[int, ...]:
    """The 17-slot unrestricted tally vector c(e) of one edge (``edge_tallies``).

    All values are plain Python ints (exact at any scale).
    """
    u, v = resolve_edge(g, e)  # ``marker`` goes unused: the zone kernel keeps its own marks
    return zone_kernel(g).tallies(np.array([[u, v]]))[0]
