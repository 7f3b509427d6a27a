"""Edge-local neighborhood decomposition and unrestricted tallies.

For an edge e = (u, v) the other vertices fall in four zones: T (common
neighbors), S_u and S_v (neighbors of u only, of v only) and the r far ones.
``ZoneKernel`` marks, for a lane batch of up to 31 edges, each vertex's int64
word with two bits per edge, "in N(u)" and "in N(v)": their code is the
vertex's zone, 3 for T, 2 for S_u, 1 for S_v, 0 for far and the endpoints.
The kernel orients every edge from its lower- to its higher-ranked end by
(degree, id), the rank of ``wholegraph`` (Chiba and Nishizeki 1985): vertex
w's up-list holds its neighbors ranked above w, in id order, so the lists
hold each edge once.  They are the kernel's own second CSR (int64 offsets,
int32 ids), sized by the CSR, never by n.  Each zone member's up-list is read
once, and one bincount of (edge, zone of the source, code of the target)
gives every edge's 4x4 matrix M of adjacent zone pairs, each pair seen once,
from its lower-ranked end: the 4-cliques are M[T][T] and the 4-cycles
M[S_u][S_v] + M[S_v][S_u].
Edges that share a center h, an end with enough edges in the call that
sharing its reads pays (``STAR``), go to star batches of up to 62 edges
(h, x_i), which share the reads at h (the combinatorial relations of PGD,
Ahmed et al. 2015, on the sampled path): one bit marks N(h) and one bit per
edge N(x_i), one scan of the up-lists of N(h) counts, at each vertex b, the
pairs (a, b) with a in N(h), and the pairs from h's side alone follow from
those counts by subtraction.  Only the up-lists of x_i and of its zone
members are read per edge.  Every value is an exact integer, so an edge's M
and D do not depend on the kind of batch that ran it.
``ZoneKernel.tallies`` turns those and the endpoint degrees into the 17
unrestricted tallies c of ``edge_tallies``: every per-edge caller starts from
c.  ``tally_sums`` states their sum over all edges from six edge sums.  The
per-edge driver ``per_edge`` and the fork map ``_parallel_map`` are here.
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
EDGES = 31  # edges per lane batch: two mark bits each in one int64 word
# a center h gets star batches when (its edges in the call - 1) * reach[h], about
# the up-list reads a star batch saves over lane batches, is at least STAR.  A
# star batch's fixed cost is about 80 us against 45 for a lane batch (one
# degree-2 edge, 2-CPU VM), so a center that saves few reads is better left in
# lane batches.  Measured on uniform p = 0.02-0.08 draws of the perfbench
# inputs and of gen_power_law(20000, 4.0, 3), and on the max-kcore shares,
# 4,000-16,000 ran about equal and 8,000 best.  A plain count of 6 edges at
# the center ran 13% slower than no star batches on the 3,381-edge draw at p =
# 0.08 of that 41,658-edge graph; this rule runs it 17% faster.
STAR = 8000
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
    sum over N(x) of 1 + |up-list|, bounds what a batch gathers for an edge at x.

    The kernel holds the degrees, the up-lists' offsets and ids, the words and
    ``reach``: 4 bytes an edge and 32 a vertex.  Its build reads the CSR in
    blocks of rows of at most ``BUDGET`` entries and writes straight into those
    arrays, so no scratch array is as long as the CSR."""

    def __init__(self, g: Graph):
        self.g, self.deg = g, g.degrees
        n = len(self.deg)
        rank = self.deg * n + np.arange(n)  # (degree, id) order
        offsets = np.zeros(n + 1, dtype=np.int64)
        ids = np.empty(len(g.indices) // 2, dtype=g.indices.dtype)  # each edge is in one list
        self.up, self.reach = (offsets, ids), np.empty(n, dtype=np.int64)
        blocks = list(_chunks(self.deg))
        for lo, hi in blocks:
            nbr, at = g.indices[g.indptr[lo]:g.indptr[hi]], g.indptr[lo:hi + 1] - g.indptr[lo]
            above = rank[nbr] > np.repeat(rank[lo:hi], self.deg[lo:hi])
            offsets[lo + 1:hi + 1] = offsets[lo] + _prefix_sums(above)[at[1:]]
            np.compress(above, nbr, out=ids[offsets[lo]:offsets[hi]])
        for lo, hi in blocks:  # now that every up-list is known
            nbr, at = g.indices[g.indptr[lo]:g.indptr[hi]], g.indptr[lo:hi + 1] - g.indptr[lo]
            self.reach[lo:hi] = np.diff(_prefix_sums(1 + self._ups(nbr))[at])
        self.words = np.zeros(n, dtype=np.int64)

    def tallies(self, ends: np.ndarray):
        """(c, M, D) over the edges (u, v) in ``ends``: the 17 unrestricted tallies
        of ``edge_tallies``, adjacent zone pairs M[zone of the lower-ranked
        end][zone of the other] among T, S_u and S_v (M's far row and column are
        zero) and zone degree sums D[zone], as arrays over the edges; of one
        edge, as Python ints, which cost less than arrays.  Edges at a center
        with enough edges in the call (``STAR``) go to star batches, the rest to
        lane batches; both give every edge the same numbers."""
        E = len(ends)
        t, M, D = (np.zeros(shape, np.int64) for shape in (E, (4, 4, E), (4, E)))
        lanes, stars = self._route(ends)
        # star batches first: run after the lane batches, whose gathers are
        # larger, they left the estimate CLI's peak RSS 1.9 MB higher
        for h, at in stars:
            x = ends[at].sum(axis=1) - h
            for lo, hi in _chunks(self.reach[x] + self._ups(x), 2 * EDGES):
                part = at[lo:hi]
                t[part], M[..., part], D[:, part] = self._star(h, x[lo:hi], ends[part, 0] != h)
        for lo, hi in _chunks(self.reach[ends[lanes]].sum(axis=1), EDGES):
            at = lanes[lo:hi]
            t[at], M[..., at], D[:, at] = self._batch(ends[at])
        du, dv = self.deg[ends].T
        if E == 1:
            t, M, D, du, dv = (a[..., 0].tolist() for a in (t, M, D, du, dv))
        c = edge_tallies(t, M[_T][_T], M[_SU][_SV] + M[_SV][_SU], du, dv,
                         self.g.n, self.g.m)
        return c, M, D

    def _route(self, ends):
        """(positions of lane-batch edges, [(center, positions of its edges)]).

        An edge's center is its end with more edges in the call, ties to the
        larger ``reach``; ``STAR`` says which centers get star batches."""
        if len(ends) < 2:
            return np.arange(len(ends)), []
        verts, at, count = np.unique(ends, return_inverse=True, return_counts=True)
        at = at.reshape(ends.shape)
        (cu, cv), (ru, rv) = count[at].T, self.reach[ends].T
        center = np.where((cv > cu) | ((cv == cu) & (rv > ru)), at[:, 1], at[:, 0])
        star = (count[center] - 1) * self.reach[verts[center]] >= STAR
        order = np.flatnonzero(star)
        order = order[np.argsort(center[order], kind="stable")]
        cuts = np.flatnonzero(np.diff(center[order])) + 1
        return np.flatnonzero(~star), [(int(verts[center[part[0]]]), part)
                                       for part in np.split(order, cuts) if len(part)]

    def _ups(self, verts):
        """The up-list lengths of ``verts``."""
        return self.up[0][verts + 1] - self.up[0][verts]

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
        M[:, :, 0] = 0  # zone-to-zone pairs only, as from a star batch
        return t, M.transpose(1, 2, 0), D.reshape(B, 4).T

    def _star(self, h, x, flip):
        """(t, M, D) of the edges (h, x_i), or (x_i, h) where ``flip``: a star batch.

        Bit i of a word marks N(x_i) and bit 2 * EDGES marks N(h), so a vertex's
        code in lane i is 3 in T_i, 2 in S_h = N(h) \\ N[x_i] and 1 in S_x =
        N(x_i) \\ N[h].  One scan of the up-lists of N(h), shared by every
        lane, keeps their marked targets sorted, so cnt(b) = #{a in N(h): b in
        up(a)} is two binary searches and needs no scratch array.  The pairs
        from x_i, T_i and S_x come from their own up-lists; those from S_h are
        cnt summed over a zone less the pairs from x_i and T_i, as N(h) is
        S_h, T_i and x_i.
        """
        g, words, L = self.g, self.words, len(x)
        nh = g.indices[g.indptr[h]:g.indptr[h + 1]]
        nx, lens = _gather(g.indptr, g.indices, x)
        lane = np.repeat(np.arange(L), lens)
        words[nh] = 1 << 2 * EDGES
        np.add.at(words, nx, 1 << lane)  # distinct bits, as in ``_mark``
        words[h] = 0  # an endpoint of every lane
        w = words[nx]
        cell = lane << 2 | (w >> 2 * EDGES) << 1 | (w >> lane) & 1  # h's word is 0
        t = np.bincount(cell, minlength=4 * L)[_T::4]
        # sums of degrees or of cnt are at most 2m < 2**53, so float bincounts are exact
        D = np.bincount(cell, self.deg[nx], 4 * L).astype(np.int64).reshape(L, 4)
        C = np.zeros(4 * L)  # cnt summed over each lane's zones
        for lo, hi in _chunks(self._ups(nh)):  # the sums add up over the slices
            up, _ = _gather(*self.up, nh[lo:hi])
            w = words[up]
            hit = np.sort(up[w != 0])  # cnt(b) is how often b is in ``hit``
            C += np.bincount(cell, _count(hit, nx), 4 * L)
            # cnt over N(h) less x_i's own, into the S_h slot
            C[_SU::4] += np.count_nonzero(w >> 2 * EDGES) - _count(hit, x)
        C = C.astype(np.int64).reshape(L, 4)
        C[:, _SU] -= C[:, _T]  # less T's: N(h) is S_h, T_i and x_i
        keep = (cell & 3) != 0
        src = np.concatenate([x, nx[keep]])
        up, lens = _gather(*self.up, src)
        key = np.repeat(np.concatenate([np.arange(L) << 2, cell[keep]]) << 2, lens)
        w = words[up]
        key += (w >> 2 * EDGES) << 1 | (w >> (key >> 4)) & 1
        words[nh], words[nx] = 0, 0
        M = np.bincount(key, minlength=16 * L).reshape(L, 4, 4)  # row 0: from x_i
        # x_i is in N(h) but no zone of its own lane: its pairs with its
        # neighbors ranked below it were read as going into S_h
        n = len(self.deg)
        below = keep & (self.deg[nx] * n + nx < (self.deg[x] * n + x)[lane])
        M[:, :, _SU] -= np.bincount(cell[below], minlength=4 * L).reshape(L, 4)
        M[:, _SU, 1:] = C[:, 1:] - M[:, 0, 1:] - M[:, _T, 1:]  # less the pairs from x_i, T
        M[:, 0] = M[:, :, 0] = 0
        D[:, 0], D[:, _SU] = 0, int(self.deg[nh].sum()) - self.deg[x] - D[:, _T]
        if flip.any():  # S_h is S_u unless h is the edge's v
            swap = np.array([0, _SU, _SV, _T])
            M[flip], D[flip] = M[flip][:, swap[:, None], swap], D[flip][:, swap]
        return t, M.transpose(1, 2, 0), D.T


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0 and the running sums of ``x``, in int64."""
    out = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(x, out=out[1:])
    return out


def _count(hit: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """How often each of ``verts`` is in the sorted array ``hit``."""
    return np.searchsorted(hit, verts, "right") - np.searchsorted(hit, verts)


def zone_kernel(g: Graph) -> ZoneKernel:
    """The graph's one ``ZoneKernel``, built on first use."""
    if g._zones is None:
        g._zones = ZoneKernel(g)
    return g._zones


def per_edge(g: Graph, ids, fn, workers: int) -> list:
    """The results of ``fn(at, c, M, D)`` on calls of at most ``CHUNK`` of the
    edges ``ids`` (repeats allowed), from one parallel map: ``at`` is a call's
    positions in ``ids`` and (c, M, D) its ``ZoneKernel.tallies`` (Python ints
    for a one-edge call).  Positions go in order of their edge's center, its
    higher-ranked end by (degree, id), heaviest first and ties in place: a
    hub's edges share calls and star batches, and interleaved shares stay even.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= g.m):
        raise ValueError("edge id out of range")
    kernel = zone_kernel(g)  # built here, so forked workers share its up-lists
    ends = g.edges[ids]
    order = np.argsort(-(kernel.deg[ends] * len(kernel.deg) + ends).max(axis=1), kind="stable")

    def share(positions):
        calls = [positions[lo:lo + CHUNK] for lo in range(0, len(positions), CHUNK)]
        return [fn(at, *kernel.tallies(ends[at])) for at in calls]

    return [r for part in _parallel_map(share, order, workers) for r in part]


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
