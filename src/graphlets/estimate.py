"""Sampled and exact pattern-count estimation from edge-local tallies.

The estimator is Horvitz-Thompson over edges.  Every design is Poisson
sampling: edge e is drawn independently with inclusion probability
pi_e = min(1, c w_e), where w_e is 1, the edge core number, or a custom
weight, and c sets the mean of pi to ``p`` or its sum to ``size``.  The
drawn edges are grouped by pi; each group's unrestricted per-edge tallies
are summed and divided by its pi, and the overcounts are folded out of the
totals with the fixed correction weights.  The variance estimate is
sum over drawn edges of (1 - pi) / pi^2 times the squared contribution.
All accumulation is exact integer arithmetic (128-bit is a floor, Python
ints do not overflow), so results are bitwise identical for any worker
count or batch split; floats appear only where a sampled level's sums are
divided by its pi, and exact counts stay integers.  ``exact_counts`` takes
its totals from the whole-graph pass of ``wholegraph``, which splits over the
same parallel map, not from this per-edge accumulation.

Per-edge contributions to each estimator slot are integral after scaling by
12 (the least common multiple of the correction denominators), which is what
makes the exact-integer variance accumulator possible.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from statistics import NormalDist

import numpy as np

from . import patterns
from .graph import Graph
from .local import _SU, _SV, _T, CHUNK, edge_tallies, isum, zone_kernel
from .wholegraph import edge_totals

SCALE = 12  # all per-edge weighted contributions are integral at this scale


# ---------------------------------------------------------------------------
# sampling designs


@dataclass(frozen=True)
class SampleDesign:
    """How to draw edges: Poisson sampling with inclusion pi_e = min(1, c w_e).

    Exactly one of ``p`` and ``size`` must be set: the scale c makes the mean
    of pi equal ``p``, or the sum of pi (the expected sample size) equal
    ``size``.  ``weighting`` is ``uniform`` (w_e = 1), ``kcore`` (w_e = min
    of the endpoint core numbers), or ``custom`` with explicit nonnegative
    ``weights``; zero-weight edges are never drawn.  The same seed always
    reproduces the same sample, and a larger ``p`` or ``size`` with the same
    seed draws a superset of the smaller sample (set nesting).
    """

    p: float | None = None
    size: int | None = None
    weighting: str = "uniform"
    weights: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.p is None) == (self.size is None):
            raise ValueError("set exactly one of p= and size=")
        if self.p is not None and not (0 < self.p <= 1):
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.size is not None and self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.weighting not in ("uniform", "kcore", "custom"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if (self.weighting == "custom") != (self.weights is not None):
            raise ValueError("custom weighting requires weights=, others forbid it")


def _design_weights(g: Graph, design: SampleDesign) -> np.ndarray:
    if design.weighting == "uniform":
        return np.ones(g.m)
    if design.weighting == "kcore":
        return g.edge_core().astype(np.float64)
    w = np.asarray(design.weights, dtype=np.float64)
    if w.shape != (g.m,):
        raise ValueError(f"weights must have length m={g.m}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and non-negative")
    if w.sum() == 0:
        raise ValueError("weights sum to zero")
    return w


def _draw(g: Graph, design: SampleDesign) -> tuple[np.ndarray, np.ndarray]:
    """One Poisson draw: the drawn edge ids and every edge's inclusion pi.

    Edge e is drawn when its uniform key falls below pi_e.  The heaviest
    edges are capped at pi = 1 and c scales the rest to the remaining
    target; a uniform ``p`` design has pi_e = p exactly.
    """
    if design.weighting == "uniform" and design.p is not None:
        pi = np.full(g.m, design.p)
    else:
        w = _design_weights(g, design)
        target = design.size if design.size is not None else design.p * g.m
        avail = int(np.count_nonzero(w))
        if target > avail:
            raise ValueError(f"cannot draw {target:g} edges from {avail} available")
        if not avail:  # an edgeless graph: nothing to draw
            return np.empty(0, dtype=np.int64), w
        desc = np.sort(w)[::-1]
        tail = np.cumsum(desc[::-1])[::-1]  # tail[j]: weight left after j caps
        # the fewest caps j that leave the next-heaviest edge at pi <= 1
        j = int(np.argmax((target - np.arange(g.m)) * desc <= tail))
        pi = np.minimum(1.0, w * ((target - j) / tail[j]))
    keys = np.random.default_rng(design.seed).random(g.m)
    return np.flatnonzero(keys < pi).astype(np.int64), pi


def sample_edges(g: Graph, design: SampleDesign) -> np.ndarray:
    """Draw edge ids per the design.  Deterministic in the design seed."""
    return _draw(g, design)[0]


# ---------------------------------------------------------------------------
# exact-integer accumulation


@dataclass
class UnrestrictedAccumulator:
    """Exact sums of per-edge tallies over edges drawn with one inclusion.

    ``counts`` are the raw integer c(e) sums.  ``sq`` are sums of squared
    12-scaled contributions, feeding the variance estimator.  ``inclusion``
    is the probability pi shared by every edge summed here.
    """

    counts: list
    sq: list | None
    k_used: int
    inclusion: Fraction | None

    def merge(self, other: "UnrestrictedAccumulator") -> "UnrestrictedAccumulator":
        if (self.sq is None) != (other.sq is None):
            raise ValueError("cannot merge accumulators of different shapes")
        return UnrestrictedAccumulator(
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            sq=None if self.sq is None else [a + b for a, b in zip(self.sq, other.sq)],
            k_used=self.k_used + other.k_used,
            inclusion=self.inclusion,
        )


def scaled_contributions(c) -> tuple:
    """12x the contribution of tally vector c to each estimator slot.

    These linear forms, cleared of denominators, are the one statement of
    the chain's coefficients: applied to one edge's tallies they give its
    integral per-edge contributions, and applied to summed totals (divided by
    12, plus constants) they are ``_chain``.  Slots 1 and 2 are constants and
    get 0; the complement slots 6 and 17 carry the negated level sums, so
    variance propagates through the complements too.  ``c`` may hold ints,
    Fractions or arrays of Python ints.
    """
    z = [0] * 17
    z[2] = 4 * c[2]
    z[3] = 6 * c[3]
    z[4] = 12 * c[4]
    z[5] = -(z[2] + z[3] + z[4])
    z[6] = 2 * c[6]
    z[7] = 12 * (c[7] - c[6])
    z[8] = 6 * c[8] - 24 * c[7] + 24 * c[6]
    z[9] = 3 * c[9]
    z[10] = 4 * c[10] - 2 * c[8] + 8 * c[7] - 8 * c[6]
    z[11] = 12 * (c[11] - c[9])
    z[12] = 4 * c[13] - 2 * c[8] + 8 * c[7] - 8 * c[6]
    z[13] = 6 * c[12] - 12 * (c[11] - c[9])
    z[14] = 6 * (c[15] - c[6] - c[8] + c[9] - 2 * c[11])
    z[15] = 12 * c[14] - 2 * z[14]
    z[16] = -sum(z[6:16])
    return tuple(z)


def _resolve_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _accumulate_serial(g: Graph, rows: np.ndarray, inclusions: list,
                       with_sq: bool) -> list[UnrestrictedAccumulator]:
    """One accumulator per level: exact sums of c(e), and of z(e)^2 when
    ``with_sq``, over the (edge id, level) ``rows`` at that level, whose
    inclusion is ``inclusions[level]``.

    ``local.ZoneKernel`` gives (t, K_e, C_e) for a chunk of edges at a time, and
    their tallies and scaled contributions are evaluated together.  The squares go
    through Python ints: z reaches about 6 r^2, so z^2 overflows int64 past r = 22,600.
    """
    kernel = zone_kernel(g)
    counts = [[0] * 17 for _ in inclusions]
    sq = [[0] * 17 for _ in inclusions]
    for i in range(0, len(rows), CHUNK):
        ids, level = rows[i:i + CHUNK].T
        ends = g.edges[ids].astype(np.int64)
        du, dv = (g.indptr[ends + 1] - g.indptr[ends]).T
        t, M, _ = kernel.tallies(ends)
        c = edge_tallies(t, M[_T, _T], M[_SU, _SV] + M[_SV, _SU], du, dv, g.n, g.m)
        for q in np.unique(level).tolist():
            at = level == q
            cq = [x[at] for x in c]
            counts[q] = [acc + isum(x) for acc, x in zip(counts[q], cq)]
            if with_sq:
                z = scaled_contributions([x.astype(object) for x in cq])
                sq[q] = [acc + int(np.sum(x * x)) for acc, x in zip(sq[q], z)]
    sizes = np.bincount(rows[:, 1], minlength=len(inclusions)).tolist()
    return [UnrestrictedAccumulator(counts=c, sq=s if with_sq else None, k_used=k,
                                    inclusion=q)
            for c, s, k, q in zip(counts, sq, sizes, inclusions)]


def _cpus() -> set:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def _current_cpu() -> int | None:
    """The CPU this thread last ran on, where Linux's /proc tells it."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _start_on(cpu: int | None, cpus: set):
    """Move this process to ``cpu``, then let it run on any of ``cpus`` again.

    A forked child starts on its parent's CPU, and the scheduler can leave
    both there, taking turns, for a second or more; one move at the start
    runs the shares side by side.
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, cpus)
    except OSError:  # the move is only a hint
        pass


def _run_share(fn, share: np.ndarray, fd: int, cpu: int | None, cpus: set):
    """In a forked child: start on ``cpu``, pickle (True, fn(share), None), or
    (False, error, traceback) on any failure, to ``fd``; then end the process,
    so it never returns into the caller's code or flushes its stdio buffers."""
    try:
        _start_on(cpu, cpus)
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
    ``fn`` and ``ids`` copy-on-write, starts on a CPU other than this
    process's, and pickles its result back through a pipe (its own process
    never returns from the fork).  A child's exception is raised here; if
    this process fails, its children are killed.  Every child is reaped
    before the call returns.
    k = 1, fewer than two ids per share, or a platform without ``os.fork``
    runs ``fn`` on all of ``ids`` in this process.
    """
    cpus = _cpus()
    k = min(workers, len(cpus))
    if k == 1 or len(ids) < 2 * k or not hasattr(os, "fork"):
        return [fn(ids)]
    here = _current_cpu()
    spare = sorted(cpus - {here}) if here is not None else [None]  # where children start
    pids, reads = [], []
    finished = False
    try:
        for w in range(1, k):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, ids[w::k], wr, spare[(w - 1) % len(spare)], cpus)
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


def _hardest_first(g: Graph, ids: np.ndarray) -> np.ndarray:
    """The order of ``ids`` by descending hardness d(u) + d(v), ties in place:
    interleaved shares of ids in this order get about equal work."""
    ends = g.edges[ids]
    return np.argsort(-(g.indptr[ends + 1] - g.indptr[ends]).sum(axis=1), kind="stable")


def _accumulate_levels(g: Graph, ids: np.ndarray, level: np.ndarray, inclusions: list,
                       workers: int, with_sq: bool) -> list[UnrestrictedAccumulator]:
    """``_accumulate_serial`` over ids[i] at level[i], from one parallel map.

    Rows go to the map in descending hardness order, so its interleaved
    shares get about equal work; since every sum is an exact integer sum the
    result is bitwise identical for any worker count or share split.
    """
    if len(ids) and (ids.min() < 0 or ids.max() >= g.m):
        raise ValueError("edge id out of range")
    rows = np.column_stack([ids, level])[_hardest_first(g, ids)]
    zone_kernel(g)  # built here, so forked workers share its up-lists
    parts = _parallel_map(lambda part: _accumulate_serial(g, part, inclusions, with_sq),
                          rows, workers)
    return [reduce(UnrestrictedAccumulator.merge, accs) for accs in zip(*parts)]


def accumulate(
    g: Graph,
    edge_ids,
    workers: int = 1,
    with_sq: bool = False,
    inclusion: Fraction | None = None,
) -> UnrestrictedAccumulator:
    """Sum per-edge tallies over ``edge_ids`` (repeats allowed); bitwise
    identical for any worker count."""
    workers = _resolve_workers(workers)
    ids = np.asarray(edge_ids, dtype=np.int64)
    [acc] = _accumulate_levels(g, ids, np.zeros(len(ids), dtype=np.int64), [inclusion],
                               workers, with_sq)
    return acc


# ---------------------------------------------------------------------------
# the estimator chain


@dataclass
class GraphletEstimate:
    """Estimated (or exact) counts for all seventeen patterns.

    ``X`` holds ints when the estimate is exact (full sample) and floats
    otherwise, indexed by pattern id - 1.  ``variance`` entries are the
    plug-in sampling variances (zero at full sampling, None when the tallies
    were accumulated without squares).  ``p`` is the inclusion probability
    shared by every sampled edge, None when the sample mixes several.
    ``clamped`` flags slots whose raw estimate was negative and got clamped
    to zero.
    """

    X: list
    variance: list | None
    p: float | None
    k_used: int
    n: int
    m: int
    clamped: list = field(default_factory=lambda: [False] * 17)


def _chain(totals, n: int, m: int) -> list[Fraction]:
    """The estimator chain: the constant slots plus ``scaled_contributions``
    of the weighted unrestricted totals, divided by 12.

    The chain is linear in the totals (see docs/coefficients.md), so it is
    the per-edge contribution map applied to their sums, and it commutes with
    expectation.
    """
    X = [Fraction(z, SCALE) for z in scaled_contributions(totals)]
    X[0] += m
    X[1] += math.comb(n, 2) - m
    X[5] += math.comb(n, 3)
    X[16] += math.comb(n, 4)
    return X


def estimate_counts(g: Graph, acc) -> GraphletEstimate:
    """Turn accumulated tallies into the 17 pattern estimates.

    ``acc`` is one accumulator or a list of them, one per inclusion level.
    Each total is the Horvitz-Thompson sum over levels of counts / pi, and
    each variance the sum of (1 - pi) / pi^2 * sq / 144; pi = 1 levels are
    summed exactly and each pi < 1 level is rounded to float once.  The
    chain runs in exact rational arithmetic on those totals; negative slots
    are clamped to zero in the report (flagged) but the complement slots are
    computed from the raw linear values so the level sums stay exact
    whenever no clamp fires.
    """
    levels = [acc] if isinstance(acc, UnrestrictedAccumulator) else list(acc)
    if any(a.inclusion is None or not (0 < a.inclusion <= 1) for a in levels):
        raise ValueError("accumulator lacks a valid inclusion probability")

    # an exact sum over many distinct pi would grow its denominators
    sampled = [a for a in levels if a.inclusion < 1]
    totals = [
        sum(a.counts[i] for a in levels if a.inclusion == 1)
        + Fraction(math.fsum(a.counts[i] / float(a.inclusion) for a in sampled))
        for i in range(17)
    ]
    raw = _chain(totals, g.n, g.m)
    k_used = sum(a.k_used for a in levels)
    exact = k_used == g.m and all(a.inclusion == 1 for a in levels)
    clamped = [x < 0 for x in raw]
    out = []
    for x in raw:
        x = max(x, Fraction(0))
        if exact:
            if x.denominator != 1:
                raise ArithmeticError("exact counts came out non-integral")
            out.append(int(x))
        else:
            out.append(float(x))

    variance = None  # pi = 1 levels add none
    if all(a.sq is not None for a in sampled):
        factors = [(1 - a.inclusion) / (a.inclusion ** 2 * SCALE * SCALE) for a in sampled]
        variance = [math.fsum(float(f * a.sq[i]) for f, a in zip(factors, sampled))
                    for i in range(17)]

    return GraphletEstimate(
        X=out, variance=variance,
        p=float(levels[0].inclusion) if len(levels) == 1 else None,
        k_used=k_used, n=g.n, m=g.m, clamped=clamped,
    )


def exact_counts(g: Graph, workers: int = 1) -> GraphletEstimate:
    """Exact counts of all seventeen patterns from one whole-graph pass.

    The pass (``wholegraph.edge_totals``) splits its triangle listing and its
    wedges over ``workers`` through one parallel map; the counts are the same
    for any worker count.
    """
    acc = UnrestrictedAccumulator(counts=edge_totals(g, _resolve_workers(workers)),
                                  sq=None, k_used=g.m, inclusion=Fraction(1))
    return estimate_counts(g, acc)


def sample_and_estimate(
    g: Graph, design: SampleDesign, workers: int = 1
) -> GraphletEstimate:
    """Sample, accumulate, estimate: the one-call path used by the CLI.

    The drawn edges are grouped by inclusion probability, and one parallel
    map accumulates every group's sums.
    """
    workers = _resolve_workers(workers)
    ids, pi = _draw(g, design)
    levels, level = np.unique(pi[ids], return_inverse=True)
    return estimate_counts(g, _accumulate_levels(
        g, ids, level, [Fraction(q) for q in levels], workers, with_sq=True))


def confidence_bounds(
    est: GraphletEstimate, alpha: float = 0.05
) -> tuple[list, list]:
    """Normal-approximation bounds X -+ z * sqrt(var), lower clamped at 0.

    A slot with zero variance (every slot at full sampling) gets the point
    estimate itself as both bounds, so exact integer counts stay exact.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if est.variance is None:
        raise ValueError("estimate has no variance (accumulated without squares)")
    z = 1.96 if abs(alpha - 0.05) < 1e-12 else NormalDist().inv_cdf(1 - alpha / 2)
    lb, ub = [], []
    for x, v in zip(est.X, est.variance):
        if v == 0:
            lb.append(x)
            ub.append(x)
            continue
        h = z * math.sqrt(v)
        lb.append(max(0.0, float(x) - h))
        ub.append(float(x) + h)
    return lb, ub


# ---------------------------------------------------------------------------
# distributions and error measures

GFD_VARIANTS = {
    "connected": patterns.CONNECTED_K4,
    "disconnected": patterns.DISCONNECTED_K4,
    "combined": patterns.ALL_K4,
}


def gfd(X, variant: str = "combined") -> list[float]:
    """Normalized frequency distribution over a 4-vertex pattern subset."""
    if variant not in GFD_VARIANTS:
        raise ValueError(f"variant must be one of {sorted(GFD_VARIANTS)}")
    vals = [max(float(X[pid - 1]), 0.0) for pid in GFD_VARIANTS[variant]]
    total = sum(vals)
    if total <= 0:
        raise ValueError(f"all {variant} counts are zero; no distribution")
    return [v / total for v in vals]


def ks_statistic(a, b) -> float:
    """Max cumulative gap between two distributions in fixed pattern order."""
    if len(a) != len(b):
        raise ValueError("distributions must have equal length")
    for name, dist in (("first", a), ("second", b)):
        if abs(sum(dist) - 1.0) > 1e-9:
            raise ValueError(f"{name} argument does not sum to 1")
    gap, ca, cb = 0.0, 0.0, 0.0
    for x, y in zip(a, b):
        ca += x
        cb += y
        gap = max(gap, abs(ca - cb))
    return gap


def relative_error(X, Y) -> list:
    """Per-pattern |X - Y| / Y; where Y is zero, an exact-match boolean."""
    out = []
    for x, y in zip(X, Y):
        if y == 0:
            out.append(x == 0)
        else:
            out.append(abs(float(x) - float(y)) / float(y))
    return out
