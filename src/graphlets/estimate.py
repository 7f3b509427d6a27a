"""Sampled and exact pattern-count estimation from edge-local tallies.

The estimator is Horvitz-Thompson over edges: sample a set of edges, sum the
unrestricted per-edge tallies, divide by the inclusion probability, and fold
the overcounts out with the fixed correction weights.  All accumulation is
exact integer arithmetic (128-bit is a floor, Python ints do not overflow),
so results are bitwise identical for any worker count or batch split; floats
appear only in the final reported numbers.

Per-edge contributions to each estimator slot are integral after scaling by
12 (the least common multiple of the correction denominators), which is what
makes the exact-integer variance accumulator possible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from . import patterns
from .graph import Graph
from .local import VertexMarker, unrestricted_counts

SCALE = 12  # all per-edge weighted contributions are integral at this scale


# ---------------------------------------------------------------------------
# sampling designs


@dataclass(frozen=True)
class SampleDesign:
    """How to draw edges: Bernoulli by probability or a fixed-size draw.

    Exactly one of ``p`` and ``size`` must be set.  ``weighting`` is
    ``uniform``, ``kcore`` (per-edge weight min of endpoint core numbers), or
    ``custom`` with explicit nonnegative ``weights``.  ``replacement`` only
    applies to fixed-size draws; probability mode is independent per-edge
    inclusion.  The same seed always reproduces the same sample, and for
    fixed-size draws without replacement a larger ``size`` with the same seed
    extends the smaller sample (prefix nesting).
    """

    p: float | None = None
    size: int | None = None
    replacement: bool = False
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

    def is_uniform(self) -> bool:
        return self.weighting == "uniform"


def _design_weights(g: Graph, design: SampleDesign) -> np.ndarray | None:
    if design.weighting == "uniform":
        return None
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


def sample_edges(g: Graph, design: SampleDesign) -> np.ndarray:
    """Draw edge ids per the design.  Deterministic in the design seed."""
    rng = np.random.default_rng(design.seed)
    w = _design_weights(g, design)

    if design.p is not None and w is None and not design.replacement:
        # Bernoulli: independent per-edge coin flips
        return np.flatnonzero(rng.random(g.m) < design.p).astype(np.int64)

    k = design.size if design.size is not None else max(1, round(design.p * g.m))
    if design.replacement:
        probs = None if w is None else w / w.sum()
        return rng.choice(g.m, size=k, replace=True, p=probs).astype(np.int64)

    avail = g.m if w is None else int(np.count_nonzero(w))
    if k > avail:
        raise ValueError(f"cannot draw {k} distinct edges from {avail} available")
    if w is None:
        return rng.permutation(g.m)[:k].astype(np.int64)
    # weighted sequential order via exponential keys; zero weights never drawn
    keys = np.full(g.m, np.inf)
    nz = w > 0
    keys[nz] = rng.exponential(size=int(nz.sum())) / w[nz]
    return np.argsort(keys, kind="stable")[:k].astype(np.int64)


# ---------------------------------------------------------------------------
# exact-integer accumulation


@dataclass
class UnrestrictedAccumulator:
    """Exact sums of per-edge tallies over the processed draws.

    ``counts`` are the raw c(e) sums (ints; exact Fractions for weighted
    designs).  ``sq`` are sums of squared 12-scaled contributions, feeding
    the variance estimator.  ``inclusion`` is the scalar effective inclusion
    probability for uniform designs, None for weighted ones.
    """

    counts: list
    sq: list | None
    k_used: int
    inclusion: Fraction | None
    weighted: bool = False

    def merge(self, other: "UnrestrictedAccumulator") -> "UnrestrictedAccumulator":
        if self.weighted != other.weighted or (self.sq is None) != (other.sq is None):
            raise ValueError("cannot merge accumulators of different shapes")
        return UnrestrictedAccumulator(
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            sq=None if self.sq is None else [a + b for a, b in zip(self.sq, other.sq)],
            k_used=self.k_used + other.k_used,
            inclusion=self.inclusion,
            weighted=self.weighted,
        )


def scaled_contributions(c) -> tuple[int, ...]:
    """12x the per-edge contribution of tally vector c to each estimator slot.

    These are the linear forms behind the estimator chain, cleared of
    denominators; each slot is an exact integer and the three complement
    slots (1, 2 constants; 6 and 17) carry the negated level sums so that
    variance propagates through the complements too.
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


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get("GRAPHLET_WORKERS", "1"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _accumulate_serial(g: Graph, edge_ids, with_sq: bool) -> tuple[list, list | None]:
    marker = VertexMarker(g.n)
    counts = [0] * 17
    sq = [0] * 17 if with_sq else None
    for e in edge_ids:
        c = unrestricted_counts(g, int(e), marker)
        for i in range(17):
            counts[i] += c[i]
        if with_sq:
            z = scaled_contributions(c)
            for i in range(17):
                sq[i] += z[i] * z[i]
    return counts, sq


# state handed to forked workers (copy-on-write; never pickled)
_FORK_STATE: dict = {}


def _fork_task(bounds: tuple[int, int]):
    lo, hi = bounds
    return _FORK_STATE["fn"](_FORK_STATE["ids"][lo:hi])


def _parallel_map(fn, ids: np.ndarray, workers: int) -> list:
    """``fn`` over dynamic batches of ``ids``, one result per batch.

    Forked workers inherit ``fn`` and ``ids`` copy-on-write, so neither is
    pickled, and batches come back in completion order.  One worker, fewer
    than two ids per worker, or a platform without ``fork`` runs ``fn`` on
    all of ``ids`` in this process.
    """
    if workers == 1 or len(ids) < 2 * workers:
        return [fn(ids)]
    import multiprocessing as mp  # deferred: serial runs never pay its ~1 MB of RSS

    if "fork" not in mp.get_all_start_methods():
        return [fn(ids)]
    batch = max(64, len(ids) // (16 * workers))
    cuts = list(range(0, len(ids), batch)) + [len(ids)]
    _FORK_STATE.update(fn=fn, ids=ids)
    try:
        with mp.get_context("fork").Pool(workers) as pool:
            return list(pool.imap_unordered(_fork_task, zip(cuts[:-1], cuts[1:])))
    finally:
        _FORK_STATE.clear()


def accumulate(
    g: Graph,
    edge_ids,
    workers: int | None = 1,
    with_sq: bool = False,
    inclusion: Fraction | None = None,
) -> UnrestrictedAccumulator:
    """Sum per-edge tallies over ``edge_ids`` (repeats allowed).

    Edges are processed in descending hardness order, split into dynamic
    batches across workers; since every total is an exact integer sum the
    result is bitwise identical for any worker count.
    """
    workers = _resolve_workers(workers)
    ids = np.asarray(edge_ids, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= g.m):
        raise ValueError("edge id out of range")
    hardness = g.edge_hardness()
    ids = ids[np.argsort(-hardness[ids], kind="stable")] if len(ids) else ids

    parts = _parallel_map(lambda part: _accumulate_serial(g, part, with_sq), ids, workers)
    counts = [sum(col) for col in zip(*(c for c, _ in parts))]
    sq = [sum(col) for col in zip(*(q for _, q in parts))] if with_sq else None
    return UnrestrictedAccumulator(
        counts=counts, sq=sq, k_used=len(ids), inclusion=inclusion
    )


def accumulate_weighted(g: Graph, edge_ids, factors) -> UnrestrictedAccumulator:
    """Weighted-design accumulation: each draw scaled by its exact factor."""
    marker = VertexMarker(g.n)
    counts = [Fraction(0)] * 17
    for e, f in zip(edge_ids, factors):
        c = unrestricted_counts(g, int(e), marker)
        for i in range(17):
            counts[i] += f * c[i]
    return UnrestrictedAccumulator(
        counts=counts, sq=None, k_used=len(edge_ids), inclusion=None, weighted=True
    )


# ---------------------------------------------------------------------------
# the estimator chain


@dataclass
class GraphletEstimate:
    """Estimated (or exact) counts for all seventeen patterns.

    ``X`` holds ints when the estimate is exact (full sample) and floats
    otherwise, indexed by pattern id - 1.  ``variance`` entries are the
    plug-in sampling variances (zero at full sampling, None for weighted
    designs).  ``clamped`` flags slots whose raw estimate was negative and
    got clamped to zero.
    """

    X: list
    variance: list | None
    p: float | None
    k_used: int
    n: int
    m: int
    clamped: list = field(default_factory=lambda: [False] * 17)

    def as_dict(self) -> dict:
        return {patterns.NAMES[i + 1]: self.X[i] for i in range(17)}


def _chain(totals, q: Fraction, n: int, m: int) -> list[Fraction]:
    """The correction chain from unrestricted totals to pattern estimates.

    Correction weights are 1/multiplicity of each tally against its primary
    pattern (see docs/coefficients.md); overcounting patterns are subtracted
    via the already-computed slots.  Everything is linear in the totals, so
    the chain commutes with expectation.
    """
    X = [Fraction(0)] * 17
    X[0] = Fraction(m)
    X[1] = Fraction(math.comb(n, 2) - m)
    X[2] = q * totals[2] / 3
    X[3] = q * totals[3] / 2
    X[4] = q * totals[4]
    X[5] = math.comb(n, 3) - X[2] - X[3] - X[4]
    X[6] = q * totals[6] / 6
    X[7] = q * (totals[7] - totals[6])
    X[8] = (q * totals[8] - 4 * X[7]) / 2
    X[9] = q * totals[9] / 4
    X[10] = (q * totals[10] - X[8]) / 3
    X[11] = q * (totals[11] - totals[9])
    X[12] = (q * totals[13] - X[8]) / 3
    X[13] = (q * totals[12] - 2 * X[11]) / 2
    X[14] = (q * totals[15] - 6 * X[6] - 4 * X[7] - 2 * X[8] - 4 * X[9] - 2 * X[11]) / 2
    X[15] = q * totals[14] - 2 * X[14]
    X[16] = math.comb(n, 4) - sum(X[6:16])
    return X


def estimate_counts(g: Graph, acc: UnrestrictedAccumulator) -> GraphletEstimate:
    """Turn accumulated tallies into the 17 pattern estimates.

    The chain runs in exact rational arithmetic; negative slots are clamped
    to zero in the report (flagged) but the complement slots are computed
    from the raw linear values so the level sums stay exact whenever no
    clamp fires.
    """
    if acc.weighted:
        q = Fraction(1)  # inclusion already folded into the weighted counts
        p_out = None
    else:
        if acc.inclusion is None or not (0 < acc.inclusion <= 1):
            raise ValueError("accumulator lacks a valid inclusion probability")
        q = 1 / acc.inclusion
        p_out = float(acc.inclusion)

    raw = _chain(acc.counts, q, g.n, g.m)
    exact = not acc.weighted and acc.inclusion == 1
    clamped = [x < 0 for x in raw]
    out = []
    for x, hit in zip(raw, clamped):
        x = max(x, Fraction(0))
        if exact:
            if x.denominator != 1:
                raise ArithmeticError("exact counts came out non-integral")
            out.append(int(x))
        else:
            out.append(float(x))

    variance = None
    if exact:
        variance = [0.0] * 17  # no sampling, no sampling variance
    elif acc.sq is not None and acc.inclusion is not None:
        factor = (1 - acc.inclusion) / acc.inclusion ** 2
        variance = [float(factor * s / (SCALE * SCALE)) for s in acc.sq]

    return GraphletEstimate(
        X=out, variance=variance, p=p_out, k_used=acc.k_used,
        n=g.n, m=g.m, clamped=clamped,
    )


def exact_counts(g: Graph, workers: int | None = 1) -> GraphletEstimate:
    """Exact counts of all seventeen patterns: full accumulation at p = 1."""
    acc = accumulate(g, np.arange(g.m), workers=workers, inclusion=Fraction(1))
    return estimate_counts(g, acc)


def sample_and_estimate(
    g: Graph, design: SampleDesign, workers: int | None = 1, with_variance: bool = True
) -> GraphletEstimate:
    """Sample, accumulate, estimate: the one-call path used by the CLI."""
    ids = sample_edges(g, design)
    if design.is_uniform():
        if design.p is not None and not design.replacement:
            inclusion = Fraction(design.p)
        else:
            inclusion = Fraction(len(ids), g.m)
        acc = accumulate(g, ids, workers=workers, with_sq=with_variance,
                         inclusion=inclusion)
        return estimate_counts(g, acc)

    w = _design_weights(g, design)
    total = sum(Fraction(x) for x in w)
    k = len(ids)
    if design.replacement:
        factors = [total / (k * Fraction(w[int(e)])) for e in ids]
    else:
        # without-replacement weighted inclusion has no closed form; use the
        # Poisson-approximate per-edge inclusion probability (documented)
        factors = []
        for e in ids:
            qe = float(Fraction(w[int(e)]) / total)
            pi = 1.0 - (1.0 - qe) ** k
            factors.append(1 / Fraction(pi))
    acc = accumulate_weighted(g, ids, factors)
    return estimate_counts(g, acc)


def confidence_bounds(
    est: GraphletEstimate, alpha: float = 0.05
) -> tuple[list[float], list[float]]:
    """Normal-approximation bounds X -+ z * sqrt(var), lower clamped at 0.

    At full sampling the variances are zero and both bounds collapse onto
    the point estimate.  Weighted designs carry no variance estimate.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if est.variance is None:
        raise ValueError("estimate has no variance (weighted design?)")
    z = 1.96 if abs(alpha - 0.05) < 1e-12 else NormalDist().inv_cdf(1 - alpha / 2)
    lb, ub = [], []
    for x, v in zip(est.X, est.variance):
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
