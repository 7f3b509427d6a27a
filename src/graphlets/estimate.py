"""Sampled and exact pattern-count estimation from edge-local tallies.

The estimator is Horvitz-Thompson over edges.  Every design is Poisson
sampling: edge e is drawn independently with inclusion probability
pi_e = min(1, c w_e), where w_e is 1 (uniform) or the edge core number
(kcore), and c sets the mean of pi to ``p`` or its sum to ``size``.  The
drawn edges are grouped by pi (a kcore design has one group per edge core
number, the capped ones merged at pi = 1); each group's unrestricted
per-edge tallies are summed and divided by its pi, and the overcounts are
folded out of the totals with the fixed correction weights.  The variance
estimate is the sum over drawn edges of (1 - pi) / pi^2 times the squared
contribution.
All accumulation is exact integer arithmetic (int64 summed in 32-bit halves
or ``LIMB``-bit limbs, Python ints only in the totals), so results are bitwise
identical for any worker count or batch split; floats appear only where a
sampled level's sums are divided by its pi, and exact counts stay integers.
The tallies come from ``local.ZoneKernel.tallies`` and the workers from
``local._parallel_map``; ``exact_counts`` takes its totals from the whole-graph
pass of ``wholegraph`` on the same map, not from this per-edge accumulation.

Per-edge contributions to each estimator slot are integral after scaling by
12 (the least common multiple of the correction denominators), which is what
makes the exact-integer variance accumulator possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from statistics import NormalDist

import numpy as np

from . import local, patterns
from .graph import Graph
from .local import _parallel_map, isum, zone_kernel
from .wholegraph import edge_totals

SCALE = 12  # all per-edge weighted contributions are integral at this scale
# bits per limb in ``_square_sums``: tallies are below 2**61 (C(n, 2) or (n/2)**2
# at most), so three limbs hold them when 3 LIMB >= 61; the row abs-sums of
# ``scaled_contributions`` (apply it to np.eye(17)) are at most 84 < 2**7, so a
# product of two limb images is below 2**(2 LIMB + 14) <= 2**62: 21 <= LIMB <= 24.
LIMB = 21


# ---------------------------------------------------------------------------
# sampling designs


@dataclass(frozen=True)
class SampleDesign:
    """How to draw edges: Poisson sampling with inclusion pi_e = min(1, c w_e).

    Exactly one of ``p`` and ``size`` must be set: the scale c makes the mean
    of pi equal ``p``, or the sum of pi (the expected sample size) equal
    ``size``.  ``weighting`` is ``uniform`` (w_e = 1) or ``kcore`` (w_e = min
    of the endpoint core numbers, at least 1 on every edge).  The same seed
    always reproduces the same sample, and a larger ``p`` or ``size`` with the
    same seed draws a superset of the smaller sample (set nesting).
    """

    p: float | None = None
    size: int | None = None
    weighting: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if (self.p is None) == (self.size is None):
            raise ValueError("set exactly one of p= and size=")
        if self.p is not None and not (0 < self.p <= 1):
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.size is not None and self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.weighting not in ("uniform", "kcore"):
            raise ValueError(f"unknown weighting {self.weighting!r}")


def _draw(g: Graph, design: SampleDesign) -> tuple[np.ndarray, np.ndarray]:
    """One Poisson draw: the drawn edge ids and every edge's inclusion pi.

    Edge e is drawn when its uniform key falls below pi_e.  The heaviest
    edges are capped at pi = 1 and c scales the rest to the remaining
    target; a uniform ``p`` design has pi_e = p exactly.
    """
    if design.weighting == "uniform" and design.p is not None:
        pi = np.full(g.m, design.p)
    else:
        w = np.ones(g.m) if design.weighting == "uniform" else g.edge_core().astype(np.float64)
        target = design.size if design.size is not None else design.p * g.m
        if target > g.m:
            raise ValueError(f"cannot draw {target:g} edges from {g.m} available")
        if not g.m:  # an edgeless graph: nothing to draw
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

    ``counts`` are the raw integer c(e) sums; slot 1 of each c(e) is 1, so
    ``counts[0]`` is the number of edges summed, repeats included.  ``sq`` are
    sums of squared 12-scaled contributions, feeding the variance estimator.
    ``inclusion`` is the probability pi shared by every edge summed here.
    """

    counts: list
    sq: list | None
    inclusion: Fraction | None

    def merge(self, other: "UnrestrictedAccumulator") -> "UnrestrictedAccumulator":
        if (self.sq is None) != (other.sq is None):
            raise ValueError("cannot merge accumulators of different shapes")
        if self.inclusion != other.inclusion:
            raise ValueError("cannot merge accumulators of different inclusions")
        return UnrestrictedAccumulator(
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            sq=None if self.sq is None else [a + b for a, b in zip(self.sq, other.sq)],
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
    Fractions or integer arrays.
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


def _square_sums(c) -> np.ndarray:
    """Exact sums of z^2 by slot (Python ints), z = ``scaled_contributions`` of each
    column of the 17 tally rows ``c`` in [0, 2**61): the map is linear, so c's limbs
    map to limbs Zj of z, and z^2 sums ZiZj 2^(LIMB (i + j)) over limb pairs."""
    x = np.asarray(c, dtype=np.int64)
    Z = np.zeros((3,) + x.shape, dtype=np.int64)
    for j in range(3):  # slots 1 and 2 are constants: their z stays 0
        Z[j, 2:] = scaled_contributions((x >> LIMB * j) & ((1 << LIMB) - 1))[2:]
    s = {(i, j): isum(Z[i] * Z[j]) for i in range(3) for j in range(i, 3)}
    return sum(s[i, j] << LIMB * (i + j) + (i < j) for i, j in s)  # i < j comes twice


def _accumulate_serial(g: Graph, rows: np.ndarray, inclusions: list,
                       with_sq: bool) -> list[UnrestrictedAccumulator]:
    """One accumulator per level: exact sums of c(e), and of z(e)^2 when
    ``with_sq``, over the (edge id, level) ``rows`` at that level, whose
    inclusion is ``inclusions[level]``.

    ``local.ZoneKernel.tallies`` gives c(e) for a chunk of edges at a time (Python
    ints for one edge), stacked into one (17, k) int64 array.  z^2 overflows
    int64 past r = 22,600, so ``_square_sums`` sums it in int64 limbs.
    """
    kernel = zone_kernel(g)
    counts = np.zeros((len(inclusions), 17), dtype=object)
    sq = np.zeros_like(counts)
    for i in range(0, len(rows), local.CHUNK):
        ids, level = rows[i:i + local.CHUNK].T
        c = np.array(kernel.tallies(g.edges[ids])[0], dtype=np.int64).reshape(17, -1)
        levels = np.unique(level).tolist()
        for q in levels:
            cq = c if len(levels) == 1 else c[:, level == q]
            counts[q] += isum(cq)
            if with_sq:
                sq[q] += _square_sums(cq)
    return [UnrestrictedAccumulator(counts=c, sq=s if with_sq else None, inclusion=q)
            for c, s, q in zip(counts.tolist(), sq.tolist(), inclusions)]


def _accumulate_levels(g: Graph, ids: np.ndarray, level: np.ndarray, inclusions: list,
                       workers: int, with_sq: bool) -> list[UnrestrictedAccumulator]:
    """``_accumulate_serial`` over ids[i] at level[i], from one parallel map.

    Rows go to the map in descending hardness d(u) + d(v), ties in place:
    this measured faster than the rows as given, shuffled or in id order.
    Every sum is an exact integer sum, so the result does not depend on the
    order of the rows, and is bitwise identical for any worker count or
    share split.
    """
    if len(ids) and (ids.min() < 0 or ids.max() >= g.m):
        raise ValueError("edge id out of range")
    kernel = zone_kernel(g)  # built here, so forked workers share its up-lists
    hardness = kernel.deg[g.edges[ids]].sum(axis=1)
    rows = np.column_stack([ids, level])[np.argsort(-hardness, kind="stable")]
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
    ``k_used`` counts the edges summed, repeats included (m when exact).
    ``clamped`` flags slots whose raw estimate was negative and got clamped
    to zero.
    """

    X: list
    variance: list | None
    p: float | None
    k_used: int
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
    k_used = sum(a.counts[0] for a in levels)
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
        k_used=k_used, clamped=clamped,
    )


def exact_counts(g: Graph, workers: int = 1) -> GraphletEstimate:
    """Exact counts of all seventeen patterns from one whole-graph pass.

    The pass (``wholegraph.edge_totals``) splits its triangle listing and its
    wedges over ``workers`` through one parallel map; the counts are the same
    for any worker count.
    """
    acc = UnrestrictedAccumulator(counts=edge_totals(g, workers), sq=None,
                                  inclusion=Fraction(1))
    return estimate_counts(g, acc)


def sample_and_estimate(
    g: Graph, design: SampleDesign, workers: int = 1
) -> GraphletEstimate:
    """Sample, accumulate, estimate: the one-call path used by the CLI.

    The drawn edges are grouped by inclusion probability, and one parallel
    map accumulates every group's sums.
    """
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
# graphlet frequency distributions

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
