"""Adaptive sampling: grow the edge sample until estimates stop moving.

Each round draws a shrinking fraction of the still-unsampled edges (the
fraction halves every round), re-estimates from the cumulative sample, and
compares against the previous round's estimate under a configurable loss.
The loop stops when the change drops to the tolerance, the round budget runs
out, or the sample exhausts the edge set (at which point the answer is the
exact count).  Draw order comes from one seeded permutation, so the
cumulative samples are nested and the whole trajectory is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .estimate import (
    GraphletEstimate,
    UnrestrictedAccumulator,
    accumulate,
    estimate_counts,
    gfd,
    ks_statistic,
)
from .graph import Graph

LOSSES = ("max_rel", "ks", "l1")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stopping tolerance ``beta``, loss choice, and budget controls.

    ``phi0`` is the first-round sampling fraction; when omitted it defaults
    to (1 + eps)/sqrt(m).  ``eps`` regularizes the comparison (stop when
    delta - eps <= beta).  ``t_max`` caps the number of rounds.
    """

    beta: float = 0.01
    loss: str = "max_rel"
    phi0: float | None = None
    eps: float = 1e-6
    t_max: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.beta <= 1):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.phi0 is not None and not (0 < self.phi0 <= 1):
            raise ValueError(f"phi0 must be in (0, 1], got {self.phi0}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


@dataclass
class AdaptiveResult:
    estimate: GraphletEstimate
    converged: bool
    reason: str  # "converged" | "exhausted" | "t_max"
    iterations: int
    sampled_edges: int
    delta: float
    trace: list = field(default_factory=list)


def _delta_max_rel(prev, cur) -> float:
    """Largest relative change over the 4-vertex pattern slots (ids 7..17).

    A slot that appears (zero before, nonzero now) counts as a full unit of
    change; slots zero on both sides contribute nothing.
    """
    worst = 0.0
    for i in range(6, 17):
        a, b = float(prev[i]), float(cur[i])
        if a == 0:
            worst = max(worst, 0.0 if b == 0 else 1.0)
        else:
            worst = max(worst, abs(b - a) / a)
    return worst


def _delta_gfd(prev, cur, kind: str) -> float:
    try:
        da, db = gfd(prev, "combined"), gfd(cur, "combined")
    except ValueError:
        return 1.0  # a degenerate all-zero side means no basis to stop
    if kind == "l1":
        return sum(abs(x - y) for x, y in zip(da, db))
    return ks_statistic(da, db)


def _loss(prev_X, cur_X, kind: str) -> float:
    if kind == "max_rel":
        return _delta_max_rel(prev_X, cur_X)
    return _delta_gfd(prev_X, cur_X, kind)


def adaptive_estimate(
    g: Graph, config: AdaptiveConfig | None = None, workers: int | None = 1
) -> AdaptiveResult:
    """Run the halving refinement loop and return the final estimate."""
    cfg = config or AdaptiveConfig()
    m = g.m
    phi = cfg.phi0 if cfg.phi0 is not None else min(1.0, (1.0 + cfg.eps) / math.sqrt(m))
    order = np.random.default_rng(cfg.seed).permutation(m)

    cum: UnrestrictedAccumulator | None = None
    used = 0
    prev_X = None
    est = None
    delta = 1.0
    trace: list[dict] = []
    t = 0
    reason = "t_max"

    while True:
        t += 1
        k_new = min(m - used, max(1, math.ceil(phi * (m - used))))
        fresh = order[used : used + k_new]
        used += k_new
        part = accumulate(g, fresh, workers=workers, with_sq=True,
                          inclusion=None)
        cum = part if cum is None else cum.merge(part)
        cum.inclusion = Fraction(used, m)
        est = estimate_counts(g, cum)

        delta = 1.0 if prev_X is None else _loss(prev_X, est.X, cfg.loss)
        trace.append(
            {
                "round": t,
                "new_edges": int(k_new),
                "sampled": int(used),
                "phi": phi,
                "delta": delta,
                "X": list(est.X),
            }
        )
        prev_X = est.X

        if used >= m:
            reason = "exhausted"
            break
        if delta - cfg.eps <= cfg.beta and t >= 2:
            reason = "converged"
            break
        if t >= cfg.t_max:
            reason = "t_max"
            break
        phi /= 2.0

    return AdaptiveResult(
        estimate=est,
        converged=reason in ("converged", "exhausted"),
        reason=reason,
        iterations=t,
        sampled_edges=used,
        delta=delta,
        trace=trace,
    )
