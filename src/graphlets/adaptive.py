"""Adaptive sampling: double the edge sample until the estimates are accurate.

Round t draws the Poisson sample ``SampleDesign(p=p_t, seed)`` with
p_t = min(1, 2^t / sqrt(m)).  One random key per edge makes the samples
nested, so each round accumulates only the edges new to it and the running
total is exactly the Horvitz-Thompson estimate at p_t.  The loop stops when
the 95% confidence bound of every 4-vertex pattern lies within ``beta`` of
its estimate (relative), when p reaches 1 (the answer is then the exact
count, taken from the whole-graph pass of ``exact_counts``), or when the
round budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import patterns
from .estimate import (
    GraphletEstimate,
    SampleDesign,
    accumulate,
    confidence_bounds,
    estimate_counts,
    exact_counts,
    sample_edges,
)
from .graph import Graph


@dataclass(frozen=True)
class AdaptiveConfig:
    """Relative 95% CI half-width ``beta`` to reach, round budget, sample seed."""

    beta: float = 0.01
    t_max: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.beta <= 1):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


@dataclass
class AdaptiveResult:
    estimate: GraphletEstimate
    reason: str  # "converged" | "exhausted" | "t_max"
    iterations: int
    sampled_edges: int
    delta: float  # the final round's stopping statistic
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """The intervals reached ``beta`` on a sample, short of every edge."""
        return self.reason == "converged"


def _ci_delta(est: GraphletEstimate) -> float:
    """Largest relative 95% upper-bound gap (ub - X) / X over 4-vertex slots.

    Slots estimated at zero are skipped unless clamped; a clamped slot, or
    no nonzero slot at all, gives 1: no basis to stop.
    """
    slots = [pid - 1 for pid in patterns.ALL_K4]
    if any(est.clamped[i] for i in slots):
        return 1.0
    _, ub = confidence_bounds(est)
    X = est.X
    return max(((ub[i] - X[i]) / X[i] for i in slots if X[i] != 0), default=1.0)


def adaptive_estimate(
    g: Graph, config: AdaptiveConfig | None = None, workers: int = 1
) -> AdaptiveResult:
    """Run the doubling loop and return the final estimate."""
    cfg = config or AdaptiveConfig()
    acc = None
    ids = np.empty(0, dtype=np.int64)
    trace: list[dict] = []
    for t in range(1, cfg.t_max + 1):
        p = min(1.0, 2.0 ** t / math.sqrt(max(g.m, 1)))  # edgeless: exhausted at once
        drawn = sample_edges(g, SampleDesign(p=p, seed=cfg.seed))
        if p == 1:  # every edge drawn: the whole-graph pass gives the same totals
            est = exact_counts(g, workers=workers)
        else:
            part = accumulate(g, np.setdiff1d(drawn, ids), workers=workers, with_sq=True)
            acc = part if acc is None else acc.merge(part)
            est = estimate_counts(g, replace(acc, inclusion=Fraction(p)))
        delta = _ci_delta(est)
        trace.append({
            "round": t,
            "new_edges": len(drawn) - len(ids),
            "sampled": len(drawn),
            "p": p,
            "delta": delta,
            "X": list(est.X),
        })
        ids = drawn
        if p == 1 or delta <= cfg.beta:
            break
    reason = "exhausted" if p == 1 else "converged" if delta <= cfg.beta else "t_max"

    return AdaptiveResult(
        estimate=est,
        reason=reason,
        iterations=len(trace),
        sampled_edges=len(ids),
        delta=delta,
        trace=trace,
    )
