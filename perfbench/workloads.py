"""The three workloads: their inputs, the public call each times, its checks.

Each workload mirrors one CLI subcommand.  ``solve`` is exactly what the
CLI's ``_cmd_*`` does after loading the graph, ``cli_args`` is the same call
on the command line, and ``expected_payload`` is the CLI JSON (minus
``timing`` and ``config``) that the library result implies.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np
from graphlets import (
    NAMES,
    Graph,
    MicroKernel,
    SampleDesign,
    confidence_bounds,
    exact_counts,
    max_per_edge,
    sample_and_estimate,
    sample_edges,
)

import checks
from inputs import GraphSpec

ALPHA = 0.05  # the CLI's default: 95% intervals
MAX_PATTERN = "4-cycle"  # the max workload's pattern: its count needs the micro kernel


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    kind: str  # exact | estimate | max
    workers: int
    p: float = 0.02  # estimate: Bernoulli inclusion probability
    size: int = 1000  # max: kcore-weighted sample size
    reference_workers: int = 1  # exact reference / truth; exact-pl needs 1


PL = GraphSpec(n=30_000, avg_deg=5.0, fmt="canonical")
SNAP = GraphSpec(n=60_000, avg_deg=5.0, fmt="snap")

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-pl", PL, "exact", workers=2),
        Workload("estimate-snap", SNAP, "estimate", workers=1, reference_workers=2),
        Workload("max-kcore", PL, "max", workers=2),
    )
}


# (layer, call) of the span around each kind's solve
SOLVE_SPAN = {
    "exact": ("estimate", "exact_counts"),
    "estimate": ("estimate", "sample_and_estimate"),
    "max": ("extremal", "max_per_edge"),
}


def smoke(w: Workload) -> Workload:
    """The same workload on a small graph from the same generator."""
    small = dataclasses.replace(w.graph, n=300)
    # a 2% draw of ~750 edges is too small for the z-bound to mean anything
    return dataclasses.replace(w, graph=small, size=40, p=0.5)


def fresh(g: Graph) -> Graph:
    """A new graph over the same CSR arrays, with no cached core numbers."""
    return Graph(n=g.n, indptr=g.indptr, indices=g.indices, edges=g.edges, labels=g.labels)


def design(w: Workload, seed: int) -> SampleDesign | None:
    if w.kind == "estimate":
        return SampleDesign(p=w.p, seed=seed)
    if w.kind == "max":
        return SampleDesign(size=w.size, weighting="kcore", seed=seed)
    return None


def solve(w: Workload, g, seed: int):
    """The workload's public call on a freshly loaded graph."""
    if w.kind == "exact":
        return exact_counts(g, workers=w.workers)
    if w.kind == "estimate":
        est = sample_and_estimate(g, design(w, seed), workers=w.workers)
        lb, ub = confidence_bounds(est, alpha=ALPHA)
        return est, lb, ub
    return max_per_edge(g, MAX_PATTERN, design=design(w, seed), workers=w.workers)


def scanned_ids(w: Workload, g, seed: int):
    """Edge ids the solve runs its per-edge kernel on."""
    if w.kind == "exact":
        return np.arange(g.m)
    ids = sample_edges(fresh(g), design(w, seed))
    return ids if w.kind == "estimate" else np.unique(ids)


def cli_args(w: Workload, path: str, seed: int) -> list[str]:
    common = [path, "--workers", str(w.workers)]
    if w.kind == "exact":
        return ["exact", *common]
    if w.kind == "estimate":
        return ["estimate", *common, "--p", str(w.p), "--seed", str(seed)]
    return ["max", *common, "--pattern", MAX_PATTERN, "--size", str(w.size),
            "--weighting", "kcore", "--seed", str(seed)]


def _named(values) -> dict:
    return {NAMES[i + 1]: values[i] for i in range(17)}


def expected_payload(w: Workload, g, result) -> dict:
    head = {"n": g.n, "m": g.m}
    if w.kind == "exact":
        return {**head, "counts": _named(result.X)}
    if w.kind == "estimate":
        est, lb, ub = result
        return {
            **head,
            "counts": _named(est.X),
            "sampled_edges": est.k_used,
            "inclusion": est.p,
            "clamped": [NAMES[i + 1] for i, c in enumerate(est.clamped) if c],
            "lb": _named(lb),
            "ub": _named(ub),
            "alpha": ALPHA,
        }
    return {
        **head,
        "pattern": NAMES[result.pattern_id],
        "max": result.value,
        "edge_id": result.edge_id,
        "endpoints": list(result.endpoints),
        "scanned": result.scanned,
        "exact": result.exact,
    }


def check(w: Workload, g, seed: int, result, truth, facts) -> list[str]:
    """Problems with one solve result; ``truth`` is the exact reference counts."""
    if w.kind == "exact":
        return checks.check_exact(result.X, truth, facts)
    if w.kind == "estimate":
        est, _, _ = result
        return checks.check_estimate(est, truth, facts, w.p)
    micro = MicroKernel(g).counts(result.edge_id).x[result.pattern_id - 1]
    return checks.check_max(
        result.value, result.edge_id, result.endpoints, result.scanned,
        result.pattern_id, sample_edges(g, design(w, seed)), g.edges, micro,
    )


def reference(w: Workload, load, folder: str, src_hash: str) -> list[int]:
    """Exact counts of the graph ``load()`` returns, at ``w.reference_workers``.

    Cached beside the input file, keyed by a hash of the package source, so
    a changed package never reuses a reference it did not compute.
    """
    path = os.path.join(folder, f"exact-w{w.reference_workers}-{src_hash[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    X = exact_counts(load(), workers=w.reference_workers).X
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(X, fh)
    os.replace(tmp, path)
    return X
