"""Per-layer probes for the traced run.

Each probe times calls into one package module's public functions from the
outside, on the workload's own graph, inside a span named ``<layer>.<call>``.
Every probe also checks what it timed; a failed check or an exception counts
against ``<layer>.failed``.  Sizes are fixed here and capped by m, so a probe
costs about the same on every seed.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np
from graphlets import (
    AdaptiveConfig,
    MicroKernel,
    SampleDesign,
    VertexMarker,
    accumulate,
    adaptive_estimate,
    classify_edge,
    estimate_counts,
    from_edges,
    max_per_edge,
    sample_edges,
    unrestricted_counts,
)

import checks
import workloads

LAYERS = ("graph", "local", "estimate", "micro", "extremal", "adaptive", "cli")

RANDOM_EDGES = 400  # local kernel, random edges
HARD_EDGES = 200  # local kernel, drawn from the hardest 1% of edges
MICRO_RANDOM = 60
MICRO_HARD = 20
ACC_EDGES = 20_000  # accumulate at workers = 1 and 2
EXTREMAL_SIZE = 300  # kcore-weighted scan at workers = 1 and 2
REPEATS = 3  # cheap calls (edge-array CSR build, sample draw, chain) are repeated


def rel_err_4(X, truth) -> float:
    """Mean relative error over the six connected 4-vertex patterns."""
    errs = [abs(float(X[i]) - truth[i]) / truth[i] for i in checks.CONNECTED4 if truth[i]]
    return statistics.mean(errs) if errs else 0.0


def max_z(X, variance, truth) -> float:
    zs = [abs(float(X[i]) - truth[i]) / math.sqrt(variance[i])
          for i in checks.CONNECTED4 if variance[i] > 0]
    return max(zs, default=0.0)


def _repeat(ledger, layer, tracer, name, fn, check):
    """(last result, median seconds) of REPEATS checked calls; Nones if any failed."""
    runs = [ledger.op(layer, lambda: tracer.timed(name, fn), lambda r: check(r[0]))
            for _ in range(REPEATS)]
    if any(r is None for r in runs):
        return None, None
    return runs[-1][0], statistics.median(t for _, t in runs)


def probe_graph(g, facts, load_times, tracer, ledger, out):
    out["graph.input_mb"] = facts["file_bytes"] / 1e6
    _, csr_s = _repeat(ledger, "graph", tracer, "graph.from_edges",
                       lambda: from_edges(g.edges, n=g.n),
                       lambda h: [] if h == g else ["from_edges rebuilt a different graph"])
    if csr_s is not None and load_times:
        out["graph.csr_build_s"] = csr_s
        out["graph.parse_s"] = statistics.median(load_times) - csr_s
        out["graph.parse_mb_per_s"] = out["graph.input_mb"] / out["graph.parse_s"]

    h = workloads.fresh(g)

    def cores_ok(core):
        deg = h.degrees
        ok = (core <= deg).all() and (core[deg > 0] >= 1).all()
        return [] if ok else ["core numbers outside [1, degree]"]

    r = ledger.op("graph", lambda: tracer.timed("graph.core_numbers", h.core_numbers),
                  lambda r: cores_ok(r[0]))
    if r is not None:
        out["graph.core_s"] = r[1]


def edge_pools(g, seed: int):
    """Seeded random edges and a seeded draw from the hardest 1% by degree sum."""
    rng = np.random.default_rng([seed, 2])
    hardness = g.edge_hardness()
    rand = rng.choice(g.m, size=min(RANDOM_EDGES, g.m), replace=False)
    pool = np.argsort(-hardness, kind="stable")[: max(1, g.m // 100)]
    hard = rng.choice(pool, size=min(HARD_EDGES, len(pool)), replace=False)
    return hardness, rand, hard


def probe_local(g, pools, tracer, ledger, out):
    hardness, rand, hard = pools
    marker = VertexMarker(g.n)
    deg = g.degrees

    def zones_ok(locs):
        bad = sum(len(z.T) + len(z.S_u) + len(z.S_v) + z.far + 2 != g.n
                  or len(z.T) + len(z.S_u) + 1 != deg[z.u] for z in locs)
        return [f"{bad} edges with inconsistent zone sizes"] if bad else []

    def tallies_ok(cs):
        bad = sum(c[2] + c[3] + c[4] != g.n - 2 for c in cs)
        return [f"{bad} tallies whose 3-vertex zones miss n - 2"] if bad else []

    kernel_s = []
    for tag, ids in (("random", rand), ("hard", hard)):
        pairs = [tuple(int(x) for x in g.edges[e]) for e in ids]
        r = ledger.op("local", lambda: tracer.timed(
            f"local.classify_edge.{tag}",
            lambda: [classify_edge(g, u, v, marker) for u, v in pairs]),
            lambda r: zones_ok(r[0]))
        if r is not None:
            out[f"local.classify_us_per_edge.{tag}"] = 1e6 * r[1] / len(ids)
        r = ledger.op("local", lambda: tracer.timed(
            f"local.unrestricted_counts.{tag}",
            lambda: [unrestricted_counts(g, int(e), marker) for e in ids]),
            lambda r: tallies_ok(r[0]))
        if r is not None:
            out[f"local.kernel_us_per_edge.{tag}"] = 1e6 * r[1] / len(ids)
            kernel_s.append(r[1])
    if len(kernel_s) == 2:
        entries = int(hardness[rand].sum() + hardness[hard].sum())
        out["local.ns_per_neighbor_entry"] = 1e9 * sum(kernel_s) / entries


def probe_estimate(w, g, seed, facts, truth, tracer, ledger, out):
    acc_ids = np.random.default_rng([seed, 3]).permutation(g.m)[: min(ACC_EDGES, g.m)]
    runs = [ledger.op("estimate", lambda: tracer.timed(
        f"estimate.accumulate.w{workers}",
        lambda: accumulate(g, acc_ids, workers=workers, inclusion=Fraction(1))))
        for workers in (1, 2)]
    if all(r is not None for r in runs):
        (a1, t1), (a2, t2) = runs
        ledger.op("estimate", lambda: None, lambda _: [] if a1.counts == a2.counts
                  else ["accumulate differs between 1 and 2 workers"])
        out["estimate.accumulate_s.w1"], out["estimate.accumulate_s.w2"] = t1, t2
        out["estimate.parallel_eff"] = t1 / (2 * t2)

    design = SampleDesign(p=w.p, seed=seed)
    ids, sample_s = _repeat(ledger, "estimate", tracer, "estimate.sample_edges",
                            lambda: sample_edges(g, design), lambda _: [])
    if ids is not None and truth is not None:
        acc = accumulate(g, ids, workers=1, with_sq=True, inclusion=Fraction(design.p))
        est, chain_s = _repeat(ledger, "estimate", tracer, "estimate.estimate_counts",
                               lambda: estimate_counts(g, acc),
                               lambda e: checks.check_estimate(e, truth, facts, w.p))
        if est is not None:
            out["estimate.sample_s"], out["estimate.chain_s"] = sample_s, chain_s
            out["estimate.max_z"] = max_z(est.X, est.variance, truth)
            out["estimate.rel_err_4"] = rel_err_4(est.X, truth)
    # the work the workload's own solve does, as exact counts
    ids = ledger.op("estimate", lambda: workloads.scanned_ids(w, g, seed))
    if ids is not None:
        out["estimate.edges_scanned"] = int(len(ids))
        out["estimate.neighbor_entries"] = int(g.edge_hardness()[ids].sum())


def probe_micro(g, pools, tracer, ledger, out):
    _, rand, hard = pools
    kernel = MicroKernel(g)
    marker = VertexMarker(g.n)

    def agrees(ids, res):
        # per-edge 4-cliques and 4-cycles are counted independently by the local kernel
        bad = 0
        for e, r in zip(ids, res):
            c = unrestricted_counts(g, int(e), marker)
            bad += (r.x[6], r.x[9], r.x[2]) != (c[6], c[9], c[2])
        return [f"{bad} edges where micro and local tallies differ"] if bad else []

    for tag, ids in (("random", rand[:MICRO_RANDOM]), ("hard", hard[:MICRO_HARD])):
        r = ledger.op("micro", lambda: tracer.timed(
            f"micro.counts.{tag}", lambda: [kernel.counts(int(e)) for e in ids]),
            lambda r: agrees(ids, r[0]))
        if r is not None:
            out[f"micro.ms_per_edge.{tag}"] = 1e3 * r[1] / len(ids)


def probe_extremal(g, seed, tracer, ledger, out):
    design = SampleDesign(size=min(EXTREMAL_SIZE, g.m), weighting="kcore", seed=seed)
    g.core_numbers()  # peeling is timed by the graph probe, not here
    runs = [ledger.op("extremal", lambda: tracer.timed(
        f"extremal.max_per_edge.w{workers}",
        lambda: max_per_edge(g, workloads.MAX_PATTERN, design=design, workers=workers)))
        for workers in (1, 2)]
    if all(r is not None for r in runs):
        (r1, t1), (r2, t2) = runs
        ledger.op("extremal", lambda: None,
                  lambda _: [] if (r1.value, r1.edge_id) == (r2.value, r2.edge_id)
                  else ["max differs between 1 and 2 workers"])
        out["extremal.scan_s"] = t2
        out["extremal.scanned"] = r2.scanned
        out["extremal.parallel_eff"] = t1 / (2 * t2)


def probe_adaptive(g, seed, truth, tracer, ledger, out):
    def sums_ok(res):
        if any(res.estimate.clamped):
            return []
        return checks.level_sum_problems(res.estimate.X, g.n, exact=False)

    r = ledger.op("adaptive", lambda: tracer.timed(
        "adaptive.adaptive_estimate",
        lambda: adaptive_estimate(g, AdaptiveConfig(seed=seed), workers=1)),
        lambda r: sums_ok(r[0]))
    if r is not None:
        res, out["adaptive.s"] = r
        out["adaptive.rounds"] = res.iterations
        out["adaptive.sampled_edges"] = res.sampled_edges
        if truth is not None:
            out["adaptive.rel_err_4"] = rel_err_4(res.estimate.X, truth)


def probe_all(w, g, seed, facts, truth, load_times, tracer, ledger) -> dict:
    """Every layer's metrics on the loaded graph ``g``; CLI numbers come separately."""
    out: dict = {}
    pools = edge_pools(g, seed)
    probes = {
        "graph": lambda: probe_graph(g, facts, load_times, tracer, ledger, out),
        "local": lambda: probe_local(g, pools, tracer, ledger, out),
        "estimate": lambda: probe_estimate(w, g, seed, facts, truth, tracer, ledger, out),
        "micro": lambda: probe_micro(g, pools, tracer, ledger, out),
        "extremal": lambda: probe_extremal(g, seed, tracer, ledger, out),
        "adaptive": lambda: probe_adaptive(g, seed, truth, tracer, ledger, out),
    }
    for layer, probe in probes.items():
        # the parent's self time is the benchmark's own work: checks, bookkeeping
        with tracer.span(f"bench.probe_{layer}"):
            probe()
    return out
