"""Tests of the benchmark's own checks, inputs, spans and smoke mode.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from graphlets import (
    MicroKernel,
    SampleDesign,
    exact_counts,
    from_edges,
    max_per_edge,
    sample_and_estimate,
    sample_edges,
)

import checks
import inputs
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.fixture(scope="module")
def g():
    return from_edges(inputs.power_law_edges(400, 5.0, seed=3), n=400)


@pytest.fixture(scope="module")
def truth(g):
    return exact_counts(g, workers=1).X


@pytest.fixture(scope="module")
def facts(g):
    return inputs.graph_facts(g.n, g.edges)


# --- exact ------------------------------------------------------------------


def test_exact_check_passes_on_true_counts(truth, facts):
    assert checks.check_exact(truth, truth, facts) == []


@pytest.mark.parametrize("slot", range(17))
def test_exact_check_catches_one_count_off_by_one(truth, facts, slot):
    X = list(truth)
    X[slot] += 1
    assert checks.check_exact(X, truth, facts)
    # the identities alone catch it too, when the reference shares the error
    assert checks.check_exact(X, X, facts)


@pytest.mark.parametrize("src, dst", [
    (checks.TWO_STAR, 4),  # 2-star -> 3-node-1-edge: the degree identity
    (checks.TRIANGLE, checks.TWO_STAR),  # the wedge triangle count
    (checks.CYCLE, 11),  # 4-cycle -> 4-path: the non-induced 4-cycle count
    (checks.CLIQUE, checks.CHORDAL),
    (checks.STAR, 12),  # 3-star -> 4-node-1-triangle: the 3-star count
    (checks.PATH, 12),  # 4-path -> 4-node-1-triangle: the path count
    (checks.TAILED, checks.PATH),
])
def test_exact_check_catches_a_shift_that_keeps_level_sums(g, truth, facts, src, dst):
    X = list(truth)
    X[src] -= 1
    X[dst] += 1
    assert checks.level_sum_problems(X, g.n, exact=True) == []
    assert checks.check_exact(X, X, facts)


def test_wedge_counts_match_exact_counts(g, truth, facts):
    assert facts["triangles"] == truth[checks.TRIANGLE]
    assert facts["noninduced_4cycles"] == (
        truth[checks.CYCLE] + truth[checks.CHORDAL] + 3 * truth[checks.CLIQUE])
    # chunking does not change the counts
    assert inputs.wedge_counts(g.n, g.edges, chunk=7) == (
        facts["triangles"], facts["noninduced_4cycles"])


# --- estimate ---------------------------------------------------------------


@pytest.fixture(scope="module")
def est(g):
    return sample_and_estimate(g, SampleDesign(p=0.5, seed=1), workers=1)


def test_estimate_check_passes_on_a_real_estimate(truth, facts, est):
    assert checks.check_estimate(est, truth, facts, 0.5) == []


@pytest.mark.parametrize("slot", checks.CONNECTED4)
def test_estimate_check_catches_a_slot_far_from_truth(truth, facts, est, slot):
    X = list(est.X)
    X[slot] = truth[slot] + (checks.Z_BOUND + 1) * math.sqrt(est.variance[slot])
    assert checks.check_estimate(replace(est, X=X), truth, facts, 0.5)


def test_estimate_check_catches_a_broken_level_sum(truth, facts, est):
    X = list(est.X)
    X[16] *= 1.001  # 4-node-independent, not among the z-checked slots
    assert checks.check_estimate(replace(est, X=X), truth, facts, 0.5)


def test_estimate_check_catches_a_wrong_inclusion_factor(truth, facts, est):
    # the sample drawn at p = 0.5 but scaled as if p were 0.4
    X = [x * 0.5 / 0.4 for x in est.X]
    var = [v * (0.5 / 0.4) ** 2 for v in est.variance]
    wrong = replace(est, X=X, variance=var)
    assert any("exact SDs" in p for p in checks.check_estimate(wrong, truth, facts, 0.5))
    assert checks.check_estimate(replace(est, p=0.4), truth, facts, 0.5)


def test_estimate_check_needs_a_variance(truth, facts, est):
    assert checks.check_estimate(replace(est, variance=None), truth, facts, 0.5)


def test_estimate_check_fails_a_wrong_slot_with_zero_variance(truth, facts, est):
    var = list(est.variance)
    var[6] = 0.0
    X = list(est.X)
    X[6] = truth[6] + 1
    assert checks.check_estimate(replace(est, X=X, variance=var), truth, facts, 0.5)


# --- max --------------------------------------------------------------------


@pytest.fixture(scope="module")
def extremal(g):
    design = SampleDesign(size=60, weighting="kcore", seed=2)
    res = max_per_edge(g, "4-cycle", design=design, workers=1)
    return res, sample_edges(g, design)


def _check_max(g, res, sample, value=None, edge_id=None):
    value = res.value if value is None else value
    edge_id = res.edge_id if edge_id is None else edge_id
    micro = MicroKernel(g).counts(edge_id).x[res.pattern_id - 1]
    endpoints = tuple(g.edges[edge_id])
    return checks.check_max(value, edge_id, endpoints, res.scanned, res.pattern_id,
                            sample, g.edges, micro)


def test_max_check_passes_on_the_real_result(g, extremal):
    res, sample = extremal
    assert res.value > 0
    assert _check_max(g, res, sample) == []


def test_max_check_catches_a_wrong_value(g, extremal):
    res, sample = extremal
    assert _check_max(g, res, sample, value=res.value + 1)


def test_max_check_catches_a_wrong_edge(g, extremal):
    res, sample = extremal
    others = [int(e) for e in np.unique(sample)
              if MicroKernel(g).counts(int(e)).x[res.pattern_id - 1] != res.value]
    # a sampled edge with another count, reported with the true max value
    assert checks.check_max(res.value, others[0], g.edges[others[0]], res.scanned,
                            res.pattern_id, sample, g.edges,
                            MicroKernel(g).counts(others[0]).x[res.pattern_id - 1])


def test_max_check_catches_an_edge_outside_the_sample(g, extremal):
    res, sample = extremal
    outside = next(e for e in range(g.m) if e not in set(sample.tolist()))
    assert _check_max(g, res, sample, edge_id=outside)


# --- graph, CLI -------------------------------------------------------------


def test_graph_check_catches_a_different_degree_multiset(g, facts):
    assert checks.check_graph(g.n, g.m, g.degrees, facts) == []
    deg = g.degrees.copy()
    deg[0] += 1
    deg[1] -= 1
    if sorted(deg) == sorted(g.degrees):
        deg[0] += 1
    assert checks.check_graph(g.n, g.m, deg, facts)
    assert checks.check_graph(g.n + 1, g.m, g.degrees, facts)


def test_cli_check_ignores_timing_and_config_only(g, truth):
    expected = {"n": g.n, "m": g.m, "counts": workloads._named(truth)}
    payload = json.loads(json.dumps(expected))
    payload.update(timing={"seconds": 1.0}, config={"workers": 2})
    assert checks.check_cli(payload, expected) == []
    payload["counts"]["4-cycle"] += 1
    assert checks.check_cli(payload, expected)


def test_ledger_counts_exceptions_and_failed_checks_per_layer():
    ledger = checks.Ledger()
    assert ledger.op("graph", lambda: 1, lambda r: []) == 1
    assert ledger.op("graph", lambda: 2, lambda r: ["wrong"]) == 2
    assert ledger.op("local", lambda: 1 / 0) is None
    assert ledger.op("local", lambda: 3, lambda r: r.missing) is None
    assert dict(ledger.failed) == {"graph": 1, "local": 2}
    assert ledger.totals() == (4, 3)


# --- inputs and spans -------------------------------------------------------


def test_inputs_are_pinned_by_seed(tmp_path):
    spec = inputs.GraphSpec(n=500, avg_deg=5.0, fmt="snap")
    p1, f1 = inputs.prepare(spec, 7, str(tmp_path / "a"))
    p2, f2 = inputs.prepare(spec, 7, str(tmp_path / "b"))
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()
    assert f1 == f2
    p3, f3 = inputs.prepare(spec, 8, str(tmp_path / "a"))
    with open(p1, "rb") as a, open(p3, "rb") as b:
        assert a.read() != b.read()
    # seeds differ in wiring only: the same degree sequence up to dropped loops
    assert abs(f3["sum_d2"] - f1["sum_d2"]) < 0.05 * f1["sum_d2"]


def test_loaded_files_match_their_facts(tmp_path):
    from graphlets import load_graph

    for fmt in ("canonical", "snap"):
        spec = inputs.GraphSpec(n=500, avg_deg=5.0, fmt=fmt)
        path, facts = inputs.prepare(spec, 4, str(tmp_path))
        h = load_graph(path)
        assert checks.check_graph(h.n, h.m, h.degrees, facts) == []
        assert facts["file_bytes"] == os.path.getsize(path)


def test_span_self_time_excludes_children():
    tr = Tracer(enabled=True)
    with tr.span("estimate.outer"):
        time.sleep(0.01)
        with tr.span("local.inner"):
            time.sleep(0.02)
    outer, inner = tr.spans
    assert inner.parent == outer.id
    selfs = tr.self_times()
    assert selfs[inner.id] == pytest.approx(inner.duration)
    assert selfs[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert Tracer(enabled=False).span("x") is not None


# --- the whole benchmark ----------------------------------------------------


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_complete(tmp_path, workload, trace):
    r = _run(["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
              "--smoke", "--work-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, r.stderr
    kind = "end_to_end" if trace == 0 else "per_layer"
    assert list(out["metrics"]) == [m["name"] for m in BENCH[kind]]
    if trace:
        assert os.listdir(tmp_path / "traces")


def test_without_the_package_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    r = _run(["--workload", "exact-pl", "--seed", "0", "--seconds", "1", "--trace", "0"],
             cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout == ""
