import numpy as np
import pytest

from gen import gen_er, planted_clique
from graphlets import MicroKernel, SampleDesign, from_edges, max_per_edge


def brute_max(g, pid):
    kernel = MicroKernel(g)
    vals = [kernel.counts(e).x[pid - 1] for e in range(g.m)]
    best = max(vals)
    return best, vals.index(best)


@pytest.mark.parametrize("pid", [3, 7, 8, 10, 12])
def test_full_scan_is_exact(pid):
    g = gen_er(30, 0.3, 80)
    res = max_per_edge(g, pid)
    val, eid = brute_max(g, pid)
    assert res.value == val
    assert res.edge_id == eid
    assert res.exact and res.scanned == g.m
    u, v = res.endpoints
    assert g.edge_id(u, v) == res.edge_id


def test_tie_breaks_to_smallest_id():
    # two disjoint 4-cliques: every edge holds exactly one, so id 0 must win
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = from_edges(k4 + [(a + 4, b + 4) for a, b in k4])
    res = max_per_edge(g, "4-clique")
    assert res.value == 1
    assert res.edge_id == 0


def test_pattern_by_name_or_id():
    g = gen_er(25, 0.3, 81)
    assert max_per_edge(g, 7).value == max_per_edge(g, "4-clique").value
    with pytest.raises(KeyError):
        max_per_edge(g, "heptagon")


def test_sampled_never_overestimates():
    g = planted_clique(60, 0.1, 6, seed=82)
    exact = max_per_edge(g, 7).value
    assert exact >= 6  # the planted 6-clique guarantees cliques at its edges
    for s in range(30):
        for design in (SampleDesign(p=0.3, seed=s),
                       SampleDesign(p=0.3, weighting="kcore", seed=s)):
            res = max_per_edge(g, 7, design=design)
            assert res.value <= exact
            assert not res.exact or res.scanned == g.m


def test_empty_sample_errors():
    g = from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        max_per_edge(g, 3, design=SampleDesign(p=1e-15, seed=0))


def test_worker_count_invariance():
    g = gen_er(40, 0.25, 83)
    ref = max_per_edge(g, 8, workers=1)
    for w in (2, 3):
        alt = max_per_edge(g, 8, workers=w)
        assert (alt.value, alt.edge_id) == (ref.value, ref.edge_id)


def test_kcore_design_scans_fewer_edges():
    g = planted_clique(80, 0.08, 7, seed=84)
    res = max_per_edge(g, 7, design=SampleDesign(p=0.2, weighting="kcore", seed=1))
    assert res.scanned < g.m
    assert res.value <= max_per_edge(g, 7).value
