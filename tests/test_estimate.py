import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gen import assert_no_child_left, gen_er, gen_power_law, named_graphs, suite_graphs
from graphlets import (
    SampleDesign,
    accumulate,
    adaptive_estimate,
    brute_force_counts,
    confidence_bounds,
    estimate_counts,
    exact_counts,
    Graph,
    from_edges,
    gfd,
    max_per_edge,
    sample_and_estimate,
    sample_edges,
    scaled_contributions,
    unrestricted_counts,
)
from graphlets import estimate, local
from graphlets.estimate import _chain, _draw


# --- designs ---------------------------------------------------------------

def test_design_validation():
    with pytest.raises(ValueError):
        SampleDesign()
    with pytest.raises(ValueError):
        SampleDesign(p=0.5, size=10)
    with pytest.raises(ValueError):
        SampleDesign(p=0.0)
    with pytest.raises(ValueError):
        SampleDesign(p=1.5)
    with pytest.raises(ValueError):
        SampleDesign(size=0)
    with pytest.raises(ValueError):
        SampleDesign(p=0.5, weighting="degree")
    with pytest.raises(ValueError):
        SampleDesign(p=0.5, weighting="custom")
    with pytest.raises(TypeError):
        SampleDesign(p=0.5, weights=(1.0,))  # no design takes explicit weights


def test_bernoulli_determinism_and_rate():
    g = gen_er(40, 0.3, 1)
    a = sample_edges(g, SampleDesign(p=0.4, seed=7))
    b = sample_edges(g, SampleDesign(p=0.4, seed=7))
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == len(a)
    drawn = [len(sample_edges(g, SampleDesign(p=0.4, seed=s))) for s in range(50)]
    assert abs(np.mean(drawn) / g.m - 0.4) < 0.05


def test_draw_set_nesting():
    # one key per edge: a larger target with the same seed draws a superset
    g = gen_er(40, 0.3, 1)
    for small, big in ((dict(size=15), dict(size=40)),
                       (dict(size=15, weighting="kcore"), dict(size=40, weighting="kcore")),
                       (dict(p=0.2), dict(p=0.4))):
        a = set(sample_edges(g, SampleDesign(seed=3, **small)).tolist())
        b = set(sample_edges(g, SampleDesign(seed=3, **big)).tolist())
        assert a < b, (small, big)


def test_fixed_size_too_large():
    g = gen_er(10, 0.3, 1)
    with pytest.raises(ValueError):
        sample_edges(g, SampleDesign(size=g.m + 1))
    assert len(sample_edges(g, SampleDesign(size=g.m))) == g.m


def test_kcore_draw_frequency():
    # triangle with a pendant: core weights 2 on the triangle and 1 on the
    # pendant give pi = 4/7 and 2/7 at an expected size of 2
    g = from_edges([(0, 1), (0, 2), (1, 2), (0, 3)])
    pi = np.full(g.m, 4 / 7)
    pi[g.edge_id(0, 3)] = 2 / 7
    design = dict(size=2, weighting="kcore")
    assert np.allclose(_draw(g, SampleDesign(**design))[1], pi)
    runs = 20_000
    hits = np.zeros(g.m)
    for s in range(runs):
        hits[sample_edges(g, SampleDesign(seed=s, **design))] += 1
    se = np.sqrt(pi * (1 - pi) / runs)
    assert (np.abs(hits / runs - pi) < 4 * se).all(), hits / runs


def test_heavy_edge_capped_at_certainty():
    # K5 plus a disjoint 40-edge path: core weights 4 and 1 at an expected size
    # of 25 cap the 10 clique edges at pi = 1 and put the path at 15/40
    g = from_edges([(a, b) for a in range(5) for b in range(a + 1, 5)]
                   + [(v, v + 1) for v in range(5, 45)])
    clique = g.edge_core() == 4
    assert clique.sum() == 10 and g.m == 50
    ids, pi = _draw(g, SampleDesign(size=25, weighting="kcore"))
    assert (pi[clique] == 1.0).all() and np.isin(np.flatnonzero(clique), ids).all()
    assert pi.sum() == pytest.approx(25, abs=1e-9)
    assert np.allclose(pi[~clique], 15 / 40)
    # one level at pi = 1, yet not every edge: a float estimate, not an exact count
    ids = np.flatnonzero(clique)
    est = estimate_counts(g, accumulate(g, ids, inclusion=Fraction(1)))
    assert est.p == 1.0 and est.k_used == 10 < g.m
    assert all(isinstance(x, float) for x in est.X)


def test_empty_draw_estimates():
    g = gen_er(20, 0.3, 2)
    design = SampleDesign(p=1e-15, seed=0)
    assert len(sample_edges(g, design)) == 0
    est = sample_and_estimate(g, design)
    assert est.k_used == 0 and est.X[3 - 1] == 0
    assert sum(est.X[6:]) == pytest.approx(math.comb(g.n, 4))


def test_multilevel_totals_match_exact_sum():
    # one inclusion level per edge, plus one at pi = 1: the per-level float
    # totals agree with the exact rational Horvitz-Thompson sum
    g = gen_er(60, 0.15, 3)
    ids = np.arange(0, g.m, 2)
    pi = np.random.default_rng(0).uniform(0.2, 0.6, len(ids))
    pi[0] = 1.0
    assert len(np.unique(pi)) == len(ids) > 50
    levels = [accumulate(g, [e], inclusion=Fraction(q)) for e, q in zip(ids, pi)]
    est = estimate_counts(g, levels)
    assert est.p is None and est.k_used == len(ids)
    exact = _chain([sum(Fraction(a.counts[i]) / a.inclusion for a in levels)
                    for i in range(17)], g.n, g.m)
    for x, e in zip(est.X, exact):
        assert x == pytest.approx(float(max(e, 0)), rel=1e-12)


# --- accumulation ----------------------------------------------------------

def test_accumulate_range_check():
    g = gen_er(10, 0.4, 3)
    with pytest.raises(ValueError):
        accumulate(g, [g.m], inclusion=Fraction(1))


def test_accumulate_merge_mismatch():
    g = gen_er(10, 0.4, 3)
    a = accumulate(g, [0], with_sq=True, inclusion=Fraction(1, 2))
    b = accumulate(g, [1], with_sq=False, inclusion=Fraction(1, 2))
    with pytest.raises(ValueError):
        a.merge(b)
    merged = a.merge(accumulate(g, [1], with_sq=True, inclusion=Fraction(1, 2)))
    assert merged.k_used == 2
    # one Horvitz-Thompson weight per accumulator: mixed inclusions do not merge
    with pytest.raises(ValueError, match="inclusions"):
        a.merge(accumulate(g, [1], with_sq=True, inclusion=Fraction(1, 3)))


def test_parallel_bitwise_identity(eight_cpus):
    # the sums over sorted ids at one worker, whatever the row order or share split
    g = gen_er(35, 0.25, 4)
    ids = sample_edges(g, SampleDesign(p=0.8, seed=1))
    ref = accumulate(g, ids, workers=1, with_sq=True, inclusion=Fraction(4, 5))
    shuffled = np.random.default_rng(6).permutation(ids)
    for rows in (ids, ids[::-1], shuffled):
        for w in (1, 2, 3, 5):
            alt = accumulate(g, rows, workers=w, with_sq=True, inclusion=Fraction(4, 5))
            assert alt.counts == ref.counts
            assert alt.sq == ref.sq


def test_one_pool_per_sample_and_estimate(monkeypatch):
    # a kcore design has one inclusion level per edge core number; every level
    # goes through one parallel map, and each level's sums are the ones a
    # separate accumulate call over that level gives
    g = gen_power_law(400, 6.0, 5)
    design = SampleDesign(p=0.3, weighting="kcore", seed=2)
    ids, pi = _draw(g, design)
    levels = np.unique(pi[ids])
    assert len(levels) >= 4
    per_level = estimate_counts(g, [
        accumulate(g, ids[pi[ids] == q], with_sq=True, inclusion=Fraction(q))
        for q in levels])
    calls = []
    parallel_map = local._parallel_map

    def counted(fn, rows, workers):
        calls.append(len(rows))
        return parallel_map(fn, rows, workers)

    monkeypatch.setattr(estimate, "_parallel_map", counted)  # the name estimate calls
    for workers in (1, 2):
        calls.clear()
        est = sample_and_estimate(g, design, workers=workers)
        assert calls == [len(ids)]
        assert (est.X, est.variance, est.k_used) == (
            per_level.X, per_level.variance, per_level.k_used)
        assert confidence_bounds(est) == confidence_bounds(per_level)


def test_serial_fallback_without_fork(monkeypatch, eight_cpus):
    monkeypatch.delattr(os, "fork")
    g = gen_er(35, 0.25, 4)
    ids = np.arange(g.m)
    ref = accumulate(g, ids, workers=1, with_sq=True, inclusion=Fraction(1))
    alt = accumulate(g, ids, workers=2, with_sq=True, inclusion=Fraction(1))
    assert (alt.counts, alt.sq) == (ref.counts, ref.sq)
    assert max_per_edge(g, "4-cycle", workers=2) == max_per_edge(g, "4-cycle", workers=1)
    monkeypatch.setattr(local, "BUDGET", 5)  # many ids, so two workers would fork
    assert exact_counts(g, workers=2).X == exact_counts(g, workers=1).X


def test_worker_count_capped_at_available_cpus(monkeypatch):
    # with one CPU available, no worker count forks: 5000 runs in this process
    def no_fork():
        raise AssertionError("forked with one CPU available")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    g = gen_er(35, 0.25, 4)
    ids = np.tile(np.arange(g.m), 10_000 // g.m + 1)  # two ids for each of 5000 shares
    ref = accumulate(g, ids, workers=1, with_sq=True, inclusion=Fraction(1))
    alt = accumulate(g, ids, workers=5000, with_sq=True, inclusion=Fraction(1))
    assert (alt.counts, alt.sq) == (ref.counts, ref.sq)
    assert max_per_edge(g, "4-cycle", workers=2) == max_per_edge(g, "4-cycle", workers=1)
    monkeypatch.setattr(local, "BUDGET", 5)  # many ids, all run in this process
    assert exact_counts(g, workers=5000).X == exact_counts(g, workers=1).X


def python_square_sums(cols) -> list:
    """Sum of z * z per slot over the tally vectors ``cols``, in Python ints."""
    sq = [0] * 17
    for c in cols:
        sq = [acc + z * z for acc, z in zip(sq, scaled_contributions(c))]
    return sq


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["er3", "planted", "power_law"])
def test_squares_match_python_ints(name, workers):
    # an oracle apart from the limbs: each drawn edge's z squared as Python
    # ints, repeats included, level by level
    g = suite_graphs()[name]
    ids = sample_edges(g, SampleDesign(p=0.2, seed=1))
    ids = np.concatenate([ids, ids[::3]])
    acc = accumulate(g, ids, workers, with_sq=True, inclusion=Fraction(1, 5))
    assert acc.sq == python_square_sums(unrestricted_counts(g, e) for e in ids.tolist())
    ids, pi = _draw(g, SampleDesign(p=0.2, weighting="kcore", seed=2))
    ids = np.concatenate([ids, ids[::3]])
    levels, level = np.unique(pi[ids], return_inverse=True)
    assert len(levels) >= 2
    accs = estimate._accumulate_levels(g, ids, level, [Fraction(q) for q in levels],
                                       workers, with_sq=True)
    for q, acc in enumerate(accs):
        at = ids[level == q].tolist()
        assert acc.sq == python_square_sums(unrestricted_counts(g, e) for e in at), q


@given(st.sampled_from([0, 1, 2, local.CHUNK]), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 16)))
@example(local.CHUNK, 0, set(range(17)))  # a whole chunk, every entry at the top
@example(local.CHUNK, 1, set())
def test_square_sums_exact_on_any_tally_stack(k, seed, maxed):
    # tallies lie in [0, 2**61): limbs of random width, and whole rows at the top
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2**61, size=(17, k)) >> rng.integers(0, 61, size=(17, 1))
    x[sorted(maxed)] = 2**61 - 1
    got = estimate._square_sums(x).tolist()
    assert got == python_square_sums(x.T.tolist())
    assert all(type(s) is int for s in got)


@given(st.integers(0, 2**32 - 1))
def test_square_sums_widen_int32_tallies(seed):
    # t and the degrees in int32, as small as every tally fits int32; z * z
    # passes int64, so a square taken in the tallies' own dtype would wrap
    rng = np.random.default_rng(seed)
    n, k = 46_000, 200
    du, dv = rng.integers(1, n // 2, size=(2, k)).astype(np.int32)
    t = rng.integers(0, np.minimum(du, dv)).astype(np.int32)
    k4 = rng.integers(0, t.astype(np.int64) * (t - 1) // 2 + 1).astype(np.int32)
    cyc = rng.integers(0, (du - 1 - t).astype(np.int64) * (dv - 1 - t) + 1).astype(np.int32)
    m = int(rng.integers((du + dv).max() - 1, n * (n - 1) // 2))
    c = local.edge_tallies(t, k4, cyc, du, dv, n, m)
    assert {x.dtype for x in c} == {np.dtype(np.int32)}
    want = python_square_sums(local.edge_tallies(*row, n, m)
                              for row in zip(*(a.tolist() for a in (t, k4, cyc, du, dv))))
    assert max(want) > 2**64
    assert estimate._square_sums(c).tolist() == want


def test_parallel_map_runs_interleaved_shares(eight_cpus):
    ids = np.arange(20)
    parts = local._parallel_map(lambda share: share.tolist(), ids, 3)
    assert parts == [ids[w::3].tolist() for w in range(3)]
    assert_no_child_left()


def test_forked_share_error_reaches_caller(eight_cpus):
    def fn(share):
        if share[0] == 1:  # share 1 runs in the forked child
            raise ValueError(f"share starting at {share[0]} failed")
        return share.tolist()

    with pytest.raises(ValueError, match="^share starting at 1 failed$") as err:
        local._parallel_map(fn, np.arange(10), 2)
    assert err.type is ValueError
    assert_no_child_left()


def test_forked_shares_leave_stdio_buffers_alone():
    # a child that flushed on exit would print the caller's pending line twice
    code = ("import numpy as np\n"
            "from graphlets.local import _parallel_map\n"
            "print('pending')\n"
            "_parallel_map(lambda share: share.tolist(), np.arange(10), 2)\n"
            "print('done')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout == "pending\ndone\n"


def test_caller_error_kills_forked_shares(eight_cpus):
    def fn(share):
        if share[0] == 0:  # share 0 runs in this process
            raise ValueError("caller share failed")
        time.sleep(60)  # a child the caller waited for would hold the call this long

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="caller share failed"):
        local._parallel_map(fn, np.arange(10), 2)
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_every_entry_point_refuses_zero_workers():
    g = gen_er(20, 0.3, 2)
    design = SampleDesign(p=0.5, seed=1)
    calls = [
        lambda: accumulate(g, range(g.m), workers=0, inclusion=Fraction(1)),
        lambda: exact_counts(g, workers=0),
        lambda: sample_and_estimate(g, design, workers=0),
        lambda: max_per_edge(g, "4-cycle", workers=0),
        lambda: max_per_edge(g, "4-cycle", design=design, workers=0),
        lambda: adaptive_estimate(g, workers=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            call()
    assert_no_child_left()


def test_empty_sample_reported_before_the_worker_count():
    g = gen_er(20, 0.3, 2)
    with pytest.raises(ValueError, match="edge sample is empty"):
        max_per_edge(g, "4-cycle", design=SampleDesign(p=1e-15), workers=0)


def test_scaled_contributions_match_chain():
    # single-edge accumulators: X - const must equal z / (12 p) slot by slot
    g = gen_er(16, 0.35, 5)
    p = Fraction(1, 3)
    const = [Fraction(g.m), Fraction(math.comb(g.n, 2) - g.m), 0, 0, 0,
             Fraction(math.comb(g.n, 3)), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
             Fraction(math.comb(g.n, 4))]
    for e in range(g.m):
        c = unrestricted_counts(g, e)
        z = scaled_contributions(c)
        acc = accumulate(g, [e], inclusion=p)
        est_raw = [Fraction(x) for x in estimate_counts(g, acc).X]
        for i in range(17):
            expect = const[i] + Fraction(z[i], 12) / p
            if expect < 0:
                continue  # clamped slot; linearity checked via the sq path
            assert est_raw[i] == pytest.approx(float(expect), abs=1e-9), (e, i)


# --- estimation ------------------------------------------------------------

def test_exact_matches_oracle_random():
    for seed in range(8):
        g = gen_er(18, 0.3, seed + 20)
        assert exact_counts(g).X == brute_force_counts(g)


def test_exact_named(named):
    for name, g in named.items():
        est = exact_counts(g)
        assert est.X == brute_force_counts(g), name
        assert est.p == 1.0 and not any(est.clamped)
        assert all(v == 0 for v in est.variance)
        lb, ub = confidence_bounds(est)
        assert lb == [float(x) for x in est.X] == ub


def test_estimate_deterministic():
    g = gen_er(30, 0.2, 6)
    a = sample_and_estimate(g, SampleDesign(p=0.4, seed=11))
    b = sample_and_estimate(g, SampleDesign(p=0.4, seed=11))
    assert a.X == b.X and a.variance == b.variance


def test_unbiasedness_small():
    g = gen_er(22, 0.3, 7)
    truth = brute_force_counts(g)
    runs = np.array(
        [sample_and_estimate(g, SampleDesign(p=0.5, seed=s)).X
         for s in range(300)],
        dtype=float,
    )
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    for i in range(17):
        if se[i] == 0:
            assert mean[i] == truth[i]
        else:
            assert abs(mean[i] - truth[i]) <= 4 * se[i], (i, mean[i], truth[i])


def test_variance_estimate_tracks_spread():
    g = gen_er(30, 0.25, 8)
    ests = [sample_and_estimate(g, SampleDesign(p=0.4, seed=s)) for s in range(300)]
    i = 12 - 1  # 4-path: plentiful, far from the clamp
    spread = np.var([e.X[i] for e in ests], ddof=1)
    mean_vhat = np.mean([e.variance[i] for e in ests])
    assert 0.5 < mean_vhat / spread < 2.0


def test_coverage_small():
    g = gen_er(30, 0.25, 8)
    truth = brute_force_counts(g)
    i = 12 - 1
    hits = 0
    for s in range(200):
        est = sample_and_estimate(g, SampleDesign(p=0.4, seed=s))
        lb, ub = confidence_bounds(est, alpha=0.05)
        hits += lb[i] <= truth[i] <= ub[i]
    assert hits >= 180


def test_fixed_size_estimation():
    g = gen_er(25, 0.3, 9)
    truth = brute_force_counts(g)
    est = sample_and_estimate(g, SampleDesign(size=g.m, seed=0))
    assert est.X == truth  # full draw is exact
    runs = np.array(
        [sample_and_estimate(g, SampleDesign(size=g.m // 2, seed=s)).X
         for s in range(300)],
        dtype=float,
    )
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    i = 12 - 1
    assert abs(mean[i] - truth[i]) <= 4 * se[i]


def test_weighted_estimate_has_ci():
    g = gen_er(25, 0.3, 10)
    est = sample_and_estimate(g, SampleDesign(size=40, weighting="kcore", seed=2))
    assert est.p is None  # several core levels, several inclusion probabilities
    assert all(v >= 0 for v in est.variance) and est.variance[12 - 1] > 0
    lb, ub = confidence_bounds(est)
    assert all(l <= x <= u for l, x, u in zip(lb, est.X, ub))


def test_weighted_unbiased_triangles():
    g = gen_er(20, 0.35, 11)
    truth = brute_force_counts(g)
    runs = np.array(
        [sample_and_estimate(g, SampleDesign(size=60, weighting="kcore", seed=s)).X
         for s in range(300)],
        dtype=float,
    )
    i = 3 - 1
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    assert abs(mean[i] - truth[i]) <= 4 * se[i]


def test_weighted_without_replacement_runs():
    g = gen_er(20, 0.35, 11)
    est = sample_and_estimate(
        g, SampleDesign(size=g.m // 2, weighting="kcore", seed=3))
    assert est.variance is not None
    assert all(x >= 0 for x in est.X)


def test_clamp_flags_surface():
    # diamond, central edge only in the sample: the chordal-cycle correction
    # drives the tailed-triangle slot negative, which must clamp and flag
    g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    central = g.edge_id(0, 1)
    acc = accumulate(g, [central], inclusion=Fraction(1, 2))
    est = estimate_counts(g, acc)
    assert est.clamped[9 - 1]
    assert est.X[9 - 1] == 0
    assert est.X[8 - 1] == pytest.approx(2.0)
    # the complement slot is built from the raw (unclamped) level sum
    assert est.X[17 - 1] == pytest.approx(1 / 3)
    assert all(x >= 0 for x in est.X)


def test_alpha_validation_and_width():
    g = gen_er(25, 0.3, 13)
    est = sample_and_estimate(g, SampleDesign(p=0.5, seed=1))
    with pytest.raises(ValueError):
        confidence_bounds(est, alpha=0)
    lb95, ub95 = confidence_bounds(est, alpha=0.05)
    lb99, ub99 = confidence_bounds(est, alpha=0.01)
    i = 12 - 1
    assert ub99[i] - lb99[i] > ub95[i] - lb95[i]
    assert all(l >= 0 for l in lb95)


def test_exact_bounds_are_the_exact_counts():
    # a single edge among 2e8 vertices: slot 17 is past 2**53, where a float
    # bound would exclude the exact count; the marks' untouched pages cost no RSS
    n = 2 * 10**8
    g = Graph(n=n, indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32),
              edges=np.array([[0, 1]]))
    est = exact_counts(g)
    assert est.X[17 - 1] == 66666664666666665000000449999997
    lb, ub = confidence_bounds(est)
    assert lb == est.X and ub == est.X
    assert all(type(v) is int for v in lb + ub)


# --- distributions ---------------------------------------------------------

def test_gfd_variants(named):
    X = exact_counts(gen_er(30, 0.3, 14)).X
    for variant, width in (("connected", 6), ("disconnected", 5), ("combined", 11)):
        d = gfd(X, variant)
        assert len(d) == width
        assert sum(d) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gfd(X, "all")
    # K4 alone has no disconnected 4-vertex patterns
    with pytest.raises(ValueError):
        gfd(exact_counts(named["K4"]).X, "disconnected")
