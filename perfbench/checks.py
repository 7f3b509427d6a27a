"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problems; an empty list means the output is
correct.  A timed operation whose output has any problem counts as failed.
Results are indexed by pattern id - 1, as the package reports them.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from collections import Counter

import numpy as np

from inputs import degree_sha

# 0-based slots: level 3 is pattern ids 3..6, level 4 is 7..17
LEVEL3 = slice(2, 6)
LEVEL4 = slice(6, 17)
CONNECTED4 = range(6, 12)  # ids 7..12
TRIANGLE, TWO_STAR = 2, 3
CLIQUE, CHORDAL, TAILED, CYCLE, STAR, PATH = 6, 7, 8, 9, 10, 11

# A sampled connected 4-vertex slot may sit at most this many of the
# estimate's own standard errors from the truth.  The plug-in variance is low
# exactly when a draw misses the rare hub edges, so |z| has a heavy tail: on
# the estimate-snap graph at p = 0.02, the largest |z| over the six slots had
# a 99th percentile of 5.1 and a maximum of 8.8 in 2,000 seeded draws.  The
# bound sits above that tail; a wrong coefficient or inclusion factor moves a
# slot by a multiple of its value, which is tens of SE.
Z_BOUND = 12.0
# The wedge estimate's SD is exact, and its |z| stayed under 4.2 in 9,000
# draws on both workload graphs at p = 0.02.
WEDGE_Z_BOUND = 6.0


class Ledger:
    """Operations attempted and failed, per layer."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def op(self, layer: str, fn, check=None):
        """Return fn(); one failed operation if it raises or check(result) finds problems."""
        self.attempted[layer] += 1
        try:
            result = fn()
            problems = check(result) if check else []
        except Exception:
            self.failed[layer] += 1
            traceback.print_exc(limit=6, file=sys.stderr)
            return None
        if problems:
            self.failed[layer] += 1
            for p in problems:
                print(f"[{layer}] check failed: {p}", file=sys.stderr)
        return result

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def level_sum_problems(X, n: int, exact: bool) -> list[str]:
    out = []
    for name, sl, total in (("3", LEVEL3, math.comb(n, 3)), ("4", LEVEL4, math.comb(n, 4))):
        got = sum(X[sl])
        ok = got == total if exact else math.isclose(got, total, rel_tol=1e-9)
        if not ok:
            out.append(f"level-{name} counts sum to {got}, expected C(n,{name}) = {total}")
    return out


def check_exact(X, reference, facts: dict) -> list[str]:
    """Exact counts: bitwise the workers=1 reference, and identities of the input.

    ``facts`` are the input's own facts (``inputs.graph_facts``): the level-2
    counts follow from n and m, the levels sum to C(n,3) and C(n,4), and
    sum C(d,2) = 2-star + 3 * triangle.  The facts also hold the benchmark's
    own counts of triangles and of non-induced 4-cycles, 3-stars and 4-vertex
    paths, each a fixed sum of induced counts, so these checks hold even if
    the reference is wrong.
    """
    n, m = facts["n"], facts["m"]
    out = []
    if list(X) != list(reference):
        bad = [i + 1 for i, (a, b) in enumerate(zip(X, reference)) if a != b]
        out.append(f"counts differ from the workers=1 reference at pattern ids {bad}")
    if not all(isinstance(x, int) for x in X):
        return out + ["exact counts are not all integers"]
    if X[0] != m or X[1] != math.comb(n, 2) - m:
        out.append("level-2 counts do not match m and C(n,2) - m")
    out.extend(level_sum_problems(X, n, exact=True))
    wedges = (facts["sum_d2"] - 2 * m) // 2
    if wedges != X[TWO_STAR] + 3 * X[TRIANGLE]:
        out.append(f"sum C(d,2) = {wedges} but 2-star + 3 * triangle = "
                   f"{X[TWO_STAR] + 3 * X[TRIANGLE]}")
    # non-induced subgraph counts as sums of induced ones
    for name, got in (
        ("triangles", X[TRIANGLE]),
        ("noninduced_4cycles", X[CYCLE] + X[CHORDAL] + 3 * X[CLIQUE]),
        ("noninduced_3stars", X[STAR] + X[TAILED] + 2 * X[CHORDAL] + 4 * X[CLIQUE]),
        ("noninduced_paths",
         X[PATH] + 2 * X[TAILED] + 4 * X[CYCLE] + 6 * X[CHORDAL] + 12 * X[CLIQUE]),
    ):
        if got != facts[name]:
            out.append(f"{name}: the counts give {got}, the input facts {facts[name]}")
    return out


def check_estimate(est, truth, facts: dict, p: float) -> list[str]:
    """A Bernoulli(p) ``GraphletEstimate``: z-bounds against the truth, level sums.

    Each connected 4-vertex slot must lie within ``Z_BOUND`` of its own SEs
    of the exact ``truth``.  The wedge estimate 2-star + 3 * triangle is
    (1/p) times the sum of (d(u) + d(v) - 2) / 2 over the sampled edges, so
    its exact SD is known from the input facts; it must lie within
    ``WEDGE_Z_BOUND`` of those SDs of sum C(d,2).  That catches a wrong
    inclusion factor, which a z-bound on the estimate's own SE would miss.
    """
    X, variance = est.X, est.variance
    if variance is None:
        return ["estimate carries no variance"]
    out = [] if est.p == p else [f"estimate reports inclusion {est.p}, the design has p = {p}"]
    for i in CONNECTED4:
        err = abs(float(X[i]) - float(truth[i]))
        se = math.sqrt(variance[i]) if variance[i] > 0 else 0.0
        if err > Z_BOUND * se:
            z = err / se if se > 0 else math.inf
            out.append(f"pattern id {i + 1}: |X - truth| = {err:.6g} is {z:.3g} SE (bound {Z_BOUND})")
    wedges = (facts["sum_d2"] - 2 * facts["m"]) / 2
    sd = math.sqrt((1 - p) / p * facts["edge_wedge_sq"] / 4)
    z = abs(X[TWO_STAR] + 3 * X[TRIANGLE] - wedges) / sd
    if z > WEDGE_Z_BOUND:
        out.append(f"2-star + 3 * triangle is {z:.3g} exact SDs from sum C(d,2) "
                   f"(bound {WEDGE_Z_BOUND})")
    if not any(est.clamped):  # a clamped slot legitimately breaks its level's sum
        out.extend(level_sum_problems(X, facts["n"], exact=False))
    return out


def check_max(value: int, edge_id: int, endpoints, scanned: int, pattern_id: int,
              sample_ids, edges, micro_value: int) -> list[str]:
    """Extremal result: the value is the micro count of its edge, drawn from the sample.

    ``micro_value`` is ``MicroKernel.counts`` on the reported edge, computed
    by the caller; ``edges`` is the graph's canonical edge table.
    """
    out = []
    sample = np.unique(np.asarray(sample_ids, dtype=np.int64))
    if not (0 <= edge_id < len(edges)) or edge_id not in set(sample.tolist()):
        return [f"edge {edge_id} is not in the drawn sample"]
    if tuple(int(x) for x in endpoints) != tuple(int(x) for x in edges[edge_id]):
        out.append(f"endpoints {tuple(endpoints)} are not those of edge {edge_id}")
    if value != micro_value:
        out.append(f"reported max {value} but MicroKernel.counts gives {micro_value} "
                   f"for pattern id {pattern_id} on edge {edge_id}")
    if scanned != len(sample):
        out.append(f"scanned {scanned} edges, sample has {len(sample)} distinct")
    return out


def check_graph(n: int, m: int, degrees, facts: dict) -> list[str]:
    """A loaded graph has the generator's n, m and degree multiset."""
    out = []
    if (n, m) != (facts["n"], facts["m"]):
        out.append(f"loaded n={n} m={m}, generated n={facts['n']} m={facts['m']}")
    elif degree_sha(degrees) != facts["degree_sha"]:
        out.append("loaded degree multiset differs from the generated one")
    return out


def check_cli(payload: dict, expected: dict) -> list[str]:
    """CLI JSON, minus ``timing`` and ``config``, equals the library result."""
    got = {k: v for k, v in payload.items() if k not in ("timing", "config")}
    want = json.loads(json.dumps(expected))  # same key and float forms as the CLI
    if got == want:
        return []
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"CLI output differs from the library result in {keys}"]
