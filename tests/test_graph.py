import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import neighbors, serialize, suite_graphs
from graphlets import (
    Graph,
    GraphParseError,
    from_edges,
    load_graph,
    parse_graph,
    resolve_edge,
)
from graphlets import graph
from graphlets.graph import _WAVE_MIN


def test_graph_rejects_n_past_int32():
    # the neighbor ids are int32, so n must stay below 2**31
    kw = dict(indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32),
              edges=np.array([[0, 1]]))
    assert Graph(n=2**31 - 1, **kw).n == 2**31 - 1
    for n in (2**31, -1):
        with pytest.raises(ValueError):
            Graph(n=n, **kw)
    with pytest.raises(ValueError):
        from_edges([(0, 1)], n=2**31)


def test_from_edges_basic():
    g = from_edges([(1, 0), (0, 1), (2, 2), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.degrees.tolist() == [1, 2, 1]


def test_from_edges_n_override():
    g = from_edges([(0, 1)], n=5)
    assert g.n == 5
    assert g.degrees[4] == 0
    # declaring fewer vertices than the edges need is a caller bug
    with pytest.raises(ValueError):
        from_edges([(0, 9)], n=3)


def test_from_edges_refuses_bad_shapes_and_negative_ids():
    with pytest.raises(ValueError, match=r"^edge array must have shape \(m, 2\)$"):
        from_edges(np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(ValueError, match="^vertex ids must be non-negative$"):
        from_edges([(0, 1), (-1, 2)])


def test_from_edges_empty_is_error():
    with pytest.raises(ValueError):
        from_edges([])
    with pytest.raises(ValueError):
        from_edges([(3, 3)])  # self-loop only


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       st.integers(0, 3), st.booleans(), st.booleans())
def test_from_edges_matches_a_set_reference(pairs, extra, declare, as_array):
    # pairs hold self-loops, repeats and both orientations of an edge
    kept = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    n = max((b + 1 for _, b in kept), default=0) + extra if declare else None
    arg = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
    if n is None and not kept:
        with pytest.raises(GraphParseError):
            from_edges(arg)
        return
    g = from_edges(arg, n=n)
    want_n = n if declare else max(b for _, b in kept) + 1
    nbrs = [sorted({b for a, b in kept if a == v} | {a for a, b in kept if b == v})
            for v in range(want_n)]
    assert g.n == want_n
    assert g.indptr.tolist() == [sum(map(len, nbrs[:v])) for v in range(want_n + 1)]
    assert g.indices.dtype == np.int32
    assert g.indices.tolist() == [w for row in nbrs for w in row]
    assert g.edges.dtype == np.int32 and g.edges.flags.c_contiguous
    assert g.edges.shape == (len(kept), 2)
    assert g.edges.tolist() == [list(e) for e in sorted(kept)]


def test_csr_structure():
    g = from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    assert neighbors(g, 2).tolist() == [0, 1, 3]
    assert int(g.degrees.sum()) == 2 * g.m
    for e in range(g.m):
        u, v = g.edges[e]
        assert g.edge_id(int(u), int(v)) == e
        assert g.edge_id(int(v), int(u)) == e
        assert v in neighbors(g, int(u)) and u in neighbors(g, int(v))
    assert 3 not in neighbors(g, 0)
    with pytest.raises(KeyError):
        g.edge_id(0, 3)


def test_resolve_edge():
    g = from_edges([(0, 1), (1, 2)])
    assert resolve_edge(g, 0) == (0, 1)
    assert resolve_edge(g, (2, 1)) == (1, 2)
    with pytest.raises(ValueError):
        resolve_edge(g, 17)
    with pytest.raises(KeyError):
        resolve_edge(g, (0, 2))
    with pytest.raises(ValueError):
        resolve_edge(g, (0, 1, 2))


def test_core_numbers():
    tri_pendant = from_edges([(0, 1), (0, 2), (1, 2), (0, 3)])
    assert tri_pendant.core_numbers().tolist() == [2, 2, 2, 1]
    assert tri_pendant.edge_core().tolist() == [2, 2, 1, 2]
    k4 = from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.core_numbers().tolist() == [3, 3, 3, 3]
    path = from_edges([(0, 1), (1, 2), (2, 3)])
    assert path.core_numbers().tolist() == [1, 1, 1, 1]

    # chains peel one vertex per wave, so they drain
    long_path = from_edges([(i, i + 1) for i in range(1999)])
    assert long_path.core_numbers().tolist() == [1] * 2000
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k5_tail = from_edges(k5 + [(i, i + 1) for i in range(4, 1004)])
    assert k5_tail.core_numbers().tolist() == [4] * 5 + [1] * 1000
    star = from_edges([(0, leaf) for leaf in range(1, 21)])
    assert star.core_numbers().tolist() == [1] * 21
    isolated = from_edges([(0, 1), (0, 2), (1, 2)], n=6)
    assert isolated.core_numbers().tolist() == [2, 2, 2, 0, 0, 0]
    edgeless = from_edges([], n=5).core_numbers()
    assert edgeless.dtype == np.int64 and edgeless.tolist() == [0] * 5
    # one wide wave of ten leaves takes two degrees from vertex 0 (3 -> 1, so it
    # joins level 1) and eight from vertex 4, which stays in the K4 {3, 4, 5, 6}
    k4 = [(i, j) for i in range(3, 7) for j in range(i + 1, 7)]
    broom = from_edges([(0, 1), (0, 2), (0, 3)] + k4 + [(4, v) for v in range(7, 15)])
    assert broom.core_numbers().tolist() == [1, 1, 1] + [3] * 4 + [1] * 8


def test_every_edge_core_is_at_least_one():
    # a kcore draw weights each edge by its core: an edge at 0 would never be drawn
    graphs = [*suite_graphs().values(), from_edges([(0, 1)], n=5),
              parse_graph("4 0\n", fmt="canonical")]
    for g in graphs:
        core = g.edge_core()
        assert len(core) == g.m and (core >= 1).all()


def k_core(adj: list[set], k: int) -> set:
    """Vertices left after repeatedly deleting those of degree < k."""
    alive = set(range(len(adj)))
    while low := {v for v in alive if len(adj[v] & alive) < k}:
        alive -= low
    return alive


def reference_cores(g) -> list[int]:
    """Core number by definition: the largest k whose k-core holds the vertex."""
    adj = [set(neighbors(g, v).tolist()) for v in range(g.n)]
    core = [0] * g.n
    k = 1
    while survivors := k_core(adj, k):
        for v in survivors:
            core[v] = k
        k += 1
    return core


@st.composite
def pendant_tail_graphs(draw):
    """A random graph on n0 <= 48 vertices plus 8-12 pendant vertices and a tail
    of more than n0 / 7 + 1 vertices.  Level 1 starts with a wave of at least 8
    pendants.  Each later level-1 frontier holds one tail vertex, and a wide one
    needs 7 of the n0 others, so a thin frontier comes before the tail ends and
    the level ends in a drain."""
    n0 = draw(st.integers(1, 48))
    density = draw(st.floats(0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.argwhere(np.triu(rng.random((n0, n0)) < density, k=1)).tolist()
    vertex = st.integers(0, n0 - 1)
    nxt = n0
    for hub in draw(st.lists(vertex, min_size=8, max_size=12)):
        edges.append((hub, nxt))
        nxt += 1
    prev = draw(vertex)
    for _ in range(draw(st.integers(n0 // 7 + 2, 60))):
        edges.append((prev, nxt))
        prev, nxt = nxt, nxt + 1
    return from_edges(edges, n=nxt)


@settings(max_examples=100)
@given(pendant_tail_graphs())
def test_core_numbers_match_definition(g):
    waves = []
    gather = graph._gather

    def spy(offsets, ids, front):  # the peel gathers each wave's neighbors once
        waves.append(len(front))
        return gather(offsets, ids, front)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_gather", spy)
        core = g.core_numbers()
    assert core.dtype == np.int64 and core.tolist() == reference_cores(g)
    # both branches ran: waves only on wide frontiers, and every vertex no wave
    # removed was drained
    assert waves and min(waves) >= _WAVE_MIN
    assert sum(waves) < g.n


def test_edge_hardness():
    g = from_edges([(0, 1), (1, 2), (1, 3)])
    d = g.degrees
    assert g.edge_hardness().tolist() == [d[0] + d[1], d[1] + d[2], d[1] + d[3]]


def test_parse_edgelist_comments_and_commas():
    text = "# a comment\n0 1\n% another\n1,2\n2\t3\n"
    g = parse_graph(text)
    assert g.m == 3 and g.n == 4
    # weighted rows are rejected, not silently truncated
    with pytest.raises(GraphParseError):
        parse_graph("0 1\n2 3 0.7\n")


def test_parse_edgelist_labels():
    g = parse_graph("alice bob\nbob carol\n")
    assert g.n == 3 and g.m == 2
    assert g.labels == ["alice", "bob", "carol"]


def test_parse_edgelist_sparse_integer_ids():
    # endpoints compact by first appearance; originals survive as labels
    g = parse_graph("10 20\n20 30\n")
    assert g.n == 3 and g.m == 2
    assert g.labels == [10, 20, 30]


def test_parse_edgelist_bad_rows():
    with pytest.raises(GraphParseError):
        parse_graph("0 1 2 3\n")
    with pytest.raises(GraphParseError):
        parse_graph("justoken\n")
    # a row is a pair, nothing more: no silent third-column tolerance
    with pytest.raises(GraphParseError):
        parse_graph("0 1\na b c\n")


def test_parse_canonical_header():
    g = parse_graph("4 3\n0 1\n1 2\n2 3\n")
    assert g.n == 4 and g.m == 3
    # forced canonical rejects rows that break the contract
    with pytest.raises(GraphParseError):
        parse_graph("4 3\n0 1\n1 2\n3 2\n", fmt="canonical")  # u >= v
    with pytest.raises(GraphParseError):
        parse_graph("2 2\n0 1\n", fmt="canonical")  # row count mismatch


def test_canonical_auto_fallback():
    # looks like a header but the body disqualifies it -> plain edge list
    g = parse_graph("5 9\n0 1\n")
    assert g.m == 2 and g.n == 4
    assert g.labels == [5, 9, 0, 1]
    assert [g.edge_id(0, 1), g.edge_id(2, 3)] == [0, 1]


def test_parse_mtx():
    text = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% comment line\n"
        "5 5 3\n"
        "2 1\n"
        "3 2\n"
        "4 3\n"
    )
    g = parse_graph(text)
    assert g.n == 5 and g.m == 3  # isolated vertex 4 retained
    assert [g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(2, 3)] == [0, 1, 2]


def test_parse_mtx_errors():
    with pytest.raises(GraphParseError):
        parse_graph("%%MatrixMarket matrix array real\n2 2 1\n1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("%%MatrixMarket matrix coordinate pattern\n2 2 5\n1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("%%MatrixMarket matrix coordinate pattern\n2 2 1\n1 9\n")


def test_parse_rejects_unknown_format():
    with pytest.raises(ValueError):
        parse_graph("0 1\n", fmt="dot")


def test_serialize_roundtrip():
    g = from_edges([(0, 2), (2, 4), (1, 2)], n=6)
    back = parse_graph(serialize(g), fmt="canonical")
    assert back == g
    assert back.n == 6


def test_load_graph_path_text_and_gzip(tmp_path):
    plain = tmp_path / "g.txt"
    plain.write_text("0 1\n1 2\n")
    assert load_graph(plain).m == 2
    assert load_graph(str(plain)).m == 2

    gz = tmp_path / "g.txt.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write("0 1\n1 2\n2 3\n")
    assert load_graph(gz).m == 3

    # literal text goes to parse_graph; load_graph only reads paths
    assert parse_graph("0 1\n1 2\n").m == 2
    with pytest.raises(TypeError):
        load_graph(123)


def test_load_graph_missing_file(tmp_path):
    # every string names a path
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(FileNotFoundError, match="missing.txt"):
        load_graph(missing)
    with pytest.raises(FileNotFoundError):
        load_graph("missing.txt")
    # text is parsed by parse_graph, which reports parse errors
    with pytest.raises(GraphParseError):
        parse_graph("0 1 2\n")


def test_random_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        mask = np.triu(rng.random((n, n)) < 0.2, k=1)
        us, vs = np.nonzero(mask)
        if len(us) == 0:
            continue
        g = from_edges(np.column_stack([us, vs]), n=n)
        assert parse_graph(serialize(g)) == g
        # neighbor lists agree with the edge table
        for v in range(g.n):
            nbrs = set(neighbors(g, v).tolist())
            expect = {int(b) for a, b in g.edges if a == v} | {
                int(a) for a, b in g.edges if b == v
            }
            assert nbrs == expect


def test_graph_equality():
    a = from_edges([(0, 1)])
    b = from_edges([(0, 1)])
    c = from_edges([(0, 1)], n=3)
    assert a == b
    assert a != c
    assert a != "not a graph"
