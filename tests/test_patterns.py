import pytest

from graphlets import patterns


def test_taxonomy_shape():
    assert patterns.PATTERN_IDS == tuple(range(1, 18))
    names = [patterns.NAMES[i] for i in patterns.PATTERN_IDS]
    assert len(set(names)) == 17
    assert (patterns.NAMES[1], patterns.NAMES[3], patterns.NAMES[7]) == (
        "edge", "triangle", "4-clique")


def test_size_groups():
    # ids 1, 2 hold 2 vertices; ALL_K3 holds 3; ALL_K4 holds 4; together, every id
    assert patterns.ALL_K3 == (3, 4, 5, 6)
    assert patterns.CONNECTED_K4 + patterns.DISCONNECTED_K4 == patterns.ALL_K4
    assert (1, 2) + patterns.ALL_K3 + patterns.ALL_K4 == patterns.PATTERN_IDS


def test_edge_counts_match_structure():
    # edges per pattern: the touchstone values the multiplicity identity uses
    assert patterns.EDGE_COUNTS[1] == 1
    assert patterns.EDGE_COUNTS[2] == 0
    assert patterns.EDGE_COUNTS[3] == 3  # triangle
    assert patterns.EDGE_COUNTS[7] == 6  # 4-clique
    assert patterns.EDGE_COUNTS[8] == 5  # chordal cycle
    assert patterns.EDGE_COUNTS[10] == 4  # 4-cycle
    assert patterns.EDGE_COUNTS[12] == 3  # 4-path
    assert patterns.EDGE_COUNTS[17] == 0
    # every connected 4-vertex pattern holds at least 3 edges (a spanning tree)
    assert all(patterns.EDGE_COUNTS[pid] >= 3 for pid in patterns.CONNECTED_K4)
    # only the three edgeless patterns admit no per-edge count
    assert [pid for pid in patterns.PATTERN_IDS if patterns.EDGE_COUNTS[pid] == 0] == [2, 6, 17]


@pytest.mark.parametrize(
    "degrees,edges,expect",
    [
        ((3, 3, 3, 3), 6, 7),
        ((2, 2, 3, 3), 5, 8),
        ((1, 2, 2, 3), 4, 9),
        ((2, 2, 2, 2), 4, 10),
        ((1, 1, 1, 3), 3, 11),
        ((1, 1, 2, 2), 3, 12),
        ((0, 2, 2, 2), 3, 13),
        ((0, 1, 1, 2), 2, 14),
        ((1, 1, 1, 1), 2, 15),
        ((0, 0, 1, 1), 1, 16),
        ((0, 0, 0, 0), 0, 17),
    ],
)
def test_classify_small(degrees, edges, expect):
    assert patterns.classify_small(edges, tuple(sorted(degrees))) == expect


def test_resolve_pattern():
    assert patterns.resolve_pattern(7) == 7
    assert patterns.resolve_pattern("7") == 7
    assert patterns.resolve_pattern("4-clique") == 7
    assert patterns.resolve_pattern("triangle") == 3
    with pytest.raises(KeyError):
        patterns.resolve_pattern(0)
    with pytest.raises(KeyError):
        patterns.resolve_pattern("pentagon")
