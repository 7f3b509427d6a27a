"""Taxonomy of the seventeen induced patterns on 2, 3, and 4 vertices.

Patterns are numbered 1..17: the edge and non-edge (1, 2), the four 3-vertex
graphs (``ALL_K3``), and the six connected and five disconnected 4-vertex
graphs (``ALL_K4``).  Everything downstream (estimator, oracle, CLI output)
keys off this module so the numbering and the names exist in exactly one place.
"""

from __future__ import annotations

# id -> (name, edge count of the pattern)
_TABLE = {
    1: ("edge", 1),
    2: ("2-node-independent", 0),
    3: ("triangle", 3),
    4: ("2-star", 2),
    5: ("3-node-1-edge", 1),
    6: ("3-node-independent", 0),
    7: ("4-clique", 6),
    8: ("chordal-cycle", 5),
    9: ("tailed-triangle", 4),
    10: ("4-cycle", 4),
    11: ("3-star", 3),
    12: ("4-path", 3),
    13: ("4-node-1-triangle", 3),
    14: ("4-node-2-star", 2),
    15: ("4-node-2-edge", 2),
    16: ("4-node-1-edge", 1),
    17: ("4-node-independent", 0),
}

PATTERN_IDS = tuple(sorted(_TABLE))
NAMES = {pid: row[0] for pid, row in _TABLE.items()}
IDS_BY_NAME = {row[0]: pid for pid, row in _TABLE.items()}
EDGE_COUNTS = {pid: row[1] for pid, row in _TABLE.items()}

CONNECTED_K4 = (7, 8, 9, 10, 11, 12)
DISCONNECTED_K4 = (13, 14, 15, 16, 17)
ALL_K4 = CONNECTED_K4 + DISCONNECTED_K4
ALL_K3 = (3, 4, 5, 6)


def classify_small(edges: int, degree_multiset: tuple[int, ...]) -> int:
    """Map an induced subgraph on 4 vertices to its pattern id (7..17).

    ``degree_multiset`` is the sorted within-subgraph degree sequence; it is
    only consulted where the edge count alone is ambiguous (2, 3, or 4 edges).
    """
    if edges == 6:
        return 7
    if edges == 5:
        return 8
    if edges == 4:
        return 10 if degree_multiset == (2, 2, 2, 2) else 9
    if edges == 3:
        if degree_multiset == (1, 1, 1, 3):
            return 11
        if degree_multiset == (1, 1, 2, 2):
            return 12
        return 13  # (0, 2, 2, 2)
    if edges == 2:
        return 15 if degree_multiset == (1, 1, 1, 1) else 14
    if edges == 1:
        return 16
    return 17


def resolve_pattern(key: int | str) -> int:
    """Accept a pattern id (1..17) or a pattern name and return the id."""
    if isinstance(key, str):
        if key in IDS_BY_NAME:
            return IDS_BY_NAME[key]
        if key.isdigit() and int(key) in _TABLE:
            return int(key)
        raise KeyError(f"unknown pattern {key!r}")
    if key not in _TABLE:
        raise KeyError(f"pattern id must be in 1..17, got {key}")
    return int(key)
