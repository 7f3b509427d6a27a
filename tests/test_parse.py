"""The bulk reader: detection rules, regression cases and round-trip properties."""

import gzip
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import serialize
from graphlets import GraphParseError, from_edges, graph, load_graph, parse_graph
from graphlets.graph import FORMATS, decode_graph_bytes

MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n"


def parse_error(text, **kw) -> GraphParseError:
    with pytest.raises(GraphParseError) as info:
        parse_graph(text, **kw)
    return info.value


# ---------------------------------------------------------------------------
# the four ingestion bugs, each with its documented outcome


def test_header_over_a_non_canonical_body_raises():
    # once read as an edge list with the header as an edge (n = 5, m = 4)
    text = "4 3\n1 0\n1 2\n2 3"
    exc = parse_error(text)
    assert exc.lineno == 2 and "--input-format edgelist" in str(exc)
    assert parse_error(text, fmt="canonical").lineno == 2
    g = parse_graph(text, fmt="edgelist")
    assert (g.n, g.m) == (5, 4)
    assert g.labels == [4, 3, 1, 0, 2]


def test_edge_list_with_a_header_like_first_row():
    # rule 2 reads a consistent "n m" first row as a header ...
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert (g.n, g.m, g.labels) == (3, 2, None)
    # ... and an inconsistent body raises instead of falling back
    exc = parse_error("2 1\n5 7\n")
    assert exc.lineno == 2 and "--input-format edgelist" in str(exc)
    # the edge list reading is one flag away
    g = parse_graph("3 2\n0 1\n1 2\n", fmt="edgelist")
    assert (g.n, g.m) == (4, 3)
    assert g.labels == [3, 2, 0, 1]
    # a first row that no graph could have as its header is an edge
    assert parse_graph("0 1\n1 2\n").m == 2  # n = 0 cannot hold an edge
    assert parse_graph("5 9\n0 1\n").m == 2  # 9 rows declared, 1 found


@pytest.mark.parametrize("text, fmt, lineno", [
    ("0 1\n1 1\n1 2", "auto", 2),
    ("0 1\n1 1\n1 2", "edgelist", 2),
    ("a b\n\n# c\nb b\n", "auto", 4),
    ("3 2\n0 1\n1 1\n", "auto", 3),
    ("3 2\n0 1\n1 1\n", "canonical", 3),
    (MTX + "% c\n3 3 2\n2 1\n2 2\n", "auto", 5),
    (MTX + "3 3 1\n3 3\n", "mtx", 3),
])
def test_self_loops_raise_at_their_line(text, fmt, lineno):
    exc = parse_error(text, fmt=fmt)
    assert exc.lineno == lineno and "self-loop" in str(exc)


def test_edgeless_graphs():
    for text, fmt in [("3 0\n", "auto"), ("3 0\n", "canonical"),
                      (MTX + "3 2 0\n", "auto"), ("3 3 0\n", "mtx")]:
        g = parse_graph(MTX + text if fmt == "mtx" else text, fmt=fmt)
        assert (g.n, g.m) == (3, 0)
        assert g.indptr.tolist() == [0, 0, 0, 0]
        assert g.edges.shape == (0, 2)
    assert from_edges([], n=4) == parse_graph("4 0")
    assert from_edges(np.empty((0, 2)), n=0).n == 0
    # an edge list cannot name isolated vertices: no rows is no graph
    for text in ["", "\n\n", "# only a comment\n"]:
        assert parse_error(text).lineno is None


# ---------------------------------------------------------------------------
# detection rules and the reader's other outcomes


def test_integer_labels_compare_as_integers():
    g = parse_graph("7 8\n007 9\n9 8\n")
    assert (g.n, g.m) == (3, 3)
    assert g.labels == [7, 8, 9]
    assert parse_error("7 9\n007 7\n", fmt="edgelist").lineno == 2  # a self-loop
    # one non-integer label makes every label a string
    g = parse_graph("7 8\n007 x\n")
    assert g.labels == ["7", "8", "007", "x"]


def test_canonical_rows_must_be_distinct_and_in_range():
    assert "duplicate" in str(parse_error("3 2\n0 1\n0 1\n"))
    assert parse_error("3 2\n0 1\n1 3\n").lineno == 3
    assert parse_error("3 2\n0 1\n1 x\n").lineno == 3
    assert parse_error("3 2\n0 1 2\n1 2\n").lineno == 2
    # the earliest offending row is reported, whichever rule it breaks
    assert parse_error("4 3\n0 1\n2 1\n0 9\n").lineno == 3
    with pytest.raises(GraphParseError):
        parse_graph("0 1\n1 2\n", fmt="canonical")  # no consistent header


def test_formats_are_listed_once():
    from graphlets.cli import UsageError, build_parser

    assert FORMATS == ("auto", "edgelist", "canonical", "mtx")
    for fmt in FORMATS:
        assert build_parser().parse_args(["exact", "g", "--input-format", fmt])
    with pytest.raises(UsageError):
        build_parser().parse_args(["exact", "g", "--input-format", "dot"])
    with pytest.raises(ValueError):
        parse_graph("0 1\n", fmt="dot")


def test_gzip_is_detected_by_content(tmp_path):
    path = tmp_path / "graph.dat"  # no .gz suffix
    path.write_bytes(gzip.compress(b"0 1\n1 2\n2 0\n"))
    assert load_graph(path).m == 3
    plain = tmp_path / "plain.gz"  # a suffix alone does not make gzip
    plain.write_text("0 1\n")
    assert load_graph(plain).m == 1


def test_undecodable_input_is_a_parse_error(tmp_path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9 bar\n".encode("latin-1"))
    with pytest.raises(GraphParseError, match="UTF-8"):
        load_graph(latin)
    broken = tmp_path / "broken.gz"
    broken.write_bytes(gzip.compress(b"0 1\n")[:12])
    with pytest.raises(GraphParseError):
        load_graph(broken)


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # once read as a label: the header became an edge, "\ufeff1" a vertex
    g = parse_graph(decode_graph_bytes("\ufeff3 2\n0 1\n1 2\n".encode(), "x"))
    assert (g.n, g.m, g.labels) == (3, 2, None)
    g = parse_graph("\ufeff1 2\n2 1\n3 1\n")
    assert g.labels == [1, 2, 3]
    # a file loads as parse_graph reads its text: one mark dropped, a second kept
    for k in range(3):
        text = "\ufeff" * k + "0 1\n1 2\n"
        want = outcome(text, "auto")
        for name, data in [("bom", text.encode()), ("bom.gz", gzip.compress(text.encode()))]:
            path = tmp_path / name
            path.write_bytes(data)
            assert outcome(path, "auto", load=True) == want, (k, name)
    assert outcome("\ufeff" * 2 + "0 1\n1 2\n", "auto")[-1][0] == (str, "\ufeff0")


# ---------------------------------------------------------------------------
# canonical rows: the first bad row, by a plain scan in order

HINT = "; use --input-format edgelist to read the text as an edge list"
WRAP = 2**33  # u and u + k * WRAP give equal keys u * 2**31 + v mod 2**64


def canonical_reference(text):
    """parse_graph(text, "canonical") by a row scan: the graph's n and edges, or
    the first bad row's (line, message).  Tokens are ASCII, of at most 18 chars."""
    rows = [(i, line.replace(",", " ").split()) for i, line in enumerate(text.split("\n"), 1)
            if line.strip() and line.lstrip()[0] not in "#%"]
    (_, (n, m)), rows = rows[0], rows[1:]
    n, seen = int(n), set()
    assert int(m) == len(rows)
    if len(rows) > n * (n - 1) // 2:
        return 1, "expected an 'n m' header followed by m edge rows"
    for lineno, (a, b) in rows:
        if not (a.isdecimal() and b.isdecimal()):
            return lineno, "expected two non-negative integers"
        u, v = int(a), int(b)
        if u == v:
            return lineno, "self-loop"
        if u > v:
            return lineno, "canonical rows need u < v"
        if v >= n:
            return lineno, f"vertex id not below the header's n = {n}"
        if (u, v) in seen:
            return lineno, "duplicate edge"
        seen.add((u, v))
    return n, sorted(seen)


@st.composite
def canonical_texts(draw):
    """A canonical header over rows that mix valid pairs, duplicates at any
    distance, reversed rows, self-loops, out-of-range v, non-integer tokens,
    18-digit integers, and rows whose packed key wraps onto an earlier row's."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(10**17, 10**18 - 1)))
    small = st.integers(0, min(n, 14) - 1)
    big = st.integers(10**17, 10**18 - 1)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "copy", "reversed", "loop",
                                     "out", "token", "big", "wrap"]))
        a, b = sorted([draw(small), draw(small)])
        if kind == "pair" and a < b:
            row = (a, b)
        elif kind == "copy" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "reversed":
            row = (b, a)
        elif kind == "loop":
            row = (a, a)
        elif kind == "out":
            row = (a, n + draw(st.integers(0, 2)))
        elif kind == "token":
            row = draw(st.sampled_from([("x", b), (a, "-1"), ("1.5", b), (a, "0x1")]))
        elif kind == "big":
            row = (draw(big), draw(big))
        elif kind == "wrap" and rows and all(isinstance(x, int) for x in rows[-1]):
            u, v = rows[-1]
            row = (u + WRAP * draw(st.integers(1, 10**8)), v)
        else:
            row = (a, b + 1)
        rows.append(row)
    lines = [f"{n} {len(rows)}"]
    for u, v in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# note", "% 1 2"])))
        sep = draw(st.sampled_from([" ", "\t", ","]))
        lines.append(f"{u}{sep}{v}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(canonical_texts())
@example("5 0\n")  # m = 0
@example("3 1\n0 2\n")  # a single row
@example("5 3\n0 1\n0 9\n0 1\n")  # a duplicate after an out-of-range row
@example("5 3\n0 1\n0 1\n0 9\n")  # ... and before one
@example(f"{10**17} 2\n1 5\n{1 + WRAP} 5\n")  # a reversed row wraps onto row 1's key
@example(f"{10**17} 2\n0 {2**31}\n1 0\n")  # a reversed row meets row 1's key
@example(f"{2**31} 3\n0 1\n1 2\n0 1\n")  # a duplicate, not the n error
@example("9 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 1\n")  # a late copy, the only fault
def test_canonical_errors_match_a_row_scan(text):
    want = canonical_reference(text)
    try:
        g = parse_graph(text, fmt="canonical")
    except GraphParseError as exc:
        lineno, message = want
        assert (exc.lineno, str(exc)) == (lineno, f"line {lineno}: {message}{HINT}")
        return
    except ValueError as exc:  # no bad row, but n past the int32 ids
        assert want[0] >= 2**31 and str(exc) == f"n={want[0]} does not fit the int32 vertex ids"
        return
    n, edges = want
    assert g.n == n and g.edges.tolist() == [list(e) for e in edges]


# ---------------------------------------------------------------------------
# the tokenizer's byte route (numeric ASCII text) agrees with its str route


def outcome(text, fmt, load=False):
    """What parse_graph makes of text (load_graph of a path when ``load``): the
    graph, labels typed, or the error."""
    try:
        g = load_graph(text, fmt) if load else parse_graph(text, fmt=fmt)
    except ValueError as exc:  # GraphParseError, or an n past int32
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)
    labels = g.labels and [(type(x), x) for x in g.labels]
    return g.n, g.indptr.tolist(), g.indices.tolist(), g.edges.tolist(), labels


def routes_agree(text, fmt="auto") -> bool:
    """Assert both routes give one outcome; True when the byte route applies."""
    with mock.patch.object(graph, "_tokenize", graph._str_tokens):
        want = outcome(text, fmt)
    assert outcome(text, fmt) == want
    tokens = graph._byte_tokens(text)
    if tokens is None:
        return False
    first, *arrays = graph._str_tokens(text)
    assert tokens[0] == first
    for got, ref in zip(tokens[1:], arrays):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    return True


@pytest.mark.parametrize("text, byte_route", [
    ("0 1\n# c 5 6\n1 2\n\n% d\n2 0", True),  # comments between rows, no final \n
    (",# x\n0 1\r\n1 2\r\n", True),  # ",# x" is a comment
    ("1#2\n0 1\n", False),  # "1#2" is one token, not a comment
    ("3 2\n0 1\n1 2 3\n", True),
    ("0 123456789012345678\n", True),  # 18 digits
    ("0 1234567890123456789\n", False),  # 19 digits
    ("-1 2\n", False),
    ("0 1\r1 2\n", False),
    ("0 1\x0b1 2\n", False),
    ("0 1\n\x1f\n", False),
    ("0 1\n1 2\u2028", False),
    ("# only a comment\n", False),
    (MTX + "3 3 2\n2 1\n3 1\n", True),
])
def test_routes_agree_on(text, byte_route):
    assert routes_agree(text) is byte_route
    assert routes_agree(text, "edgelist") is byte_route


def test_comment_rows_keep_their_line_numbers():
    g = parse_graph("0 1\n# c 5 6\n1 2\n\n% d\n2 0")
    assert (g.m, g.labels) == (3, [0, 1, 2])
    assert parse_error("0 1\n# c\n,% d\n1 2 3\r\n").lineno == 4


DIGITS = st.sampled_from([17, 18, 19]).flatmap(  # 18 to 20 digits
    lambda k: st.integers(10**k, 10**(k + 1) - 1)).map(str)
TOKEN = st.one_of(st.integers(0, 5).map(str), st.sampled_from(["00", "007"]),
                  st.integers(0, 10**6).map(str), DIGITS)
SEP = st.sampled_from([" ", "\t", ",", " ,\t"])
LINE = st.one_of(
    st.tuples(TOKEN, SEP, TOKEN).map("".join),
    st.lists(st.one_of(TOKEN, SEP), max_size=4).map("".join),
    st.sampled_from(["", "# c 1", "% 2", ",# x", "\t#", "1#2", MTX.strip()]),
)
HOSTILE = st.sampled_from(["\r", "-", "a", "Z", "#", "%", "\x0b", "\x0c", "\x1c", "\x1d",
                           "\x1e", "\x1f", "\x85", "\xa0", "\u2028"])


@st.composite
def graph_texts(draw):
    lines = draw(st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n"])), max_size=10))
    text = "".join(line + eol for line, eol in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line with no line break
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(HOSTILE) + text[i:]
    return text


@settings(max_examples=300)
@given(graph_texts(), st.sampled_from(FORMATS))
def test_byte_and_str_routes_agree(text, fmt):
    routes_agree(text, fmt)


# ---------------------------------------------------------------------------
# round-trip properties


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return from_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2), n=n)


@given(graphs())
def test_serialize_parse_roundtrip(g):
    back = parse_graph(serialize(g))
    assert back == g and back.labels is None
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


INTS = st.integers(-5, 10**9)  # sparse, some negative
TEXT = st.text("abcxyz_.-", min_size=1, max_size=4)


@pytest.mark.parametrize("labels", [INTS, TEXT, st.one_of(TEXT, INTS)],
                         ids=["ints", "text", "mixed"])
@given(data=st.data())
def test_edge_list_matches_first_appearance_reference(labels, data):
    rows = data.draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=40))
    # with one text label every label is text; otherwise they are integers
    ints = all(isinstance(x, int) for row in rows for x in row)
    key = (lambda x: x) if ints else str
    rows = [(a, b) for a, b in rows if key(a) != key(b)]
    if not rows:
        return
    ids = {}  # the reference: dense ids by first appearance
    for row in rows:
        for x in row:
            ids.setdefault(key(x), len(ids))
    want = from_edges([(ids[key(a)], ids[key(b)]) for a, b in rows], n=len(ids))

    def token(x):
        if ints and x >= 0 and data.draw(st.booleans()):
            return "0" + str(x)  # a leading zero names the same integer
        return str(x)

    lines = []
    for a, b in rows:
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "  ", "# note", "% note"])))
        sep = data.draw(st.sampled_from([" ", "\t", ",", " ,\t", "  "]))
        lines.append(f"{token(a)}{sep}{token(b)}")
    g = parse_graph("\n".join(lines) + "\n", fmt="edgelist")
    assert g == want
    assert g.labels == list(ids)


@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_mtx_has_the_header_n(rows, cols, data):
    n = max(rows, cols)
    entry = st.tuples(st.integers(1, rows), st.integers(1, cols))
    entries = data.draw(st.lists(entry.filter(lambda e: e[0] != e[1]), max_size=40))
    valued = data.draw(st.booleans())
    body = "".join(f"{i} {j}" + (" 1.5" if valued else "") + "\n" for i, j in entries)
    g = parse_graph(f"{MTX}% a comment\n{rows} {cols} {len(entries)}\n{body}")
    assert g.n == n
    assert g == from_edges(np.array(entries, dtype=np.int64).reshape(-1, 2) - 1, n=n)


# ---------------------------------------------------------------------------
# edge-list labels get dense ids by first appearance from one sort


def unique_route(tok):
    """Labels by first appearance and each token's id, through np.unique."""
    labels, first, inverse = np.unique(tok, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return labels[order], rank[inverse]


@st.composite
def label_rows(draw):
    """Rows of two int64 or str labels, drawn from a small pool so they repeat."""
    label = st.integers(-2**63, 2**63 - 1) if draw(st.booleans()) else st.text(max_size=4)
    pool = draw(st.lists(label, min_size=1, max_size=12, unique=True))
    tok = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=60))
    return np.array(tok[:len(tok) // 2 * 2])


@given(label_rows())
@example(np.array([7, 3]))  # a single row
@example(np.array(["b", "a"]))
@example(np.array([5, 5, 5, 5]))
@example(np.array([2**61 - 1, 0, 2**61 - 1, 3]))  # the largest that packs for 4 tokens
@example(np.array([2**61, 0, 2**61, 3]))  # one past it: the argsort route
@example(np.array([4, -1, 0, 4]))  # a negative label: the argsort route
def test_first_appearance_ids_equal_the_unique_route(tok):
    labels, ids = graph._first_appearance_ids(tok)
    want_labels, want_ids = unique_route(tok)
    assert labels.dtype == want_labels.dtype and labels.tolist() == want_labels.tolist()
    assert ids.dtype == want_ids.dtype and ids.tolist() == want_ids.tolist()
