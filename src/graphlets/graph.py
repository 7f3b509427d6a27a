"""Undirected simple-graph container and text ingestion.

The in-memory form is CSR adjacency (sorted neighbor lists) plus a canonical
edge table: rows (u, v) with u < v, sorted lexicographically.  The row index
of that table is the edge id used everywhere else (sampling, per-edge
statistics, tie breaking).

``load_graph(path)`` reads a file, gunzipping it when it starts with the gzip
magic bytes, and ``parse_graph(text)`` parses text.  Parsing drops one
leading byte-order mark and tokenizes once into one array, and no Python loop
runs over rows after that.  Lines break where ``str.splitlines`` breaks them,
tokens split on commas and on any whitespace ``str.split`` knows, and blank
lines and lines whose first token starts with ``#`` or ``%`` are dropped.
ASCII text broken only by ``\\n`` or ``\\r\\n``, whose data rows hold nothing
but digits, spaces, tabs and commas in tokens of at most 18 digits, is
tokenized from its bytes in numpy; any other text goes through Python strings.
Both routes yield the same tokens.  Under ``fmt="auto"``:

1. a ``%%MatrixMarket`` banner (or ``fmt="mtx"``) means MatrixMarket: a
   ``rows cols nnz`` line, nnz 1-based ``i j [value]`` rows, n = max(rows, cols);
2. otherwise a first row ``n m`` of non-negative integers with m <= C(n, 2)
   and exactly m rows after it is a canonical header (``fmt="canonical"``
   requires it, ``fmt="edgelist"`` skips this rule).  The rows must then be
   distinct pairs 0 <= u < v < n, or GraphParseError names the first bad line;
3. otherwise the text is an edge list, its labels compacted to dense ids by
   first appearance.  Integer labels that fit in int64 compare as integers.

Every format rejects self-loops at their line and allows m = 0.

A load sorts once, with unstable ``np.sort`` of packed int64 keys.
``from_edges`` sorts both orientations' keys src * n + dst in one array, in
place.  Rule 2's duplicate check sorts the keys u * n + v and runs a stable
``np.lexsort`` only when two are equal, to name the later copy's line.  Rule
3's first-appearance ids sort tok * L + position when every token is a
non-negative int64 and max * L + L - 1 fits in int64 (L tokens), and take
one ``np.argsort`` otherwise.

``core_numbers()``, ``up_lists()`` and ``local.zone_kernel`` are built on
first use and cached on the ``Graph``.  The up-lists orient every edge from
its lower- to its higher-ranked end by (degree, id), the rank of
``wholegraph`` (Chiba and Nishizeki 1985): vertex w's list holds its
neighbors ranked above w, in id order, so the lists hold each edge once and
their lengths sum to m.  They are a second CSR (int64 offsets, int32 ids)
sized by the CSR, never by ``n``.
"""

from __future__ import annotations

import ctypes
import gzip
import os
import zlib
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

FORMATS = ("auto", "edgelist", "canonical", "mtx")

try:  # glibc's; elsewhere the C heap is left as its allocator keeps it
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError, TypeError):
    _malloc_trim = None


class GraphParseError(ValueError):
    """Raised when graph text cannot be parsed; carries the offending line."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass
class Graph:
    """CSR adjacency of a simple graph on n vertices, 0 <= n < 2**31 (int32 ids)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    edges: np.ndarray  # (m, 2), u < v, lexicographically sorted
    labels: list | None = None  # dense id -> original label; None means identity
    _adj_bits: list[int] | None = field(default=None, repr=False, compare=False)
    _core: np.ndarray | None = field(default=None, repr=False, compare=False)
    _up: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False,
                                                      compare=False)
    _zones: object = field(default=None, repr=False, compare=False)  # local.zone_kernel

    def __post_init__(self):
        _check_n(self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a CSR slice, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_id(self, u: int, v: int) -> int:
        """Row index of edge {u, v} in the canonical table; KeyError if absent."""
        a, b = (u, v) if u < v else (v, u)
        lo = np.searchsorted(self.edges[:, 0], a, side="left")
        hi = np.searchsorted(self.edges[:, 0], a, side="right")
        j = lo + np.searchsorted(self.edges[lo:hi, 1], b)
        if j < hi and self.edges[j, 1] == b:
            return int(j)
        raise KeyError(f"({u}, {v}) is not an edge")

    def edge_hardness(self) -> np.ndarray:
        """Degree-sum work proxy d(u) + d(v) per edge id."""
        deg = self.degrees
        return deg[self.edges[:, 0]] + deg[self.edges[:, 1]]

    def adjacency_bits(self) -> list[int]:
        """Per-vertex neighbor bitmasks (arbitrary-size ints), built lazily."""
        if self._adj_bits is None:
            bits = [0] * self.n
            for u, v in self.edges:
                bits[u] |= 1 << int(v)
                bits[v] |= 1 << int(u)
            self._adj_bits = bits
        return self._adj_bits

    def core_numbers(self) -> np.ndarray:
        """k-core number per vertex via level-synchronous peeling; cached."""
        if self._core is None:
            self._core = _peel_cores(self)
        return self._core

    def up_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, ids) of each vertex's neighbors ranked above it; cached."""
        if self._up is None:
            deg = self.degrees
            rank = deg * len(deg) + np.arange(len(deg))  # (degree, id) order
            above = rank[self.indices] > np.repeat(rank, deg)
            offsets = np.concatenate([[0], np.cumsum(above)])[self.indptr]
            self._up = offsets, self.indices[above]
        return self._up

    def edge_core(self) -> np.ndarray:
        """min(core[u], core[v]) per edge id."""
        core = self.core_numbers()
        return np.minimum(core[self.edges[:, 0]], core[self.edges[:, 1]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges.shape == other.edges.shape
            and bool(np.array_equal(self.edges, other.edges))
        )


def _check_n(n: int) -> None:
    if not 0 <= n < 2**31:
        raise ValueError(f"n={n} does not fit the int32 vertex ids")


def resolve_edge(g: Graph, edge) -> tuple[int, int]:
    """Normalize an edge given as an id or a (u, v) pair to its endpoints."""
    if hasattr(edge, "__len__"):
        if len(edge) != 2:
            raise ValueError(f"edge pair must have two vertices, got {edge!r}")
        u, v = int(edge[0]), int(edge[1])
        g.edge_id(u, v)  # raises KeyError if absent
        return (u, v) if u < v else (v, u)
    e = int(edge)
    if not (0 <= e < g.m):
        raise ValueError(f"edge id {e} out of range for m={g.m}")
    u, v = g.edges[e]
    return int(u), int(v)


def from_edges(pairs, n: int | None = None, labels: list | None = None) -> Graph:
    """Build a Graph from an iterable of (u, v) int pairs.

    Self-loops are dropped and duplicates merged.  ``n`` overrides the
    inferred vertex count (max id + 1), never shrinking it; with ``n`` given
    there may be no pairs at all, which builds an edgeless graph.
    """
    arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge array must have shape (m, 2)")
    if arr.min(initial=0) < 0:
        raise ValueError("vertex ids must be non-negative")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        arr = arr[~loops]
    n_seen = int(arr.max(initial=-1)) + 1
    if n is None:
        if not n_seen:
            raise GraphParseError("graph has no edges and no declared n")
        n = n_seen
    elif n < n_seen:
        raise ValueError(f"declared n={n} smaller than max vertex id {n_seen - 1}")
    _check_n(n)  # before anything of length n is allocated

    # both orientations as keys src * n + dst, written into one array and
    # sorted in place by an unstable np.sort: they are the CSR order, and the
    # src < dst half is the lexicographic edge table
    m = len(arr)
    keys = np.empty(2 * m, dtype=np.int64)
    u, v = arr.T
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    del arr, u, v  # a copy made above is not held through the sort
    keys.sort()
    if (keys[1:] == keys[:-1]).any():  # repeated pairs
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    src = keys // n  # not np.divmod: it lacks the fast path of // by a scalar
    dst = np.subtract(keys, src * n, out=keys)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    up = src < dst
    edges = np.empty((len(dst) // 2, 2), dtype=np.int32)
    np.compress(up, src, out=edges[:, 0])
    np.compress(up, dst, out=edges[:, 1])
    return Graph(n=n, indptr=indptr, indices=dst.astype(np.int32), edges=edges,
                 labels=labels)


# A frontier narrower than this drains the rest of its level from a Python
# list: a numpy wave costs about 20-30 us, one drained vertex about 2 us, and
# waves alone would take L/2 of them on a path of L vertices.
_WAVE_MIN = 8


def _peel_cores(g: Graph) -> np.ndarray:
    """Core numbers by level-synchronous peeling (cf. Julienne, SPAA 2017): at
    level k, the least live degree, every live vertex of degree <= k gets core
    k and leaves, and the neighbors that drop to k join the level."""
    from .local import _gather  # deferred: local imports this module
    deg = g.degrees.astype(np.int64)
    core = np.zeros(g.n, dtype=np.int64)
    alive = np.ones(g.n, dtype=bool)
    live = np.arange(g.n)
    while len(live):
        k = int(deg[live].min())
        front = live[deg[live] <= k]
        while len(front) >= _WAVE_MIN:  # O(frontier + its neighbor entries)
            core[front], alive[front] = k, False
            nbr = _gather(g.indptr, g.indices, front)[0]
            nbr = nbr[alive[nbr]]
            np.subtract.at(deg, nbr, 1)
            front = np.unique(nbr[deg[nbr] <= k])
        core[front], alive[front] = k, False
        drain = front.tolist()
        for v in drain:  # a neighbor joins exactly when its degree reaches k
            for w in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == k:
                        core[w], alive[w] = k, False
                        drain.append(w)
        live = live[alive[live]]
    return core


def serialize(g: Graph) -> str:
    """Canonical text form: header ``n m`` then sorted ``u v`` rows (u < v)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse graph text in one of ``FORMATS``, by the rules of the module docstring."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format hint {fmt!r}")
    g = _parse_tokens(fmt, *_tokenize(text.removeprefix("\ufeff")))
    # The tokens and the parse's scratch arrays, tens of MB on a large input,
    # are free now.  glibc keeps freed heap pages resident below any block
    # still live above them, so without a trim whether a parse leaves that
    # memory resident turns on where one small block happened to land, and a
    # later peak moves with it from one input to the next.
    if _malloc_trim is not None:
        _malloc_trim(0)
    return g


def _parse_tokens(fmt, first, tok, widths, lineno) -> Graph:
    if fmt == "mtx" or first[:1] == ["%%MatrixMarket"]:
        return _parse_mtx(first, tok, widths, lineno)
    if not len(widths):
        raise GraphParseError("no edges in input")
    if fmt == "canonical" or (fmt == "auto" and _header(tok, widths)):
        return _parse_canonical(tok, widths, lineno)
    return _parse_edgelist(tok, widths, lineno)


def _tokenize(text: str):
    """(first non-blank line's tokens, the data rows' tokens as one array, each
    data row's width and line number); data rows are not blank or ``#``/``%``
    lines.  The array is int64 when every token is an integer, else str."""
    return _byte_tokens(text) or _str_tokens(text)


def _str_tokens(text: str):
    """``_tokenize`` for any text, through Python strings."""
    lines = text.replace(",", " ").splitlines()
    first = next(filter(None, map(str.split, lines)), [])
    keep = [line.lstrip()[:1] not in "#%" for line in lines]  # "" (blank) is in "#%"
    lineno = np.flatnonzero(keep) + 1
    lines = list(compress(lines, keep))
    widths = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    flat = " ".join(lines).split()  # per-row token lists would double time and memory
    del lines
    if "".join(flat).replace("-", "").isdecimal():
        try:
            return first, np.array(flat, dtype=np.int64), widths, lineno
        except (ValueError, OverflowError):  # a stray "-", or past int64
            pass
    return first, np.array(flat, dtype=str), widths, lineno


# Byte classes of the numeric route.  _BREAK holds the ASCII line breaks of
# str.splitlines other than \n and \r\n; _MARK and _ODD bytes may stand only
# in comment lines.
_DIGIT, _SEP, _LF, _CR, _BREAK, _MARK, _ODD = range(7)
_BYTE_CLASS = np.full(256, _ODD, dtype=np.uint8)
for _chars, _cls in [(b"0123456789", _DIGIT), (b" \t,", _SEP), (b"\n", _LF),
                     (b"\r", _CR), (b"\v\f\x1c\x1d\x1e", _BREAK), (b"#%", _MARK)]:
    _BYTE_CLASS[list(_chars)] = _cls


def _byte_tokens(text: str):
    r"""``_tokenize`` in numpy, or None when the text needs ``_str_tokens``.

    Applies to ASCII text broken only by \n or \r\n whose data rows hold
    digits, spaces, tabs and commas alone, in tokens of at most 18 digits.
    Tokens are then the digit runs, and a line is a comment when its first
    byte that is not a space, tab or comma is ``#`` or ``%``.
    """
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    cls = _BYTE_CLASS[b]
    cr = np.flatnonzero(cls == _CR)
    # a \r must precede \n; a final \r is clamped to read itself
    if (cls == _BREAK).any() or (b[np.minimum(cr + 1, len(b) - 1)] != 10).any():
        return None
    lf = np.flatnonzero(cls == _LF)  # line r ends at lf[r], the last at len(b)
    digit = np.zeros(len(b) + 2, dtype=bool)
    np.equal(cls, _DIGIT, out=digit[1:-1])
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[::2], bounds[1::2]  # digit run i is b[starts[i]:ends[i]]
    cum = np.concatenate([[0], np.searchsorted(starts, lf), [len(starts)]])
    wid = np.diff(cum)  # line r holds runs cum[r]:cum[r + 1]
    odd = np.flatnonzero(cls >= _MARK)
    del cls, digit
    line = np.searchsorted(lf, odd)
    head = np.diff(line, prepend=-1) != 0  # the first odd byte of its line
    odd, line = odd[head], line[head]
    # so each such line must be a comment: that byte is # or %, no run before it
    if ((_BYTE_CLASS[b[odd]] != _MARK).any()
            or (np.searchsorted(starts, odd) > cum[line]).any()):
        return None
    uncommented = np.ones(len(wid), dtype=bool)
    uncommented[line] = False
    keep = np.repeat(uncommented, wid)
    starts, ends = starts[keep], ends[keep]
    wid[line] = 0
    if not len(starts):
        return None  # no data rows: the str route's (empty) outcome is cheap
    lens = ends - starts
    if lens.max() > 18:
        return None
    rows = np.flatnonzero(wid)
    r = min(rows[:1].tolist() + line[:1].tolist())  # the first non-blank line
    lo, hi = (lf[r - 1] + 1 if r else 0), (lf[r] if r < len(lf) else len(b))
    first = text[lo:hi].replace(",", " ").split()
    tok = np.zeros(len(starts), dtype=np.int64)
    for j in range(lens.max()):  # add each run's j-th digit from the right, times 10**j
        d = b[ends - 1 - j].astype(np.int64) - 48  # index -1 only where masked
        d[lens <= j] = 0
        tok += d * 10**j
    return first, tok, wid[rows], rows + 1


def _naturals(tokens) -> list[int] | None:
    """A few tokens as ints when each is a non-negative decimal integer."""
    tokens = [str(t) for t in tokens]
    return [int(t) for t in tokens] if all(t.isdecimal() for t in tokens) else None


def _int_pairs(pairs: np.ndarray):
    """(rows of two non-negative integers, the pairs as int64 with 0 elsewhere)."""
    if pairs.dtype.kind == "i":  # two column compares: all(axis=1) takes 10x as long
        return (pairs[:, 0] >= 0) & (pairs[:, 1] >= 0), pairs
    ok = (np.char.isdecimal(pairs) & (np.char.str_len(pairs) <= 18)).all(axis=1)
    return ok, np.where(ok[:, None], pairs, "0").astype(np.int64)


def _fail_first(lineno: np.ndarray, checks, suffix: str = "") -> None:
    """Raise GraphParseError at the earliest row flagged by any (mask, message)."""
    flagged = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if flagged:
        row, i = min(flagged)
        raise GraphParseError(checks[i][1] + suffix, int(lineno[row]))


def _header(tok: np.ndarray, widths: np.ndarray) -> bool:
    """Rule 2: a first row ``n m`` of naturals, with m <= C(n, 2) rows after it."""
    nm = _naturals(tok[:2]) if widths[0] == 2 else None
    return bool(nm) and nm[1] == len(widths) - 1 and nm[1] <= nm[0] * (nm[0] - 1) // 2


def _parse_canonical(tok, widths, lineno) -> Graph:
    hint = "; use --input-format edgelist to read the text as an edge list"
    if not _header(tok, widths):
        raise GraphParseError("expected an 'n m' header followed by m edge rows" + hint,
                              int(lineno[0]))
    n = int(tok[0])
    lineno = lineno[1:]
    _fail_first(lineno, [(widths[1:] != 2, "expected a 'u v' row")], hint)
    ok, uv = _int_pairs(tok[2:].reshape(-1, 2))
    u, v = uv.T
    checks = [
        (~ok, "expected two non-negative integers"),
        (u == v, "self-loop"),
        (u > v, "canonical rows need u < v"),
        (v >= n, f"vertex id not below the header's n = {n}"),
    ]
    # Duplicates: one unstable np.sort of the keys u * n + v (n capped at
    # 2**31, past which from_edges rejects n anyway).  Equal rows give equal
    # keys and distinct valid rows distinct ones.  A row that breaks another
    # rule may wrap its key or match another row's; equal keys only send the
    # check to a stable lexsort, which decides and flags each later copy.
    keys = u * min(n, 2**31)
    keys += v
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        order = np.lexsort((v, u))
        dup = np.zeros(len(u), dtype=bool)
        dup[order[1:]] = (np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)
        checks.append((dup, "duplicate edge"))
    del keys
    _fail_first(lineno, checks, hint)
    return from_edges(uv, n=n)


def _parse_edgelist(tok, widths, lineno) -> Graph:
    _fail_first(lineno, [(widths != 2, "expected two labels")])
    labels, ids = _first_appearance_ids(tok)
    _fail_first(lineno, [(ids[::2] == ids[1::2], "self-loop")])
    return from_edges(ids.reshape(-1, 2), n=len(labels), labels=labels.tolist())


def _first_appearance_ids(tok: np.ndarray):
    """(distinct tokens by first appearance, each token's index among them), from
    one unstable sort.

    When every token is a non-negative int64 and max * L + L - 1 fits in int64
    (L tokens), that is an in-place np.sort of the distinct keys tok * L +
    position, so a run of equal tokens starts at its first appearance.  Other
    tokens (str, negative, or too large to pack) take np.argsort, and a run's
    least position is its first appearance.
    """
    size = len(tok)
    packed = (tok.dtype == np.int64 and size > 0 and tok.min() >= 0
              and int(tok.max()) * size + size - 1 < 2**63)
    if packed:
        keys = tok * size
        keys += np.arange(size)
        keys.sort()
        ranked = keys // size
        order = np.subtract(keys, ranked * size, out=keys)
    else:
        order = np.argsort(tok)
        ranked = tok[order]
    heads = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]][:size])
    first = order[heads] if packed else np.minimum.reduceat(order, heads)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(heads))
    ids = np.empty_like(order)
    ids[order] = np.repeat(rank, np.diff(heads, append=size))
    return ranked[heads[by_first]], ids


def _parse_mtx(banner, tok, widths, lineno) -> Graph:
    if banner[:3] != ["%%MatrixMarket", "matrix", "coordinate"]:
        raise GraphParseError(f"unsupported MatrixMarket banner {' '.join(banner)!r}")
    if not len(widths) or widths[0] != 3 or not _naturals(tok[:3]):
        raise GraphParseError("expected a 'rows cols nnz' line after the banner")
    n, nnz = max(int(tok[0]), int(tok[1])), int(tok[2])
    widths, lineno = widths[1:], lineno[1:]
    _fail_first(lineno, [((widths < 2) | (widths > 3), "expected 'i j' or 'i j value'")])
    if len(widths) != nnz:
        raise GraphParseError(f"header declared {nnz} entries, found {len(widths)}")
    starts = np.cumsum(widths) - widths + 3
    ok, ij = _int_pairs(np.column_stack([tok[starts], tok[starts + 1]]))
    _fail_first(lineno, [
        (~ok, "non-integer index"),
        (((ij < 1) | (ij > n)).any(axis=1), f"index out of range 1..{n}"),
        (ij[:, 0] == ij[:, 1], "self-loop (diagonal entry)"),
    ])
    return from_edges(ij - 1, n=n)


def decode_graph_bytes(data: bytes, source) -> str:
    """Graph file bytes as text: gunzipped when they start with the gzip magic
    bytes, then strict UTF-8 less one leading byte-order mark.  Anything else
    raises GraphParseError naming ``source``."""
    try:
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        return data.decode("utf-8-sig")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise GraphParseError(f"{source}: not gzip or UTF-8 text ({exc})") from None


def load_graph(path: str | os.PathLike, fmt: str = "auto") -> Graph:
    """Read a graph file, gzipped (by its magic bytes) or not, and parse it."""
    with open(os.fspath(path), "rb") as fh:
        text = decode_graph_bytes(fh.read(), path)
    return parse_graph(text, fmt)
