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
Both routes yield the same tokens.  The byte route reads the text in blocks of
about ``BLOCK`` bytes, each ending just after a ``\\n`` (a longer line is a
block of its own).  A block encodes only its own slice and writes its tokens,
row widths and line numbers straight into the output arrays, so no scratch
array is as long as the text; a block that refuses the byte route refuses the
whole text.  Under ``fmt="auto"``:

1. a ``%%MatrixMarket`` banner (or ``fmt="mtx"``) means MatrixMarket: a
   ``rows cols nnz`` line, nnz 1-based ``i j [value]`` rows, n = max(rows, cols);
2. otherwise a first row ``n m`` of non-negative integers with m <= C(n, 2)
   and exactly m rows after it is a canonical header (``fmt="canonical"``
   requires it, ``fmt="edgelist"`` skips this rule).  The rows must then be
   distinct pairs 0 <= u < v < n, or GraphParseError names the first bad line;
3. otherwise the text is an edge list, its labels compacted to dense ids by
   first appearance.  Integer labels that fit in int64 compare as integers.

Every format rejects self-loops at their line and allows m = 0.

Every format ends in ``from_edges``, which sorts both orientations' keys
src * n + dst in one array, in place, by an unstable ``np.sort``, and merges
repeated pairs.  MatrixMarket and canonical text sort nothing more: a
canonical load whose rows break no other rule and lose none to that merge is
the graph, and only a failing load, or one whose n is past the int32 ids,
runs a stable ``np.lexsort`` to name a duplicate's line.  An edge list also
sorts its tokens once for the first-appearance ids: the packed keys tok * L +
position when every token is a non-negative int64 and max * L + L - 1 fits
in int64 (L tokens), else one ``np.argsort``.

``core_numbers()`` and ``local.zone_kernel`` are built on first use and
cached on the ``Graph``.
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
    _core: np.ndarray | None = field(default=None, repr=False, compare=False)
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

    def core_numbers(self) -> np.ndarray:
        """k-core number per vertex via level-synchronous peeling; cached."""
        if self._core is None:
            self._core = _peel_cores(self)
        return self._core

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


def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions starts[i] + j for every j < lens[i], concatenated in order of i."""
    heads = np.cumsum(lens) - lens  # where each run lands in the output
    out = np.repeat(starts - heads, lens)
    out += np.arange(len(out))
    return out


def _gather(offsets: np.ndarray, ids: np.ndarray, verts: np.ndarray):
    """The lists of ``verts`` in the CSR (offsets, ids), concatenated without a
    Python loop, and each list's length."""
    starts = offsets[verts]
    lens = offsets[verts + 1] - starts
    return ids[_positions(starts, lens)], lens


# A frontier narrower than this drains the rest of its level from a Python
# list: a numpy wave costs about 20-30 us, one drained vertex about 2 us, and
# waves alone would take L/2 of them on a path of L vertices.
_WAVE_MIN = 8


def _peel_cores(g: Graph) -> np.ndarray:
    """Core numbers by level-synchronous peeling (cf. Julienne, SPAA 2017): at
    level k, the least live degree, every live vertex of degree <= k gets core
    k and leaves, and the neighbors that drop to k join the level."""
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
_CLASSES = _BYTE_CLASS.tobytes()  # bytes.translate tables: 3-4x a fancy index
_VALUES = bytes(48) + bytes(range(10)) + bytes(198)  # digit -> its value, else 0
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# The byte route reads its text in blocks of about BLOCK bytes of whole lines,
# so its dozen scratch arrays stay in the cache and in heap pages already
# held; at the length of the text each would take a fresh page every 4 KiB,
# and a fresh page costs 2-3 us on a 2-vCPU VM.  Tokenizing the perfbench pl
# (0.8 MB) and snap (2.1 MB) inputs, 2^15 to 2^18 read about the same; 2^14
# was 1.2-1.3x slower, its fixed numpy calls per block no longer paid for,
# and one block of the whole text 1.25x (pl) and 1.75x (snap).
BLOCK = 2**17


def _byte_tokens(text: str):
    r"""``_tokenize`` in numpy, or None when the text needs ``_str_tokens``.

    Applies to ASCII text broken only by \n or \r\n whose data rows hold
    digits, spaces, tabs and commas alone, in tokens of at most 18 digits.
    Tokens are then the digit runs, and a line is a comment when its first
    byte that is not a space, tab or comma is ``#`` or ``%``.  The text is
    read one block of whole lines at a time (``BLOCK``), each writing its
    tokens, row widths and line numbers into the outputs; a block that
    refuses refuses the text.
    """
    if not text.isascii():
        return None
    lines = text.count("\n") + 1  # so at most this many rows
    tok = np.empty(2 * lines, dtype=np.int64)  # grown when rows hold more
    widths = np.empty(lines, dtype=np.int64)
    lineno = np.empty(lines, dtype=np.int64)
    first, ntok, nrow, line0, lo = None, 0, 0, 1, 0
    while lo < len(text):
        hi = lo + BLOCK  # then back to a \n, or on to one past a longer line
        hi = (len(text) if hi >= len(text) else
              text.rfind("\n", lo, hi) + 1 or text.find("\n", hi) + 1 or len(text))
        pb = b" " + text[lo:hi].encode("ascii") + b" "  # a space before each run
        lo = hi
        block = _block_runs(pb, first is None)
        if block is None:
            return None
        head, pre, last, rows, wid, breaks = block
        first = first or head
        k, r = len(pre), len(rows)
        if ntok + k > len(tok):  # a new array: its tail repeats tok, to be overwritten
            tok = np.resize(tok, max(2 * len(tok), ntok + k))
        _digit_values(pb, pre, last, out=tok[ntok:ntok + k])
        widths[nrow:nrow + r] = wid
        np.add(rows, line0, out=lineno[nrow:nrow + r])
        ntok, nrow, line0 = ntok + k, nrow + r, line0 + breaks
    if not ntok:
        return None  # no data rows: the str route's (empty) outcome is cheap
    # Copied out at their length, not resized in place.  With the capacity
    # arrays held to the end of the parse, a CLI estimate on the 2 MB perfbench
    # SNAP input peaked 5 MB higher: its heap was as large, but the zone
    # kernel's arrays landed on more of the pages the parse had trimmed.
    return first, tok[:ntok].copy(), widths[:nrow].copy(), lineno[:nrow].copy()


def _block_runs(pb: bytes, want_first: bool):
    """One block's digit runs, or None when it refuses the text.

    ``pb`` is the block's whole lines with a space on each side.  Returns the
    first non-blank line's tokens (None unless ``want_first`` and it is in
    this block), each data run's ``pre`` (the byte before it) and ``last``
    (its last digit), the data rows' line indices in the block, their
    widths, and the block's number of line breaks.
    """
    if b"\r" in pb and pb.count(b"\r") != pb.count(b"\r\n"):
        return None  # a \r must precede \n, so a final \r refuses
    cls = np.frombuffer(pb.translate(_CLASSES), np.uint8)
    if (cls == _BREAK).any():
        return None
    lf = np.flatnonzero(cls == _LF)  # line r ends at lf[r], the last at len(pb)
    digit = cls == _DIGIT
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    pre, last = bounds[::2], bounds[1::2]  # run i is pb[pre[i] + 1:last[i] + 1]
    cum = np.concatenate([[0], np.searchsorted(pre, lf), [len(pre)]])
    wid = np.diff(cum)  # line r holds runs cum[r]:cum[r + 1]
    odd = np.flatnonzero(cls >= _MARK)
    line = np.searchsorted(lf, odd)
    lead = np.diff(line, prepend=-1) != 0  # the first odd byte of its line
    odd, line = odd[lead], line[lead]
    # so each such line must be a comment: that byte is # or %, no run before it
    if (cls[odd] != _MARK).any() or (np.searchsorted(pre, odd) > cum[line]).any():
        return None
    uncommented = np.ones(len(wid), dtype=bool)
    uncommented[line] = False
    keep = np.repeat(uncommented, wid)
    pre, last = pre[keep], last[keep]
    wid[line] = 0
    if (last - pre).max(initial=0) > 18:
        return None
    rows = np.flatnonzero(wid)
    head = None
    if want_first and (len(rows) or len(line)):
        r = min(rows[:1].tolist() + line[:1].tolist())  # the first non-blank line
        lo, hi = (lf[r - 1] + 1 if r else 0), (lf[r] if r < len(lf) else len(pb))
        head = pb[lo:hi].decode("ascii").replace(",", " ").split()
    return head, pre, last, rows, wid[rows], len(lf)


def _digit_values(pb: bytes, pre: np.ndarray, last: np.ndarray, out: np.ndarray) -> None:
    """Write each run pb[pre + 1:last + 1] of decimal digits into ``out`` as an int."""
    value = np.frombuffer(pb.translate(_VALUES), np.uint8)
    at = last.copy()
    out[:] = value[at]
    for j in range(1, int((last - pre).max(initial=0))):  # each run's j-th digit from the right
        at -= 1
        np.maximum(at, pre, out=at)  # a run past its start reads the 0 before it
        # dtype=: numpy 1.x's value-based casting would multiply in uint8 and wrap
        out += np.multiply(value[at], _POW10[j], dtype=np.int64)


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
    if n < 2**31 and not any(bad.any() for bad, _ in checks):
        g = from_edges(uv, n=n)
        if g.m == len(uv):  # no repeated row was merged
            return g
    # name the first bad line: a stable lexsort flags each later copy of a row
    order = np.lexsort((v, u))
    dup = np.zeros(len(u), dtype=bool)
    dup[order[1:]] = (np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)
    _fail_first(lineno, checks + [(dup, "duplicate edge")], hint)
    return from_edges(uv, n=n)  # no bad row: from_edges rejects the n


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
    bytes, then strict UTF-8; ``parse_graph`` drops one leading byte-order
    mark.  Anything else raises GraphParseError naming ``source``."""
    try:
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        return data.decode("utf-8")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise GraphParseError(f"{source}: not gzip or UTF-8 text ({exc})") from None


def load_graph(path: str | os.PathLike, fmt: str = "auto") -> Graph:
    """Read a graph file, gzipped (by its magic bytes) or not, and parse it."""
    with open(os.fspath(path), "rb") as fh:
        text = decode_graph_bytes(fh.read(), path)
    return parse_graph(text, fmt)
