"""Immutable undirected simple graphs: canonical edge arrays, the
degree-ordered forward CSR and the edge-membership index they probe."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# u*n+v edge keys must fit in int64
_MAX_VERTICES = 3_037_000_499
# original vertex ids are kept as int64 labels
_MIN_ID, _MAX_ID = -2**63, 2**63 - 1
# Slots per edge in the membership screen (rounded up to a power of two).
_SLOTS_PER_EDGE = 8


class EdgeListFormatError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    max_degree: int
    degree_histogram: tuple[int, ...]
    isolated: int


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with optional positive edge weights.

    Edges are stored canonically (u < v) and sorted lexicographically.
    Each edge is also stored once in the forward CSR ``fptr, fidx``,
    oriented from its lower to its higher endpoint in degree-then-id
    order, with strictly ascending rows; ``fpos`` gives the canonical
    edge index of each forward entry. Every membership probe, on g or a
    sample of its edges, is a ``lookup`` in the sorted keys u*n+v of the
    canonical edges, ``edge_keys``, through their ``screen``. All arrays
    are read-only, so instances are safe to share across threads.
    ``labels`` maps compact vertex ids back to the ids found in the input
    file; it is None for generated graphs.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    fptr: np.ndarray
    fidx: np.ndarray
    fpos: np.ndarray
    degrees: np.ndarray
    edge_keys: np.ndarray
    screen: np.ndarray
    weights: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.edge_u.size)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def edge_positions(self, us, vs) -> np.ndarray:
        """Positions of the (us[i], vs[i]) edges in the canonical edge
        arrays, or -1 where the edge is absent. Vectorized."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        keys = np.minimum(us, vs) * np.int64(self.n) + np.maximum(us, vs)
        idx, loc, hit = lookup(keys.ravel(), self.edge_keys, self.screen)
        pos = np.full(keys.shape, -1, dtype=np.int64)
        np.put(pos, idx[hit], loc[hit])
        return pos

    def has_edges(self, us, vs) -> np.ndarray:
        return self.edge_positions(us, vs) >= 0

    @staticmethod
    def build(n: int, edge_u, edge_v, weights=None, labels=None) -> "Graph":
        """Assemble a Graph from raw edge endpoint arrays.

        Self-loops are dropped, parallel edges collapse to the first
        occurrence (its weight wins for weighted input), and vertex ids
        must already lie in [0, n).
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > _MAX_VERTICES:
            raise ValueError(f"graph too large for int64 edge keys: n={n}")
        eu = np.asarray(edge_u, dtype=np.int64).ravel()
        ev = np.asarray(edge_v, dtype=np.int64).ravel()
        if eu.size != ev.size:
            raise ValueError("edge endpoint arrays differ in length")
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.size != eu.size:
                raise ValueError("weights array does not match edge count")
        if eu.size and (eu.min() < 0 or ev.min() < 0 or max(eu.max(), ev.max()) >= n):
            raise ValueError("vertex id out of range")

        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if w is not None:
            w = w[keep]

        keys = lo * np.int64(n) + hi
        if w is None:
            # no weight to keep, so any copy of an edge will do
            del lo, hi
            keys.sort()
            new = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            uniq = keys[new]
            del keys, new
            edge_u_f, edge_v_f = np.divmod(uniq, n)
        else:
            uniq, first = np.unique(keys, return_index=True)
            edge_u_f = lo[first]
            edge_v_f = hi[first]
            w = w[first]
            if not np.all((w > 0) & (w < np.inf)):
                raise ValueError("edge weights must be positive and finite")

        degrees = np.bincount(edge_u_f, minlength=n) + np.bincount(edge_v_f, minlength=n)
        rank = degrees * np.int64(n) + np.arange(n, dtype=np.int64)
        forward = rank[edge_u_f] < rank[edge_v_f]
        src = np.where(forward, edge_u_f, edge_v_f)
        dst = np.where(forward, edge_v_f, edge_u_f)
        # canonical order lists each row's dst ascending, so a stable sort by
        # src alone gives (src, dst) order; the narrowest dtype sorts fastest
        fpos = np.argsort(src.astype(np.min_scalar_type(n)), kind="stable")
        fidx = dst[fpos]
        fptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=fptr[1:])

        lab = None
        if labels is not None:
            lab = np.asarray(labels, dtype=np.int64).ravel()
            if lab.size != n:
                raise ValueError("labels array must have one entry per vertex")

        screen = slot_table(uniq, n)
        for arr in (edge_u_f, edge_v_f, fptr, fidx, fpos, degrees, uniq, screen, w, lab):
            if arr is not None:
                arr.setflags(write=False)
        return Graph(n=n, edge_u=edge_u_f, edge_v=edge_v_f, fptr=fptr, fidx=fidx,
                     fpos=fpos, degrees=degrees, edge_keys=uniq, screen=screen,
                     weights=w, labels=lab)


def slot_table(keys: np.ndarray, n: int) -> np.ndarray:
    """Membership screen over the edge keys: a bool table of 2^k slots,
    2^k >= min(n^2, 8m), with the slot of every key set. A probe whose
    slot is clear is no edge; one whose slot is set may be. With
    2^k >= n^2 no two keys share a slot and the screen is exact."""
    size = 1 << (min(n * n, _SLOTS_PER_EDGE * keys.size) - 1).bit_length()
    table = np.zeros(size, dtype=bool)
    table[keys & (size - 1)] = True
    return table


def lookup(probe: np.ndarray, keys: np.ndarray, table: np.ndarray):
    """Screen-then-confirm membership of the ``probe`` keys among the
    sorted ``keys``, given their ``slot_table``. Returns idx, the probes
    whose slot is set; loc, their insertion points in ``keys``; and hit,
    where ``keys[loc]`` is the probe itself. Only ``idx[hit]`` are edges,
    so the answer is exact whatever the screen passes."""
    idx = np.flatnonzero(table[probe & (table.size - 1)])
    cand = probe[idx]
    loc = np.searchsorted(keys, cand)
    np.minimum(loc, keys.size - 1, out=loc)
    return idx, loc, keys[loc] == cand


def load_edge_list(path, weighted: bool = False) -> Graph:
    """Load a whitespace-separated edge list.

    Lines starting with '#' or '%' are ignored, which accepts both
    SNAP-style and MatrixMarket-body-style files. Direction is dropped,
    self-loops are removed, duplicate edges collapse (first weight seen
    wins), and vertex ids are compacted to 0..n-1 in first-appearance
    order; the original ids are kept as ``labels``. In unweighted mode
    any tokens after the two vertex ids are ignored; in weighted mode a
    third token is read as a positive, finite edge weight (defaults to 1.0
    when absent). Vertex ids must fit in int64.
    """
    us, vs, ws, labels = _read_edge_list(Path(path), weighted)
    return Graph.build(labels.size, us, vs, weights=ws, labels=labels)


def _read_edge_list(path: Path, weighted: bool):
    """Parse the file into compact endpoint arrays, the weights (None
    unless weighted) and the labels.

    Unweighted files of plain id pairs are parsed with numpy; any other
    file goes through ``_parse_lines``, which also raises every format
    error."""
    data = path.read_bytes()
    if not weighted:
        # A slot per line holds every edge. Allocated before the parse
        # frees its larger temporaries, these come from mmap (glibc raises
        # its mmap threshold to the largest block freed), so their memory
        # returns to the OS after Graph.build; allocated later they stay
        # resident in the heap, 3.5 MiB on gnp(3000,0.05), and the
        # commands that follow peak that much higher.
        us = np.empty(data.count(b"\n") + 1, dtype=np.int64)
        vs = np.empty_like(us)
        ids = _vectorized_ids(data)
        if ids is not None:
            del data
            m = ids.size // 2
            labels = _compact_pairs(ids, us[:m], vs[:m])
            return us[:m], vs[:m], None, labels
    return _parse_lines(path, data, weighted)


# the only bytes _vectorized_ids reads after the leading comment lines
_PLAIN_BYTES = b"0123456789- \t\r\n"
# 10**18 - 1 < 2**63 - 1, so numpy cannot overflow on ids this short
_MAX_PLAIN_DIGITS = 18


def _vectorized_ids(data: bytes) -> np.ndarray | None:
    """The vertex ids of every edge line as one int64 array (u, v, u, v,
    ...), or None unless the per-line parser provably reads the file the
    same way.

    That holds for ASCII files whose leading lines are blank or comments
    and whose other lines hold exactly two ids of at most 18 digits,
    separated by spaces or tabs, each with an optional leading '-', ended
    by '\\n' or '\\r\\n'. A bare '\\r' (a line break in text mode), extra
    columns, comments after the first edge, '+' or '_' in a token and
    longer ids all return None.
    """
    start = _body_start(data)
    returns = data.count(b"\r")
    if (not data.isascii()
            or data.translate(None, _PLAIN_BYTES) != data[:start].translate(None, _PLAIN_BYTES)
            or returns and returns != data.count(b"\r\n")):
        return None
    body = data[start:]
    tokens = _plain_pair_tokens(np.frombuffer(body, dtype=np.uint8))
    if tokens is None:
        return None
    if not tokens:
        return np.empty(0, dtype=np.int64)  # fromstring reads a blank body as [0]
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    return ids if ids.size == tokens else None


def _plain_pair_tokens(buf: np.ndarray) -> int | None:
    """The number of tokens in ``buf`` (bytes of ``_PLAIN_BYTES`` only), or
    None unless every line is blank or holds two ids of at most 18 digits,
    each '-' opening a token and followed by a digit."""
    # word[i + 1]: byte i is part of a token; every separator is <= 32
    word = np.zeros(buf.size + 2, dtype=bool)
    np.greater(buf, 32, out=word[1:-1])
    minus = np.flatnonzero(buf == ord("-"))
    if minus.size and (word[minus].any() or minus[-1] == buf.size - 1
                       or (buf[minus + 1] - ord("0") >= 10).any()):
        return None  # a '-' inside a token or not followed by a digit
    starts = np.flatnonzero(word[1:] > word[:-1])
    digits = np.flatnonzero(word[1:] < word[:-1])
    del word
    digits -= starts
    digits -= buf[starts] == ord("-")
    if starts.size % 2 or (digits.size and digits.max() > _MAX_PLAIN_DIGITS):
        return None
    del digits
    # tokens before each line break: even everywhere (no line holds one or
    # three), and rising by 2 at most (no line holds four or more)
    before = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))
    if (before & 1).any() or np.diff(before, prepend=0, append=starts.size).max() > 2:
        return None
    return starts.size


def _body_start(data: bytes) -> int:
    """Offset of the first line that is neither blank nor a '#' or '%'
    comment."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        line = data[start:end].strip(b" \t\r\n")
        if line and line[0] not in b"#%":
            break
        start = end
    return start


def _compact_pairs(ids: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Write the endpoints of the (u, v, u, v, ...) ids, renumbered 0..n-1
    in order of first appearance, to ``us`` and ``vs``; return the
    original id of each number. Overwrites ``ids``."""
    if not ids.size:
        return ids
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span <= ids.size:
        distinct, keys = None, np.subtract(ids, lo, out=ids)  # dense ids index a table
    else:
        distinct, keys = np.unique(ids, return_inverse=True)
        span = distinct.size
    first = np.full(span, ids.size, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(ids.size))
    seen = np.flatnonzero(first < ids.size)
    order = seen[np.argsort(first[seen])]
    rank = np.empty(span, dtype=np.int64)
    rank[order] = np.arange(order.size)
    # mode="clip" writes straight into the output; every key is in range
    rank.take(keys[0::2], out=us, mode="clip")
    rank.take(keys[1::2], out=vs, mode="clip")
    return order + lo if distinct is None else distinct[order]


def _parse_lines(path: Path, data: bytes, weighted: bool):
    """The per-line parser: reads ``data`` as the text-mode lines of a
    UTF-8 file and returns what ``_read_edge_list`` does, raising
    EdgeListFormatError with the line number on any malformed line. The
    per-line lists die on return, so they are not alive while
    ``Graph.build`` runs."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise EdgeListFormatError(
            path, line_no, f"not UTF-8 text: {exc.reason} 0x{data[exc.start]:02x}") from None
    compact: dict[int, int] = {}
    labels: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []

    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped[0] in "#%":
                continue
            tokens = stripped.split()
            if len(tokens) < 2:
                raise EdgeListFormatError(path, line_no,
                                          "expected two vertex ids per line")
            try:
                u = int(tokens[0])
                v = int(tokens[1])
            except ValueError:
                raise EdgeListFormatError(
                    path, line_no,
                    f"vertex ids must be integers, got {tokens[0]!r} {tokens[1]!r}") from None
            w = 1.0
            if weighted and len(tokens) >= 3:
                try:
                    w = float(tokens[2])
                except ValueError:
                    raise EdgeListFormatError(
                        path, line_no, f"weight must be numeric, got {tokens[2]!r}") from None
                if not 0.0 < w < math.inf:
                    raise EdgeListFormatError(
                        path, line_no, f"edge weight must be positive and finite, got {tokens[2]!r}")
            for x in (u, v):
                if x not in compact:
                    if not _MIN_ID <= x <= _MAX_ID:
                        raise EdgeListFormatError(path, line_no, f"vertex id {x} does not fit in int64")
                    compact[x] = len(labels)
                    labels.append(x)
            us.append(compact[u])
            vs.append(compact[v])
            if weighted:
                ws.append(w)

    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64) if weighted else None,
            np.array(labels, dtype=np.int64))


def write_edge_list(path, g: Graph) -> None:
    """Write the canonical edge set, using original labels when present.

    Isolated vertices are not representable in this format and are lost
    on reload.
    """
    us, vs = g.edge_u, g.edge_v
    if g.labels is not None:
        us, vs = g.labels[us], g.labels[vs]
    columns = [us.tolist(), vs.tolist()]
    if g.is_weighted:
        columns.append(g.weights.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(str, row)) + "\n" for row in zip(*columns))


def stats(g: Graph) -> GraphStats:
    """Basic size and degree statistics used in dataset tables."""
    if g.n == 0:
        return GraphStats(0, 0, 0, (), 0)
    deg = g.degrees
    hist = np.bincount(deg)
    return GraphStats(
        n=g.n,
        m=g.m,
        max_degree=int(deg.max()),
        degree_histogram=tuple(int(c) for c in hist),
        isolated=int(np.count_nonzero(deg == 0)),
    )
