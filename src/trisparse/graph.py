"""Immutable undirected simple graphs: canonical edge arrays, the
degree-ordered forward CSR and the edge-membership index they probe."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# vertex ids, forward positions and row offsets are int32, so n and the
# number of edges stay below 2^31
_MAX_INT32 = 2**31 - 1
# original vertex ids are kept as int64 labels
_MIN_ID, _MAX_ID = -2**63, 2**63 - 1
# Slots per edge in the membership screen (rounded up to a power of two):
# one byte each, so 8-16 bytes per edge.
_SLOTS_PER_EDGE = 8
# Most bytes per edge that the exact bit table and its rank directory may
# take, 3n^2/16 bytes in all (one bit per key u*n+v, one int32 per 64 of
# them); a graph past it keeps the screen. gnp(10000,0.02) needs 18.75.
_TABLE_BYTES_PER_EDGE = 32
# Keys the bit table's build sets at once.
_TABLE_BUILD_CHUNK = 1 << 18


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

    Edges are stored once, canonically (u < v), as their sorted keys
    ``edge_keys`` u*n+v, which is lexicographic edge order; ``edge_u``
    and ``edge_v`` decode them. Each edge is also stored once in the
    forward CSR ``fptr, fidx``, oriented from its lower to its higher
    endpoint in degree-then-id order, with strictly ascending rows;
    ``fpos`` gives the canonical edge index of each forward entry. Every
    membership probe, on g or a sample of its edges, is a ``lookup`` in
    the keys' ``index``: a ``BitTable`` where its n^2 bits fit
    ``_TABLE_BYTES_PER_EDGE``, else a ``SlotScreen``. Both give a key's
    canonical position. All arrays are read-only, so instances are safe
    to share across threads. ``labels`` maps compact vertex ids back to
    the ids found in the input file; it is None for generated graphs.

    The arrays the kernels stream are 32-bit: ``fptr``, ``fidx``,
    ``fpos`` and ``degrees`` are int32, and ``edge_keys`` are int32
    where n^2 < 2^31 (n <= 46340), else int64 (``key_dtype``); every
    key probed against them takes the same dtype. Per edge that is 8
    bytes of forward entries and 4 or 8 of keys, plus the index. n and
    the number of endpoint pairs given to ``build`` must be below 2^31.
    """

    n: int
    fptr: np.ndarray
    fidx: np.ndarray
    fpos: np.ndarray
    degrees: np.ndarray
    edge_keys: np.ndarray
    index: SlotScreen | BitTable
    weights: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.edge_keys.size)

    @property
    def edge_u(self) -> np.ndarray:
        """The lower endpoint of each canonical edge, decoded from its key
        into a new read-only int64 array: O(m) a call, so the kernels
        decode only the keys they need."""
        return _read_only(np.floor_divide(self.edge_keys, self.n, dtype=np.int64))

    @property
    def edge_v(self) -> np.ndarray:
        """The higher endpoint of each canonical edge, as ``edge_u``."""
        return _read_only(np.remainder(self.edge_keys, self.n, dtype=np.int64))

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def edge_positions(self, us, vs) -> np.ndarray:
        """Positions of the (us[i], vs[i]) edges in the canonical edge
        arrays, or -1 where the edge is absent. Vertex ids must lie in
        [0, n). Vectorized."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        keys = np.multiply(np.minimum(us, vs), self.n, dtype=self.edge_keys.dtype)
        keys += np.maximum(us, vs)
        idx, loc = lookup(keys.ravel(), self.index)
        pos = np.full(keys.shape, -1, dtype=np.int64)
        np.put(pos, idx, loc)
        return pos

    def has_edges(self, us, vs) -> np.ndarray:
        return self.edge_positions(us, vs) >= 0

    @staticmethod
    def build(n: int, edge_u, edge_v, weights=None, labels=None) -> "Graph":
        """Assemble a Graph from raw edge endpoint arrays.

        Self-loops are dropped, parallel edges collapse to the first
        occurrence (its weight wins for weighted input), and vertex ids
        must already lie in [0, n). n and the number of endpoint pairs
        must be below 2^31. Each temporary is freed once it is used, so
        the build holds little more than the finished graph.
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        eu, ev = np.asarray(edge_u), np.asarray(edge_v)
        check_size(n, max(eu.size, ev.size))
        if eu.size != ev.size:
            raise ValueError("edge endpoint arrays differ in length")
        eu, ev = _ids(eu), _ids(ev)
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.size != eu.size:
                raise ValueError("weights array does not match edge count")
        if eu.size and (eu.min() < 0 or ev.min() < 0 or max(eu.max(), ev.max()) >= n):
            raise ValueError("vertex id out of range")

        lo = np.minimum(eu, ev, dtype=np.int32)
        hi = np.maximum(eu, ev, dtype=np.int32)
        del eu, ev
        keep = lo != hi
        if not keep.all():
            lo, hi = lo[keep], hi[keep]
            if w is not None:
                w = w[keep]
        del keep
        # dtype= makes the product in the key dtype, not in int32
        keys = np.multiply(lo, n, dtype=key_dtype(n))
        keys += hi
        del lo, hi
        if w is None:
            # no weight to keep, so any copy of an edge will do
            keys.sort()
            new = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            uniq = keys if new.all() else keys[new]
            del new
        else:
            uniq, first = np.unique(keys, return_index=True)
            w = w[first]
            if not np.all((w > 0) & (w < np.inf)):
                raise ValueError("edge weights must be positive and finite")
        del keys
        # endpoints in the key dtype, only for the degrees and orientation
        u, v = np.divmod(uniq, n)
        degrees = np.bincount(u, minlength=n)
        degrees += np.bincount(v, minlength=n)
        degrees = degrees.astype(np.int32)
        # canonical u < v, so u precedes v in degree-then-id order, and the
        # edge points forward from u, exactly when deg u <= deg v
        forward = degrees[u] <= degrees[v]
        dst = u.astype(np.int32)
        np.copyto(dst, v, where=forward, casting="same_kind")
        # src in the narrowest dtype, which sorts fastest
        src = v.astype(np.min_scalar_type(n))
        np.copyto(src, u, where=forward, casting="unsafe")
        del u, v, forward
        fptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(src, minlength=n), out=fptr[1:])
        # canonical order lists each row's dst ascending, so a stable sort by
        # src alone gives (src, dst) order
        order = np.argsort(src, kind="stable")
        del src
        fidx = dst[order]
        del dst
        fpos = order.astype(np.int32)
        del order

        lab = None
        if labels is not None:
            lab = np.asarray(labels, dtype=np.int64).ravel()
            if lab.size != n:
                raise ValueError("labels array must have one entry per vertex")

        for arr in (fptr, fidx, fpos, degrees, uniq, w, lab):
            if arr is not None:
                _read_only(arr)
        return Graph(n=n, fptr=fptr, fidx=fidx, fpos=fpos, degrees=degrees, edge_keys=uniq,
                     index=edge_index(uniq, n), weights=w, labels=lab)


def check_size(n: int, pairs: int) -> None:
    """Reject n vertices or ``pairs`` endpoint pairs past what int32 vertex
    ids and positions hold, as ``Graph.build`` does."""
    if n > _MAX_INT32 or pairs > _MAX_INT32:
        raise ValueError(f"graph too large for int32 vertex ids and positions: n={n}, m={pairs}")


def key_dtype(n: int) -> np.dtype:
    """The dtype of the edge keys u*n+v of a graph on n vertices, and of
    every key probed against them: int32 where n^2 < 2^31, that is for
    n <= 46340, else int64."""
    return np.dtype(np.int32 if n * n < 2**31 else np.int64)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ids(a: np.ndarray) -> np.ndarray:
    """``a`` as a flat int32 or int64 array, copied only if it is neither."""
    return (a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)).ravel()


@dataclass(frozen=True, eq=False)
class SlotScreen:
    """Screen-then-confirm membership among the sorted distinct ``keys``:
    a bool table of 2^k ``slots`` with the slot k & (2^k - 1) of every
    key k set. A probe whose slot is clear is no key; one whose slot is
    set is confirmed by a binary search of ``keys``, so the answer is
    exact whatever the screen passes. Costs the 4 or 8 bytes of each key
    (``key_dtype``) plus one byte per slot."""

    keys: np.ndarray
    slots: np.ndarray

    def find(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # an intp index spares the gather a conversion of int32 probes
        idx = np.flatnonzero(self.slots[np.bitwise_and(probe, self.slots.size - 1, dtype=np.intp)])
        cand = probe[idx]
        # searched in ascending order, several times faster than in probe
        # order: numpy's binary search mispredicts fewer branches and misses
        # the cache less. Candidates that ascend already, as a book's do,
        # are not sorted; every 64th of them is enough to tell, and either
        # way gives the same positions.
        every = cand[::64]
        if (every[1:] >= every[:-1]).all():
            loc = np.searchsorted(self.keys, cand)
        else:
            order = np.argsort(cand)
            loc = np.empty_like(idx)
            loc[order] = np.searchsorted(self.keys, cand[order])
        np.minimum(loc, self.keys.size - 1, out=loc)
        hit = self.keys[loc] == cand
        if hit.all():
            return idx, loc
        return idx[hit], loc[hit]


@dataclass(frozen=True, eq=False)
class BitTable:
    """Exact membership of keys in [0, n^2), with no search: bit k & 63
    of little-endian word k >> 6 of ``words`` is set iff k is a key, and
    ``rank[w]``, Jacobson's rank directory, counts the keys in the words
    before w. A probe is one byte gather and shift, and a key's position
    among the sorted keys is its word's rank plus the keys below it in
    the word. Costs n^2/8 bytes of bits plus n^2/16 of rank, whatever
    the number of keys."""

    words: np.ndarray
    rank: np.ndarray

    def find(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # bit k & 7 of byte k >> 3 is bit k & 63 of word k >> 6; intp
        # indices spare each gather a conversion of int32 probes
        byte = self.words.view(np.uint8).take(np.right_shift(probe, 3, dtype=np.intp))
        shift = probe.astype(np.uint8)
        shift &= 7
        byte >>= shift
        byte &= 1
        idx = np.flatnonzero(byte.view(bool))
        key = probe[idx]
        at = np.right_shift(key, 6, dtype=np.intp)
        below = self.words[at]
        below &= np.left_shift(np.uint64(1), (key & 63).astype(np.uint64)) - np.uint64(1)
        loc = self.rank[at].astype(np.int64)
        loc += np.bitwise_count(below)
        return idx, loc


def slot_table(keys: np.ndarray, n: int) -> SlotScreen:
    """The screen over the sorted distinct ``keys`` in [0, n^2), of 2^k
    >= min(n^2, 8m) slots. With 2^k >= n^2 no two keys share a slot and
    the screen alone is exact."""
    size = 1 << (min(n * n, _SLOTS_PER_EDGE * keys.size) - 1).bit_length()
    slots = np.zeros(size, dtype=bool)
    slots[keys & (size - 1)] = True
    slots.setflags(write=False)
    return SlotScreen(keys, slots)


def set_bits(words: np.ndarray, bits: np.ndarray) -> None:
    """Set bit b & 63 of word b >> 6 of the little-endian uint64 ``words``
    for each of the distinct ``bits`` b. Distinct bits make adding them
    or-ing them, and numpy's add.at on bytes is twice as fast as its
    bitwise_or.at."""
    # intp byte positions keep add.at on its fast path
    np.add.at(words.view(np.uint8), np.right_shift(bits, 3, dtype=np.intp),
              np.left_shift(1, bits & 7).astype(np.uint8))


def bit_table(keys: np.ndarray, n: int) -> BitTable:
    """The bit table and rank directory of the sorted distinct ``keys``
    in [0, n^2); fewer than 2^31 of them, so a rank fits int32."""
    words = np.zeros(-(-n * n // 64), dtype="<u8")
    # a block of keys at a time: all at once, the temporaries set the peak
    # memory of a count on gnp(10000,0.02), 11 MiB higher
    for a in range(0, keys.size, _TABLE_BUILD_CHUNK):
        set_bits(words, keys[a:a + _TABLE_BUILD_CHUNK])
    # the counts summed in place: cumsum of the uint8 counts into int32
    # would cast them to a temporary as large as rank
    rank = np.zeros(words.size, dtype=np.int32)
    np.bitwise_count(words[:-1], out=rank[1:])
    np.cumsum(rank, dtype=np.int32, out=rank)
    words.setflags(write=False)
    rank.setflags(write=False)
    return BitTable(words, rank)


def edge_index(keys: np.ndarray, n: int) -> SlotScreen | BitTable:
    """The membership index of the sorted distinct edge ``keys`` of a
    graph on n vertices, chosen from n and m alone: the ``bit_table``
    where its 3n^2/16 bytes are at most ``_TABLE_BYTES_PER_EDGE`` per
    edge, else the ``slot_table``."""
    words = -(-n * n // 64)
    # counted as one edge, an edgeless graph of up to 11 vertices takes
    # the table too
    if 12 * words <= _TABLE_BYTES_PER_EDGE * max(keys.size, 1) and keys.size < 2**31:
        return bit_table(keys, n)
    return slot_table(keys, n)


def lookup(probe: np.ndarray, index: SlotScreen | BitTable) -> tuple[np.ndarray, np.ndarray]:
    """Membership of the ``probe`` keys in an edge ``index``. Returns idx,
    where the probes that are keys sit in ``probe``, ascending, and loc,
    their positions among the sorted keys, which are the canonical edge
    positions for a graph's index. Both index kinds give the same answer."""
    return index.find(probe)


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
        # resident in the heap, 1.7 MiB on gnp(3000,0.05), and the
        # commands that follow peak that much higher.
        us = np.empty(data.count(b"\n") + 1, dtype=np.int32)
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
# bytes of whole lines whose tokens _plain_pair_tokens checks at once
_TOKEN_BLOCK = 1 << 20


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
    tokens = _plain_pair_tokens(body)
    if tokens is None:
        return None
    if not tokens:
        return np.empty(0, dtype=np.int64)  # fromstring reads a blank body as [0]
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    return ids if ids.size == tokens else None


def _plain_pair_tokens(body: bytes) -> int | None:
    """The number of tokens in ``body`` (bytes of ``_PLAIN_BYTES`` only),
    or None unless every line is blank or holds two ids of at most 18
    digits, each '-' opening a token and followed by a digit. Checked a
    block of whole lines of about ``_TOKEN_BLOCK`` bytes at a time, so
    that the temporaries stay small."""
    tokens = start = 0
    while start < len(body):
        end = body.find(b"\n", start + _TOKEN_BLOCK) + 1 or len(body)
        count = _block_pair_tokens(np.frombuffer(body, np.uint8, count=end - start, offset=start))
        if count is None:
            return None
        tokens += count
        start = end
    return tokens


def _block_pair_tokens(block: np.ndarray) -> int | None:
    """``_plain_pair_tokens`` of one block of whole lines."""
    # word[i + 1]: byte i is part of a token; every separator is <= 32
    word = np.zeros(block.size + 2, dtype=bool)
    np.greater(block, 32, out=word[1:-1])
    # token k is block[edge[2k]:edge[2k + 1]]
    edge = np.flatnonzero(word[1:] != word[:-1])
    del word
    starts, ends = edge[0::2], edge[1::2]
    if starts.size % 2:
        return None
    digits = ends - starts
    minus = np.count_nonzero(block == ord("-"))
    if minus:
        # every '-' opens a token, and a digit follows it, not a '-' or a
        # separator
        lead = block[starts] == ord("-")
        if np.count_nonzero(lead) != minus or (digits[lead] < 2).any():
            return None
        digits -= lead
    if digits.size and digits.max() > _MAX_PLAIN_DIGITS:
        return None
    # the separators between tokens k and k + 1 hold a line break exactly
    # when k is odd: two tokens to a line. A run of one or two separators
    # is its first and last byte; only longer runs are searched
    after, before = ends[:-1], starts[1:]
    breaks = block[after] == ord("\n")
    breaks |= block[before - 1] == ord("\n")
    long = np.flatnonzero(before - after > 2)
    if long.size:
        lines = np.flatnonzero(block == ord("\n"))
        breaks[long] = np.searchsorted(lines, before[long]) > np.searchsorted(lines, after[long])
    if breaks[0::2].any() or not breaks[1::2].all():
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
    # uint32 on any file Graph.build accepts: half an int64 arange's bytes
    index = np.min_scalar_type(ids.size)
    first = np.full(span, ids.size, dtype=index)
    np.minimum.at(first, keys, np.arange(ids.size, dtype=index))
    seen = np.flatnonzero(first < ids.size)
    order = seen[np.argsort(first[seen])]
    # past 2^31 - 1 numbers, Graph.build rejects n = order.size before it
    # reads the wrapped endpoints
    rank = np.empty(span, dtype=us.dtype)
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

    return (np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32),
            np.array(ws, dtype=np.float64) if weighted else None,
            np.array(labels, dtype=np.int64))


def write_edge_list(path, g: Graph, keep: np.ndarray | None = None) -> None:
    """Write the canonical edge set, or its edges where the bool array
    ``keep`` holds, using original labels when present.

    Isolated vertices are not representable in this format and are lost
    on reload.
    """
    us, vs, ws = g.edge_u, g.edge_v, g.weights
    if keep is not None:
        us, vs = us[keep], vs[keep]
        ws = None if ws is None else ws[keep]
    if g.labels is not None:
        us, vs = g.labels[us], g.labels[vs]
    columns = [us.tolist(), vs.tolist()]
    if ws is not None:
        columns.append(ws.tolist())
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
