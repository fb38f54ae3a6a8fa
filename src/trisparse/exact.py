"""Exact triangle counting: node iterator, edge iterator, brute force,
triple census and the global transitivity ratio."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .graph import Graph, lookup, set_bits

DEFAULT_BRUTE_LIMIT = 1000

# Most wedges the node scan holds at once, across all its workers, and a
# quarter of the most bytes their probes take: each of ``threads``
# workers runs one pack at a time, of at most max(1, WEDGE_CHUNK //
# threads) probes of 4-byte keys and half that many of 8-byte keys. The
# edge iterator, which runs serially, holds at most this many probes per
# step, or one edge's, and gathers at most this many bitmap words per
# block, or one row's.
WEDGE_CHUNK = 1 << 18
# Forward entries whose survivors a trial's sample collects at once.
SAMPLE_CHUNK = 1 << 16
# Largest row whose wedges' entry pairs are computed once and kept.
_CACHED_PAIRS = 64


@dataclass(frozen=True)
class TriangleStats:
    """Triangle totals for one graph.

    ``delta_max`` is the largest number of triangles sharing a single
    edge, or None if not tracked; ``delta_per_edge`` maps canonical edges
    to their triangle count and is only materialized on request.
    """

    t: int
    delta_max: int | None
    transitivity: float
    delta_per_edge: dict[tuple[int, int], int] | None = None


@dataclass(frozen=True)
class TripleCensus:
    """Counts of vertex triples inducing exactly 0, 1, 2 or 3 edges."""

    t0: int
    t1: int
    t2: int
    t3: int


def _require_unweighted(g: Graph, what: str) -> None:
    if g.is_weighted:
        raise ValueError(f"{what} expects an unweighted graph")


def forward_sample(g: Graph, mask: np.ndarray):
    """The forward rows of the subgraph of g keeping the canonical edges
    where ``mask`` holds, without building it: (first, fdeg, fidx), all
    int32. The surviving forward entries ``fidx`` keep g's forward
    order, and each row that keeps at least two of them, the only rows
    with wedges, starts ``first`` into fidx and holds ``fdeg`` entries.
    g's vertex order is still a total order on the sample, so
    ``count_forward`` finds each of its triangles once.

    Where fewer than m/16 edges survive, the survivors come from the
    mask's nonzero positions, oriented and sorted into forward order.
    Otherwise the mask is gathered into forward order, past which the
    cost is O(pm). Either way g's ``fptr`` is never read."""
    _require_unweighted(g, "forward_sample")
    kept = np.count_nonzero(mask)
    # same[k]: surviving entries k - 1 and k share a row
    same = np.zeros(kept + 1, dtype=bool)
    if 16 * kept < g.m:
        src, fidx = _oriented(g, np.flatnonzero(mask))
        np.equal(src[1:], src[:-1], out=same[1:-1])
    else:
        fidx = np.empty(kept, dtype=g.fidx.dtype)
        # an entry's row is the other endpoint of its canonical edge, worked
        # out for SAMPLE_CHUNK forward entries at a time, so the temporaries
        # stay small
        at, last = 0, -1
        for a in range(0, g.m, SAMPLE_CHUNK):
            # intp once, for both gathers
            chunk = g.fpos[a:a + SAMPLE_CHUNK].astype(np.intp)
            pos = np.flatnonzero(mask[chunk])
            if not pos.size:
                continue
            dst = fidx[at:at + pos.size]
            np.take(g.fidx[a:a + SAMPLE_CHUNK], pos, out=dst, mode="clip")
            # u + v of each entry's edge, from its key u*n + v
            src = g.edge_keys[chunk[pos]]
            src -= src // g.n * (g.n - 1)
            src -= dst
            same[at] = src[0] == last
            np.equal(src[1:], src[:-1], out=same[at + 1:at + pos.size])
            at, last = at + pos.size, src[-1]
    # a run of same from k to l is the row of entries k - 1 to l
    first = np.flatnonzero(same[1:] > same[:-1])
    fdeg = np.flatnonzero(same[1:] < same[:-1])
    fdeg -= first
    fdeg += 1
    return first.astype(np.int32), fdeg.astype(np.int32), fidx


def _oriented(g: Graph, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of the canonical ``edges`` of g, each from its lower to
    its higher endpoint in degree-then-id order, in forward order; dst
    is int32."""
    u, v = np.divmod(g.edge_keys[edges], g.n)
    # as in Graph.build: u < v, so the edge points from u iff deg u <= deg v
    forward = g.degrees[u] <= g.degrees[v]
    # keys src*n + dst sort into forward order
    key = np.multiply(np.where(forward, u, v), g.n, dtype=g.edge_keys.dtype)
    key += np.where(forward, v, u)
    key.sort()
    src, dst = np.divmod(key, g.n)
    return src, dst.astype(np.int32, copy=False)


def check_threads(threads: int) -> None:
    """Reject a worker count below 1."""
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")


@lru_cache(maxsize=None)
def _pairs(f: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(f, 1)``, read-only: the entries (ii[k], jj[k]) of
    wedge k of a row of f. Kept for rows of at most ``_CACHED_PAIRS``
    entries, whose wedges cost less to probe than these to work out."""
    ii, jj = np.triu_indices(f, 1)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


def _pair_runs(f: int, budget: int):
    """The pairs (ii, jj) of ``np.triu_indices(f, 1)`` in runs of at most
    ``budget``; past ``_CACHED_PAIRS`` entries each run is made alone. Row
    i holds the pairs below ends[i], the cumulative lengths f - 1, f - 2,
    ..., and pair k of row i has j = k - ends[i] + f."""
    size = f * (f - 1) // 2
    if f <= _CACHED_PAIRS:
        ii, jj = _pairs(f)
        for lo in range(0, size, budget):
            yield ii[lo:lo + budget], jj[lo:lo + budget]
        return
    ends = np.cumsum(np.arange(f - 1, 0, -1))
    for lo in range(0, size, budget):
        hi = min(lo + budget, size)
        first, last = ends.searchsorted([lo, hi - 1], "right").tolist()
        counts = np.diff(np.minimum(ends[first:last + 1], hi), prepend=lo)
        ii = np.repeat(np.arange(first, last + 1), counts)
        yield ii, np.arange(lo, hi) - ends[ii] + f


def _packs(first, fdeg, budget: int):
    """The node scan's work over the forward rows that start ``first``
    into fidx and hold ``fdeg`` >= 2 entries, in forward order: packs of
    consecutive steps, at most ``budget`` wedges together, each probed in
    one lookup. A step (f, ii, jj, starts) stands for the wedges
    (ii[k], jj[k]) of each row starting at ``starts``, all of f entries:
    a run of whole rows of one degree class, or a run of one row's pairs
    where that row alone has more than ``budget``. A row's runs are
    consecutive, so the hits come in scan order whatever the budget. A
    graph of many small degree classes, a sparse sample's above all,
    makes one lookup per pack, not one per class."""
    count = np.bincount(fdeg)
    ends = np.cumsum(count).tolist()
    classes = np.flatnonzero(count).tolist()
    # the rows' starts by class, each class in row order; the narrowest
    # dtype sorts fastest
    by_class = first if len(classes) < 2 else first[
        np.argsort(fdeg.astype(np.min_scalar_type(count.size)), kind="stable")]
    pack, size = [], 0
    for f in classes:
        pairs = f * (f - 1) // 2
        # a class makes its runs once, unless its long rows have more than
        # budget pairs: then each row makes them anew, one at a time
        runs = list(_pair_runs(f, budget)) if f <= _CACHED_PAIRS or pairs <= budget else None
        cls = by_class[ends[f - 1]:ends[f]]
        rows = max(1, budget // pairs)
        for start in range(0, cls.size, rows):
            starts = cls[start:start + rows]
            for ii, jj in runs or _pair_runs(f, budget):
                wedges = ii.size * starts.size
                if pack and size + wedges > budget:
                    yield pack
                    pack, size = [], 0
                pack.append((f, ii, jj, starts))
                size += wedges
    if pack:
        yield pack


def _share(work, steps, threads: int) -> None:
    """``work(step)`` for each of ``steps``: a scan's packs, a rung's
    trials or its masks. At one thread they run inline, in order. At
    more, the caller and ``threads - 1`` threads started for the call
    each run a worker loop that takes the next step from ``steps`` under
    a lock and runs it, so at most ``threads`` steps are out of the plan
    at once. ``work`` reduces its result in place, under a lock of its
    own, or files it under the step's index where the order matters.
    The first exception a loop meets, an interrupt of the caller
    included, stops every loop before its next step and is raised here
    once the started threads have ended."""
    if threads == 1:
        for step in steps:
            work(step)
        return
    plan, lock, failed = iter(steps), threading.Lock(), []

    def loop():
        try:
            while True:
                with lock:
                    # the plan itself stands for its end
                    step = plan if failed else next(plan, plan)
                if step is plan:
                    return
                work(step)
        except BaseException as exc:  # raised on the caller's thread below
            with lock:
                failed.append(exc)

    started = []
    try:
        # no loop takes a step before every thread has started, so an
        # interrupt met during the starts stops them all before any work
        with lock:
            for _ in range(threads - 1):
                thread = threading.Thread(target=loop)
                thread.start()
                started.append(thread)
    except BaseException as exc:  # raised on the caller's thread below
        with lock:
            failed.append(exc)
    loop()
    for thread in started:
        thread.join()
    if failed:
        raise failed[0]


def _scan_steps(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray, fold,
                threads: int = 1, ordered: bool = False) -> None:
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors, given as the rows ``first, fdeg`` into ``fidx`` of g or of
    a sample of its edges (``forward_sample``). Each triangle is found
    exactly once, at its lowest-ranked vertex. A probe is a ``lookup``
    in g's ``index``, and a row's entries form their probes' bases once,
    not once per pair. Each of the ``_packs`` is probed in one lookup,
    and is sized by the bytes of its probes, g's key dtype: at most
    ``WEDGE_CHUNK // threads`` wedges of 4-byte keys, half that many of
    8-byte ones, or one wedge. With ``threads`` > 1 the packs run through
    ``_share``, so at most ``threads`` packs are in flight, their probes
    at most ``4 * WEDGE_CHUNK`` bytes together.

    Calls ``fold(k, pack, sizes, idx, loc)`` for the k-th pack in scan
    order, in the worker that probed it, and fold reduces it in place,
    so the result does not depend on which worker ran it or when:
    ``sizes`` holds the wedges of each step, ``idx`` the ascending
    positions of the hits among the pack's probes and ``loc`` each hit's
    canonical edge position. Each step's probes come pair by pair, which
    saves transposing them, unless ``ordered``: then they come in scan
    order, a row's together."""
    check_threads(threads)
    n, index = g.n, g.index

    def probe_pack(step):
        number, pack = step
        # the wedges of each step of the pack follow the last step's
        sizes = [ii.size * starts.size for _, ii, _, starts in pack]
        probe = np.empty(sum(sizes), dtype=g.edge_keys.dtype)
        at = 0
        for (f, ii, jj, starts), size in zip(pack, sizes):
            # block[c] holds entry c of each of the step's rows and probe[k]
            # their wedges of pair k, so every numpy loop runs over all those
            # rows however small f is. Rows ascend by id, so a < b in each pair.
            block = fidx[np.arange(f)[:, None] + starts]
            out = probe[at:at + size]
            # in scan order: a row's wedges together, pair by pair
            out = out.reshape(starts.size, ii.size).T if ordered else out.reshape(ii.size, -1)
            # the probe of (a, b) is a's base plus b; the last entry opens
            # no pair, so it needs no base
            base = index.base(block[:-1], n)
            np.add(base.take(ii, axis=0), block.take(jj, axis=0), out=out)
            at += size
        # freed before the lookup allocates: held, they lifted a p = 0.93
        # trial on book(300000) past glibc's trim threshold, and each such
        # trial faulted some 12 MiB back in (about 3,100 page faults)
        del block, base
        idx, loc = lookup(probe, index)
        del probe
        fold(number, pack, sizes, idx, loc)

    # the probes of a pack take at most 4 * WEDGE_CHUNK // threads bytes
    budget = max(1, 4 * WEDGE_CHUNK // threads // g.edge_keys.itemsize)
    _share(probe_pack, enumerate(_packs(first, fdeg, budget)), threads)


def count_forward(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray,
                  alive: np.ndarray | None = None) -> int:
    """Triangle count of the sample of g whose canonical edges are those
    where ``alive`` holds, all of them where it is None, given its
    forward rows from ``forward_sample``."""
    tallies = []

    def fold(k, pack, sizes, idx, loc):
        tallies.append(idx.size if alive is None else int(np.count_nonzero(alive[loc])))

    _scan_steps(g, first, fdeg, fidx, fold)
    return sum(tallies)


def _positions(fpos: np.ndarray, pack, sizes, idx: np.ndarray, loc: np.ndarray,
               ordered: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hits of a scan's pack (``_scan_steps``, ``ordered`` as the
    scan's) as the positions of their triangles' edges: the ``fpos`` of
    the two forward entries, and the probed edge's, ``loc``."""
    firsts, seconds = [], []
    at = lo = 0
    for (f, ii, jj, starts), size, hi in zip(pack, sizes, np.searchsorted(
            idx, np.cumsum(sizes)).tolist()):
        wedge = idx[lo:hi] - at
        if ordered:
            row, pair = np.divmod(wedge, ii.size)
        else:
            pair, row = np.divmod(wedge, starts.size)
        # the wedge's forward entries sit ii and jj places into its row
        start = starts[row]
        firsts.append(fpos[start + ii[pair]])
        seconds.append(fpos[start + jj[pair]])
        at, lo = at + size, hi
    # intp positions keep the callers' gathers and add.at on their fast paths
    return (np.concatenate(firsts, dtype=np.intp), np.concatenate(seconds, dtype=np.intp),
            loc)


# Most trials one shared scan counts, a bit each of a uint64.
SCAN_TRIALS = 64


def trial_dtype(trials: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype with a bit for each of
    1 to ``SCAN_TRIALS`` ``trials``."""
    if not 1 <= trials <= SCAN_TRIALS:
        raise ValueError(f"one scan counts 1 to {SCAN_TRIALS} trials, got {trials}")
    size = 1
    while 8 * size < trials:
        size *= 2
    return np.dtype(f"<u{size}")


def bit_counts(tags: np.ndarray) -> np.ndarray:
    """How many of the little-endian unsigned ``tags`` have each bit set:
    8 * itemsize counts, bit i of byte b at 8b + i."""
    data = tags.view(np.uint8).reshape(tags.size, tags.itemsize)
    # bits[v, i] is bit i of the byte v
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    return np.concatenate([np.bincount(data[:, b], minlength=256) @ bits
                           for b in range(tags.itemsize)])


def count_trials(g: Graph, bits: np.ndarray, threads: int = 1) -> np.ndarray:
    """Triangle counts of up to ``SCAN_TRIALS`` samples of g from one
    scan of g's own forward rows: bit j of ``bits[e]``, a
    ``trial_dtype``, is set where sample j keeps canonical edge e. A
    triangle of g counts for sample j where all three of its edges have
    bit j; entry j of the result is sample j's count. Each pack is folded
    to its counts in the worker that probed it and added in under a
    lock; the counts do not depend on the thread count."""
    # each forward entry's bits, gathered once for every pack
    forward_bits = bits[g.fpos]
    counts = np.zeros(8 * bits.itemsize, dtype=np.int64)
    lock = threading.Lock()

    def fold(k, pack, sizes, idx, loc):
        # laid out as the probes: the AND of each wedge's two forward edges' bits
        tag = np.empty(sum(sizes), dtype=bits.dtype)
        at = 0
        for (f, ii, jj, starts), size in zip(pack, sizes):
            # int32: an intp index, made after the lookup, faulted 8 MiB per book(300000) scan
            edge = forward_bits[np.arange(f, dtype=starts.dtype)[:, None] + starts]
            np.bitwise_and(edge.take(ii, axis=0), edge.take(jj, axis=0),
                           out=tag[at:at + size].reshape(ii.size, -1))
            at += size
        tags = tag[idx]
        tags &= bits[loc]
        tally = bit_counts(tags)
        with lock:
            np.add(counts, tally, out=counts)

    _scan_steps(g, *g.forward_rows, g.fidx, fold, threads)
    return counts


def triangle_edge_positions(g: Graph, threads: int = 1
                            ) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays: ``g.fpos`` of its two forward entries
    and the position the lookup gave for the probed key. Works for
    weighted and unweighted graphs (weights are ignored; only the
    topology matters). The scan runs on ``threads`` workers; each files
    its pack's positions under the pack's index, and they are joined in
    scan order, so the arrays do not depend on the thread count."""
    found = {}

    def fold(k, pack, sizes, idx, loc):
        if idx.size:
            found[k] = _positions(g.fpos, pack, sizes, idx, loc, True)

    _scan_steps(g, *g.forward_rows, g.fidx, fold, threads, ordered=True)
    order = sorted(found)
    # a leading empty array keeps each concatenation int64 when t = 0
    empty = np.empty(0, dtype=np.int64)
    positions = tuple(np.concatenate([empty, *(found[k][c] for k in order)]) for c in range(3))
    return positions[0].size, positions


def connected_triples(g: Graph) -> int:
    """Number of paths of length two: sum over vertices of C(deg, 2)."""
    count = np.bincount(g.degrees)
    deg = np.flatnonzero(count)
    # tolist() gives Python ints, keeping the sum exact on huge graphs
    return sum(c * (d * (d - 1) // 2) for d, c in zip(deg.tolist(), count[deg].tolist()))


def _stats_from_delta(g: Graph, t: int, delta: np.ndarray, edge_deltas: bool) -> TriangleStats:
    trans = transitivity(g, t)
    per_edge = (dict(zip(zip(g.edge_u.tolist(), g.edge_v.tolist()), delta.tolist()))
                if edge_deltas else None)
    dmax = int(delta.max()) if delta.size else 0
    return TriangleStats(t=t, delta_max=dmax, transitivity=trans, delta_per_edge=per_edge)


def count_node_iterator(g: Graph, *, edge_deltas: bool = False,
                        threads: int = 1) -> TriangleStats:
    """Exact count by examining, per vertex, the edges among its neighbors.

    Degree-then-id ordering restricts the examined pairs to higher-ranked
    neighbors so each triangle is counted once. Pair adjacency is a
    ``lookup`` in the graph's membership index: one bit of its bit table
    and, for an edge, the rank directory for the edge's position; or,
    above the table's memory budget, its slot screen, which rejects most
    non-edges at once, and a binary search of the sorted edge keys for
    the pairs it passes. The worker that probed a pack adds its
    triangles to the per-edge counts under a lock, so no pack's
    positions outlive it. The scan runs on ``threads`` workers, at most
    ``WEDGE_CHUNK`` pairs in flight; the result does not depend on them.
    """
    _require_unweighted(g, "count_node_iterator")
    t = 0
    # an edge is in at most n - 2 < 2^31 triangles
    delta = np.zeros(g.m, dtype=np.int32)
    lock = threading.Lock()

    def fold(k, pack, sizes, idx, loc):
        nonlocal t
        if not idx.size:
            return
        pieces = _positions(g.fpos, pack, sizes, idx, loc, False)
        with lock:
            t += idx.size
            for piece in pieces:
                # an int32 one keeps add.at on its fast path; a Python 1
                # made it some 50 times slower
                np.add.at(delta, piece, np.int32(1))

    _scan_steps(g, *g.forward_rows, g.fidx, fold, threads)
    return _stats_from_delta(g, t, delta, edge_deltas)


def _bitmap_rows(g: Graph, dense: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency bitmaps of the ``dense`` vertices: row rank[x] of the
    (#dense, words) uint64 array has bit c & 63 of word c >> 6 set for
    every neighbor c of x."""
    rank = np.cumsum(dense) - 1
    rows = np.zeros((np.count_nonzero(dense), words), dtype="<u8")
    # WEDGE_CHUNK edges at a time, so the temporaries stay bounded
    for a in range(0, g.m, WEDGE_CHUNK):
        u, v = np.divmod(g.edge_keys[a:a + WEDGE_CHUNK], g.n)
        for x, c in ((u, v), (v, u)):
            keep = dense[x]
            x, c = x[keep], c[keep]
            set_bits(rows.reshape(-1), rank[x] * (64 * words) + c)
    return rank, rows


def _common_neighbors(rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """popcount(rows[x] AND rows[y]) for each pair: the common neighbors
    of the two dense vertices."""
    block = rows[x]
    block &= rows[y]
    return np.bitwise_count(block).sum(axis=1)


def count_edge_iterator(g: Graph, *, edge_deltas: bool = False) -> TriangleStats:
    """Exact count by the edge iterator (Schank & Wagner): an edge's
    triangle count is the number of common neighbors of its endpoints,
    and the total over all edges is 3t, since every triangle is seen
    from each of its three edges. It shares no orientation with the node
    iterator, and so cross-checks it.

    A vertex is dense when its bitmap row of ceil(n/64) words is no
    longer than its neighbor list. An edge between two dense vertices
    is counted by one AND and popcount of their rows, in steps whose
    gathered blocks hold at most ``WEDGE_CHUNK`` words. Every other edge
    probes each neighbor w of its lower-degree endpoint against its other
    endpoint h, a ``lookup`` of the pair (h, w), ordered, in g's own
    ``index``: min(deg u, deg v) probes per edge, at most ``WEDGE_CHUNK``
    per step over these edges alone, or one edge's where it has more.
    """
    _require_unweighted(g, "count_edge_iterator")
    n, m = g.n, g.m
    deg = g.degrees
    # an edge is in at most n - 2 < 2^31 triangles
    delta = np.zeros(m, dtype=np.int32)
    words = -(-n // 64)
    dense = deg >= words
    # the endpoints, decoded once, in the key dtype
    eu, ev = np.divmod(g.edge_keys, n)
    both = dense[eu] & dense[ev]
    pair = np.flatnonzero(both)
    if pair.size:
        rank, rows = _bitmap_rows(g, dense, words)
        step = max(1, WEDGE_CHUNK // words)
        for a in range(0, pair.size, step):
            e = pair[a:a + step]
            delta[e] = _common_neighbors(rows, rank[eu[e]], rank[ev[e]])
        # e is a view of pair: all of them go before the neighbors are listed
        del rank, rows, e
    del pair
    probing = np.flatnonzero(~both)
    if probing.size:
        u, v = eu[probing], ev[probing]
        # v - u where v is lo, the lower-degree endpoint: np.where is slower
        d = (v - u) * (deg[u] > deg[v])
        lo, hi = (u + d).astype(np.int32), (v - d).astype(np.int32)
        del u, v, d
        # probing edge i makes deg lo probes, ends[i]:ends[i + 1] of them all
        ends = np.concatenate(([0], np.cumsum(deg[lo], dtype=np.int64)))
        # N(x) of every vertex x, ascending, as int32 ids from ptr[x] on in
        # nbr: the sorted keys x*n+y of both directions of every edge, mod n;
        # those of one direction are the edge keys themselves
        nbr = np.concatenate((g.edge_keys, np.multiply(ev, n, out=ev)))
        nbr[m:] += eu
        del eu, ev
        nbr.sort()
        nbr = np.remainder(nbr, n, out=nbr).astype(np.int32, copy=False)
        ptr = np.cumsum(deg) - deg
        a = 0
        while a < probing.size:
            # at most WEDGE_CHUNK probes, or one edge's; edge i's from first[i] on
            b = max(a + 1, int(np.searchsorted(ends, ends[a] + WEDGE_CHUNK, side="right")) - 1)
            first = ends[a:b] - ends[a]
            count = deg[lo[a:b]]
            w = np.repeat(ptr[lo[a:b]] - first, count)
            w += np.arange(w.size)
            w = nbr[w]
            h = np.repeat(hi[a:b], count)
            # the probe of (min(h, w), max(h, w)); w = h makes a diagonal
            # probe, which misses
            probe = g.index.base(np.minimum(h, w), n)
            probe += np.maximum(h, w, out=h)
            # w and h go before the lookup allocates
            del w, h
            idx, _ = lookup(probe, g.index)
            edge = np.searchsorted(first, idx, side="right") - 1
            delta[probing[a:b]] = np.bincount(edge, minlength=b - a)
            a = b
    total = int(delta.sum())
    if total % 3:
        raise AssertionError("edge-iterator invariant violated: sum of per-edge counts not divisible by 3")
    return _stats_from_delta(g, total // 3, delta, edge_deltas)


def count_brute_force(g: Graph, *, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Reference oracle: test all C(n,3) vertex triples.

    Cubic in n, so guarded by ``limit`` against accidental blowups.
    """
    _require_unweighted(g, "count_brute_force")
    if g.n > limit:
        raise ValueError(f"brute-force counter limited to n <= {limit}, got n = {g.n}")
    adj = [set() for _ in range(g.n)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    t = 0
    for u, v, w in itertools.combinations(range(g.n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            t += 1
    return t


def count_triangles(g: Graph) -> int:
    """Triangle count only, skipping per-edge bookkeeping. The fast path
    for estimators that need nothing but t."""
    _require_unweighted(g, "count_triangles")
    return count_forward(g, *g.forward_rows, g.fidx)


def triple_census(g: Graph, t: int | None = None) -> TripleCensus:
    """Classify all C(n,3) triples by induced edge count, in closed form.

    Only t is counted directly; the rest follows from degree identities:
    connected triples P2 = sum C(deg,2), T2 = P2 - 3t,
    T1 = m(n-2) - 2*T2 - 3*T3, and T0 by complement. T0 is never
    enumerated since it dominates sparse graphs.
    """
    _require_unweighted(g, "triple_census")
    if t is None:
        t = count_triangles(g)
    n = g.n
    m = g.m
    p2 = connected_triples(g)
    t3 = int(t)
    t2 = p2 - 3 * t3
    t1 = m * (n - 2) - 2 * t2 - 3 * t3
    t0 = comb(n, 3) - t1 - t2 - t3
    return TripleCensus(t0=t0, t1=t1, t2=t2, t3=t3)


def transitivity(g: Graph, t: int | None = None) -> float:
    """Global transitivity ratio 3t / #connected-triples (0 when the
    graph has no paths of length two). t is counted when not given."""
    _require_unweighted(g, "transitivity")
    p2 = connected_triples(g)
    if p2 == 0:
        return 0.0
    if t is None:
        t = count_triangles(g)
    return 3 * t / p2
