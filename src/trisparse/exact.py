"""Exact triangle counting: node iterator, edge iterator, brute force,
triple census and the global transitivity ratio."""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .graph import Graph, lookup, set_bits

DEFAULT_BRUTE_LIMIT = 1000

# Most wedges the node scan holds at once, across all its workers: each
# of ``threads`` workers runs one step at a time, and a step holds at
# most max(1, WEDGE_CHUNK // threads) wedges. The edge iterator, which
# runs serially, holds at most this many probes per step, or one edge's,
# and gathers at most this many bitmap words per block, or one row's.
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
    ``count_forward`` finds each of its triangles once. When every edge
    survives the rows are g's own and fidx is g's, with no copy.

    Where fewer than m/16 edges survive, the survivors come from the
    mask's nonzero positions, oriented and sorted into forward order.
    Otherwise the mask is gathered into forward order, past which the
    cost is O(pm). Either way g's ``fptr`` is never read."""
    _require_unweighted(g, "forward_sample")
    if mask.all():
        return *_forward_rows(g), g.fidx
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


def _forward_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(first, fdeg) of g's forward rows of at least two entries."""
    fdeg = g.fptr[1:] - g.fptr[:-1]
    rows = (fdeg >= 2).nonzero()[0]
    return g.fptr[rows], fdeg[rows]


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


def _in_order(fn, steps, threads: int):
    """fn of each step, a scan's pack or a trial, in step order. With one
    thread the steps run inline; with more they run on a pool of
    ``threads`` workers, at most 2 * threads of them submitted ahead of
    the one being collected (``pool.map`` would submit every step at
    once, and so hold every class's pair indices together)."""
    if threads == 1:
        yield from map(fn, steps)
        return
    with ThreadPoolExecutor(threads) as pool:
        ahead = deque()
        for step in steps:
            ahead.append(pool.submit(fn, step))
            if len(ahead) > 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _scan_steps(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray,
                alive: np.ndarray | None = None, fpos: np.ndarray | None = None,
                threads: int = 1, ordered: bool = False):
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors, given as the rows ``first, fdeg`` into ``fidx`` of g or of
    its sample of the edges where ``alive`` holds (``forward_sample``).
    Each triangle is found exactly once, at its lowest-ranked vertex. A
    probe is a ``lookup`` in g's ``index``, which also gives the probed
    edge's canonical position, and a hit counts only if that edge is
    alive. Each of the ``_packs`` is probed in one lookup. With
    ``threads`` > 1 the packs run on a pool of that many workers and are
    collected in scan order, so the result does not depend on the thread
    count; the wedges in flight stay within ``WEDGE_CHUNK``.

    Yields (count, positions) per pack, in scan order. Given ``fpos``,
    each forward entry's canonical position, and no ``alive``, positions
    holds per triangle the ``fpos`` of its two forward entries and its
    probed edge's position, or is None where the pack found no triangle;
    else it is always None. Each step's triangles come pair by pair,
    which saves transposing its probes, unless ``ordered``: then they
    come in scan order, a row's together.
    """
    check_threads(threads)
    n, index = g.n, g.index

    def probe_pack(pack):
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
            # dtype= makes the product in the key dtype, not in fidx's int32
            np.multiply(block.take(ii, axis=0), n, out=out, dtype=probe.dtype)
            out += block.take(jj, axis=0)
            at += size
        # freed before the lookup allocates: held, it lifted a p = 0.93
        # trial on book(300000) past glibc's trim threshold, and each such
        # trial faulted some 12 MiB back in (about 3,100 page faults)
        del block
        idx, loc = lookup(probe, index)
        if fpos is None:
            return idx.size if alive is None else int(np.count_nonzero(alive[loc])), None
        if not idx.size:
            return 0, None
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
        return idx.size, (np.concatenate(firsts, dtype=np.intp),
                          np.concatenate(seconds, dtype=np.intp), loc)

    budget = max(1, WEDGE_CHUNK // threads)
    return _in_order(probe_pack, _packs(first, fdeg, budget), threads)


def count_forward(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray,
                  alive: np.ndarray | None = None) -> int:
    """Triangle count of the sample of g whose canonical edges are those
    where ``alive`` holds, all of them where it is None, given its
    forward rows from ``forward_sample``."""
    return sum(count for count, _ in _scan_steps(g, first, fdeg, fidx, alive))


def triangle_edge_positions(g: Graph, threads: int = 1
                            ) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays: ``g.fpos`` of its two forward entries
    and the position the lookup gave for the probed key. Works for
    weighted and unweighted graphs (weights are ignored; only the
    topology matters). The scan runs on ``threads`` workers; the arrays
    do not depend on it."""
    t = 0
    # a leading empty array keeps each concatenation int64 when t = 0
    empty = np.empty(0, dtype=np.int64)
    positions = ([empty], [empty], [empty])
    for count, pieces in _scan_steps(g, *_forward_rows(g), g.fidx, fpos=g.fpos,
                                     threads=threads, ordered=True):
        t += count
        for out, piece in zip(positions, pieces or ()):
            # a worker allocates from its own glibc arena, which cannot
            # reuse what the load freed in the main heap; a copy made
            # here can, and lets the worker's piece go at once
            out.append(piece if threads == 1 else piece.copy())
    return t, tuple(np.concatenate(out) for out in positions)


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
    the pairs it passes. Each step's triangles are added to the per-edge
    counts as the step arrives. The steps run on ``threads`` workers,
    each step holding at most ``WEDGE_CHUNK // threads`` pairs (at least
    one), so the pairs in flight stay within ``WEDGE_CHUNK``; the result
    does not depend on the thread count.
    """
    _require_unweighted(g, "count_node_iterator")
    t = 0
    delta = np.zeros(g.m, dtype=np.int64)
    # each step's three position arrays are added in as they arrive, in
    # whatever order, so no more than one step's are held at once
    for count, pieces in _scan_steps(g, *_forward_rows(g), g.fidx, fpos=g.fpos,
                                     threads=threads):
        t += count
        for piece in pieces or ():
            np.add.at(delta, piece, 1)
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
    endpoint h, a ``lookup`` of the canonical key of (h, w) in g's own
    ``index``: min(deg u, deg v) probes per edge, at most ``WEDGE_CHUNK``
    per step over these edges alone, or one edge's where it has more.
    """
    _require_unweighted(g, "count_edge_iterator")
    n, m = g.n, g.m
    deg = g.degrees
    delta = np.zeros(m, dtype=np.int64)
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
            # the canonical key of (h, w), made from two int32 ids
            probe = np.minimum(h, w, dtype=g.edge_keys.dtype)
            probe *= n
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
    return count_forward(g, *_forward_rows(g), g.fidx)


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
