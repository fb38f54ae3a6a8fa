"""Exact triangle counting: node iterator, edge iterator, brute force,
triple census and the global transitivity ratio."""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import Graph, lookup, slot_table

DEFAULT_BRUTE_LIMIT = 1000

# Most wedges the node scan holds at once, across all its workers: each
# of ``threads`` workers runs one step at a time, and a step holds at
# most max(1, WEDGE_CHUNK // threads) wedges. The edge iterator, which
# runs serially, holds at most this many probes per step, or one edge's,
# and gathers at most this many bitmap words per block, or one row's.
WEDGE_CHUNK = 1 << 18
# Forward entries whose survivors a trial's sample collects at once.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class TriangleStats:
    """Triangle totals for one graph.

    ``delta_max`` is the largest number of triangles sharing a single
    edge; ``delta_per_edge`` maps canonical edges to their triangle count
    and is only materialized on request.
    """

    t: int
    delta_max: int
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
    where ``mask`` holds, without building it: (first, fdeg, fidx). The
    surviving forward entries ``fidx`` keep g's forward order, and each
    row that keeps at least two of them, the only rows with wedges,
    starts ``first`` into fidx and holds ``fdeg`` entries. g's vertex
    order is still a total order on the sample, so ``count_forward``
    finds each of its triangles once. Past gathering the mask into
    forward order, the cost is O(pm): an entry's row is the other
    endpoint of its canonical edge, so g's ``fptr`` is never read. When
    every edge survives the rows are g's own and fidx is g's, with no
    copy."""
    _require_unweighted(g, "forward_sample")
    if mask.all():
        return *_forward_rows(g), g.fidx
    fidx = np.empty(np.count_nonzero(mask), dtype=np.int64)
    # same[k]: surviving entries k - 1 and k share a row, that is, the
    # other endpoints of their canonical edges agree. Worked out for
    # SAMPLE_CHUNK forward entries at a time, so the temporaries stay small.
    same = np.zeros(fidx.size + 1, dtype=bool)
    at, last = 0, -1
    for a in range(0, g.m, SAMPLE_CHUNK):
        chunk = g.fpos[a:a + SAMPLE_CHUNK]
        pos = np.flatnonzero(mask[chunk])
        if not pos.size:
            continue
        dst = fidx[at:at + pos.size]
        np.take(g.fidx[a:a + SAMPLE_CHUNK], pos, out=dst, mode="clip")
        edge = chunk[pos]
        src = g.edge_u[edge]
        src += g.edge_v[edge]
        src -= dst
        same[at] = src[0] == last
        np.equal(src[1:], src[:-1], out=same[at + 1:at + pos.size])
        at, last = at + pos.size, src[-1]
    # a run of same from k to l is the row of entries k - 1 to l
    first = np.flatnonzero(same[1:] > same[:-1])
    fdeg = np.flatnonzero(same[1:] < same[:-1])
    fdeg -= first
    fdeg += 1
    return first, fdeg, fidx


def _forward_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(first, fdeg) of g's forward rows of at least two entries."""
    fdeg = np.diff(g.fptr)
    rows = np.flatnonzero(fdeg >= 2)
    return g.fptr[rows], fdeg[rows]


def check_threads(threads: int) -> None:
    """Reject a worker count below 1."""
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")


def _steps(first, fdeg, budget: int):
    """The node scan's steps, in scan order, over the forward rows that
    start ``first`` into fidx and hold ``fdeg`` >= 2 entries, in forward
    order. A step (f, ii, jj, starts) stands for the wedges (ii[k], jj[k])
    of each row starting at ``starts``, all of f entries, at most
    ``budget`` of them: a run of whole rows of one degree class, or a run
    of one row's pairs where that row alone has more. A row's runs are
    consecutive, so the scan's hits come in the same order whatever the
    budget."""
    for f in np.flatnonzero(np.bincount(fdeg)).tolist():
        ii, jj = np.triu_indices(f, 1)
        cls = first[fdeg == f]
        if ii.size <= budget:
            rows = budget // ii.size
            for start in range(0, cls.size, rows):
                yield f, ii, jj, cls[start:start + rows]
        else:
            for row in range(cls.size):
                for lo in range(0, ii.size, budget):
                    yield f, ii[lo:lo + budget], jj[lo:lo + budget], cls[row:row + 1]


def _in_order(fn, steps, threads: int):
    """fn of each step, in step order. With one thread the steps run
    inline; with more they run on a pool of ``threads`` workers, at most
    2 * threads of them submitted ahead of the one being collected
    (``pool.map`` would submit every step at once, and so hold every
    class's pair indices together)."""
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


def _scan(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray,
          alive: np.ndarray | None = None, fpos: np.ndarray | None = None,
          threads: int = 1):
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors, given as the rows ``first, fdeg`` into ``fidx`` of g or of
    its sample of the edges where ``alive`` holds (``forward_sample``).
    Each triangle is found exactly once, at its lowest-ranked vertex. A
    probe is a ``lookup`` in g's keys through g's screen, and a hit
    counts only if that edge is alive.
    With ``threads`` > 1 the steps run on a pool of that many workers
    and are collected in step order, so the result does not depend on
    the thread count; the wedges in flight stay within ``WEDGE_CHUNK``.

    Returns (t, positions). Given ``fpos``, each forward entry's
    canonical position, positions holds per triangle the ``fpos`` of its
    two forward entries and its probed key's position; else it is None.
    """
    check_threads(threads)
    n, keys, table = g.n, g.edge_keys, g.screen

    def probe_step(step):
        f, ii, jj, starts = step
        # block[c] holds entry c of each of the step's rows and probe[k]
        # their wedges of pair k, so every numpy loop runs over all those
        # rows however small f is. Rows ascend by id, so a < b in each pair.
        block = fidx[np.arange(f)[:, None] + starts]
        probe = block[ii]
        probe *= n
        probe += block[jj]
        # freed before the lookup allocates: held, it lifted a p = 0.93
        # trial on book(300000) past glibc's trim threshold, and each such
        # trial faulted some 12 MiB back in (about 3,100 page faults)
        del block
        # in scan order: a row's wedges together, pair by pair
        probe = probe.T.reshape(-1)
        idx, loc, hit = lookup(probe, keys, table)
        if alive is not None:
            hit &= alive[loc]
        if fpos is None or not hit.any():
            return int(np.count_nonzero(hit)), None
        # the wedge's forward entries sit ii and jj places into its row
        row, pair = np.divmod(idx[hit], ii.size)
        at = starts[row]
        return row.size, (fpos[at + ii[pair]], fpos[at + jj[pair]], loc[hit])

    t = 0
    # a leading empty array keeps each concatenation int64 when t = 0
    empty = np.empty(0, dtype=np.int64)
    positions = ([empty], [empty], [empty])
    steps = _steps(first, fdeg, max(1, WEDGE_CHUNK // threads))
    for count, pieces in _in_order(probe_step, steps, threads):
        t += count
        if pieces is not None:
            for out, piece in zip(positions, pieces):
                # a worker allocates from its own glibc arena, which cannot
                # reuse what the load freed in the main heap; a copy made
                # here can, and lets the worker's piece go at once
                out.append(piece if threads == 1 else piece.copy())
    if fpos is None:
        return t, None
    return t, tuple(np.concatenate(out) for out in positions)


def count_forward(g: Graph, first: np.ndarray, fdeg: np.ndarray, fidx: np.ndarray,
                  alive: np.ndarray) -> int:
    """Triangle count of the sample of g whose canonical edges are those
    where ``alive`` holds, given its forward rows from ``forward_sample``."""
    return _scan(g, first, fdeg, fidx, alive)[0]


def triangle_edge_positions(g: Graph, threads: int = 1
                            ) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays: ``g.fpos`` of its two forward entries
    and the position of the probed key. Works for weighted and unweighted
    graphs (weights are ignored; only the topology matters). The scan
    runs on ``threads`` workers; the arrays do not depend on it."""
    return _scan(g, *_forward_rows(g), g.fidx, fpos=g.fpos, threads=threads)


def connected_triples(g: Graph) -> int:
    """Number of paths of length two: sum over vertices of C(deg, 2)."""
    count = np.bincount(g.degrees)
    deg = np.flatnonzero(count)
    # tolist() gives Python ints, keeping the sum exact on huge graphs
    return sum(c * (d * (d - 1) // 2) for d, c in zip(deg.tolist(), count[deg].tolist()))


def _delta_array(g: Graph, threads: int) -> tuple[int, np.ndarray]:
    t, (a, b, c) = triangle_edge_positions(g, threads)
    # one bincount per array (concatenating all three would set a count's
    # peak), each array dropped once counted so the next bincount can
    # reuse its memory
    delta = np.bincount(a, minlength=g.m)
    del a
    delta += np.bincount(b, minlength=g.m)
    del b
    delta += np.bincount(c, minlength=g.m)
    return t, delta


def _stats_from_delta(g: Graph, t: int, delta: np.ndarray, edge_deltas: bool) -> TriangleStats:
    trans = transitivity(g, t)
    per_edge = None
    if edge_deltas:
        per_edge = {(int(u), int(v)): int(d)
                    for u, v, d in zip(g.edge_u, g.edge_v, delta)}
    dmax = int(delta.max()) if delta.size else 0
    return TriangleStats(t=t, delta_max=dmax, transitivity=trans, delta_per_edge=per_edge)


def count_node_iterator(g: Graph, *, edge_deltas: bool = False,
                        threads: int = 1) -> TriangleStats:
    """Exact count by examining, per vertex, the edges among its neighbors.

    Degree-then-id ordering restricts the examined pairs to higher-ranked
    neighbors so each triangle is counted once. Pair adjacency goes through
    the graph's screen over its edge keys, which rejects most non-edges at
    once; only pairs it passes are resolved by binary search on the sorted
    canonical edge keys. The steps run on ``threads`` workers, each step
    holding at most ``WEDGE_CHUNK // threads`` pairs (at least one), so
    the pairs in flight stay within ``WEDGE_CHUNK``; the result does not
    depend on the thread count.
    """
    _require_unweighted(g, "count_node_iterator")
    t, delta = _delta_array(g, threads)
    return _stats_from_delta(g, t, delta, edge_deltas)


def _bitmap_rows(g: Graph, dense: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency bitmaps of the ``dense`` vertices: row rank[x] of the
    (#dense, words) uint64 array has bit c & 63 of word c >> 6 set for
    every neighbor c of x."""
    rank = np.cumsum(dense) - 1
    rows = np.zeros((np.count_nonzero(dense), words), dtype=np.uint64)
    flat = rows.reshape(-1)
    # WEDGE_CHUNK edges at a time, so the temporaries stay bounded
    for a in range(0, g.m, WEDGE_CHUNK):
        u, v = g.edge_u[a:a + WEDGE_CHUNK], g.edge_v[a:a + WEDGE_CHUNK]
        for x, c in ((u, v), (v, u)):
            keep = dense[x]
            x, c = x[keep], c[keep]
            np.bitwise_or.at(flat, rank[x] * words + (c >> 6),
                             np.left_shift(np.uint64(1), (c & 63).astype(np.uint64)))
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
    endpoint, through the screen-then-confirm lookup the node iterator
    uses, here over the sorted keys of both directions of every edge: sum
    min(deg u, deg v) probes over those edges, at most ``WEDGE_CHUNK`` per
    step, or one edge's where that edge alone has more.
    """
    _require_unweighted(g, "count_edge_iterator")
    n, m = g.n, g.m
    deg = g.degrees
    delta = np.zeros(m, dtype=np.int64)
    words = -(-n // 64)
    dense = deg >= words
    both = dense[g.edge_u] & dense[g.edge_v]
    pair = np.flatnonzero(both)
    if pair.size:
        rank, rows = _bitmap_rows(g, dense, words)
        step = max(1, WEDGE_CHUNK // words)
        for a in range(0, pair.size, step):
            e = pair[a:a + step]
            delta[e] = _common_neighbors(rows, rank[g.edge_u[e]], rank[g.edge_v[e]])
        # e is a view of pair: all of them go before the keys are built
        del rank, rows, e
    del pair
    if not both.all():
        # edge i makes min(deg u, deg v) probes, none if both ends are
        # dense; they are ends[i]:ends[i + 1] in the run of all probes
        ends = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.where(both, 0, np.minimum(deg[g.edge_u], deg[g.edge_v])), out=ends[1:])
        # sorted keys u*n+w of both directions of every edge: row u of
        # them is N(u), ascending
        keys = np.concatenate([g.edge_u * np.int64(n) + g.edge_v,
                               g.edge_v * np.int64(n) + g.edge_u])
        keys.sort()
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        table = slot_table(keys, n)
        a = 0
        while ends[a] < ends[m]:
            # through the next edge with probes, and on while the step
            # stays within WEDGE_CHUNK probes
            nxt, full = np.searchsorted(ends, (ends[a], ends[a] + WEDGE_CHUNK), side="right").tolist()
            b = max(nxt, full - 1)
            # the step's edges with probes, each starting first[i] into it
            e = a + np.flatnonzero(~both[a:b])
            u, v = g.edge_u[e], g.edge_v[e]
            lo = np.where(deg[u] > deg[v], v, u)
            first = ends[e] - ends[a]
            count = deg[lo]
            probe = np.repeat(ptr[lo] - first, count)
            probe += np.arange(probe.size)
            probe = keys[probe]
            # the key of (hi, w) is the key of (lo, w) plus (hi - lo) * n; an
            # edge's probes ascend within row hi, so its searches share cache lines
            probe += np.repeat((u + v - 2 * lo) * np.int64(n), count)
            idx, _, hit = lookup(probe, keys, table)
            edge = np.searchsorted(first, idx[hit], side="right") - 1
            delta[e] = np.bincount(edge, minlength=e.size)
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
    return _scan(g, *_forward_rows(g), g.fidx)[0]


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
