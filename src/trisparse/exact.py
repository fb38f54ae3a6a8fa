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
# runs serially, holds at most this many probes per step, or one edge's.
WEDGE_CHUNK = 1 << 18


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
    """Forward CSR of the subgraph of g keeping the canonical edges where
    ``mask`` holds, without building it. g's vertex order is still a
    total order on the sample, so ``count_forward`` finds each of its
    triangles once."""
    _require_unweighted(g, "forward_sample")
    keep = mask[g.fpos]
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[g.fptr], g.fidx[keep]


def check_threads(threads: int) -> None:
    """Reject a worker count below 1."""
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")


def _steps(fptr: np.ndarray, budget: int):
    """The node scan's steps, in scan order. A step (f, ii, jj, verts)
    stands for the wedges (ii[k], jj[k]) of each row in ``verts``, all of
    forward degree f, at most ``budget`` of them: a run of whole rows of
    one degree class, or a run of one row's pairs where that row alone
    has more. A row's runs are consecutive, so the scan's hits come in
    the same order whatever the budget."""
    fdeg = np.diff(fptr)
    for f in np.flatnonzero(np.bincount(fdeg)).tolist():
        if f < 2:
            continue
        ii, jj = np.triu_indices(f, 1)
        cls = np.flatnonzero(fdeg == f)
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


def _scan(g: Graph, fptr: np.ndarray, fidx: np.ndarray,
          alive: np.ndarray | None = None, fpos: np.ndarray | None = None,
          threads: int = 1):
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors, given as the CSR ``fptr, fidx`` of g or of its sample of
    the edges where ``alive`` holds. Each triangle is found exactly once,
    at its lowest-ranked vertex. A probe is a ``lookup`` in g's keys
    through g's screen, and a hit counts only if that edge is alive.
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
        f, ii, jj, verts = step
        block = fidx[fptr[verts][:, None] + np.arange(f)]
        # rows ascend by id, so every pair already has a < b
        probe = (block * np.int64(n))[:, ii].reshape(-1)
        probe += block[:, jj].reshape(-1)
        idx, loc, hit = lookup(probe, keys, table)
        if alive is not None:
            hit &= alive[loc]
        if fpos is None or not hit.any():
            return int(np.count_nonzero(hit)), None
        # the wedge's forward entries sit ii and jj places into its row
        row, pair = np.divmod(idx[hit], ii.size)
        first = fptr[verts[row]]
        return row.size, (fpos[first + ii[pair]], fpos[first + jj[pair]], loc[hit])

    t = 0
    # a leading empty array keeps each concatenation int64 when t = 0
    empty = np.empty(0, dtype=np.int64)
    positions = ([empty], [empty], [empty])
    steps = _steps(fptr, max(1, WEDGE_CHUNK // threads))
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


def count_forward(g: Graph, fptr: np.ndarray, fidx: np.ndarray, alive: np.ndarray) -> int:
    """Triangle count of the sample of g whose canonical edges are those
    where ``alive`` holds, given its forward CSR from ``forward_sample``."""
    return _scan(g, fptr, fidx, alive)[0]


def triangle_edge_positions(g: Graph, threads: int = 1
                            ) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays: ``g.fpos`` of its two forward entries
    and the position of the probed key. Works for weighted and unweighted
    graphs (weights are ignored; only the topology matters). The scan
    runs on ``threads`` workers; the arrays do not depend on it."""
    return _scan(g, g.fptr, g.fidx, fpos=g.fpos, threads=threads)


def connected_triples(g: Graph) -> int:
    """Number of paths of length two: sum over vertices of C(deg, 2)."""
    # tolist() gives Python ints, keeping the sum exact on huge graphs
    return sum(d * (d - 1) // 2 for d in g.degrees.tolist())


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
    p2 = connected_triples(g)
    trans = (3 * t / p2) if p2 > 0 else 0.0
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


def count_edge_iterator(g: Graph, *, edge_deltas: bool = False) -> TriangleStats:
    """Exact count by the hashed edge iterator (Schank & Wagner): every
    neighbor w of an edge's lower-degree endpoint is probed against its
    other endpoint through the screen-then-confirm lookup the node
    iterator uses, here over the sorted keys of both directions of every
    edge. An edge's hits are its triangle count; their total is 3t since
    every triangle is seen from each of its three edges. It builds its
    own symmetric neighbor lists from those keys, so it shares no
    orientation with the node iterator and cross-checks it. It makes
    sum min(deg u, deg v) probes, at most ``WEDGE_CHUNK`` per step, or
    one edge's where that edge alone has more.
    """
    _require_unweighted(g, "count_edge_iterator")
    n, m = g.n, g.m
    # sorted keys u*n+w of both directions of every edge: row u of them
    # is N(u), ascending
    keys = np.concatenate([g.edge_u * np.int64(n) + g.edge_v, g.edge_v * np.int64(n) + g.edge_u])
    keys.sort()
    deg = g.degrees
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    swap = deg[g.edge_u] > deg[g.edge_v]
    # edge i's probes are ends[i]:ends[i + 1] in the run of all probes
    ends = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.minimum(deg[g.edge_u], deg[g.edge_v]), out=ends[1:])
    table = slot_table(keys, n)
    delta = np.zeros(m, dtype=np.int64)
    a = 0
    while a < m:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + WEDGE_CHUNK, side="right")) - 1)
        u, v = g.edge_u[a:b], g.edge_v[a:b]
        lo = np.where(swap[a:b], v, u)
        first = ends[a:b] - ends[a]
        count = deg[lo]
        probe = np.repeat(ptr[lo] - first, count)
        probe += np.arange(probe.size)
        probe = keys[probe]
        # the key of (hi, w) is the key of (lo, w) plus (hi - lo) * n; an
        # edge's probes ascend within row hi, so its searches share cache lines
        probe += np.repeat((u + v - 2 * lo) * np.int64(n), count)
        idx, _, hit = lookup(probe, keys, table)
        edge = np.searchsorted(first, idx[hit], side="right") - 1
        delta[a:b] = np.bincount(edge, minlength=b - a)
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
    return _scan(g, g.fptr, g.fidx)[0]


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


def transitivity(g: Graph) -> float:
    """Global transitivity ratio 3t / #connected-triples (0 when the
    graph has no paths of length two)."""
    _require_unweighted(g, "transitivity")
    p2 = connected_triples(g)
    if p2 == 0:
        return 0.0
    return 3 * count_triangles(g) / p2
