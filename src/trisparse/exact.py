"""Exact triangle counting: node iterator, edge iterator, brute force,
triple census and the global transitivity ratio."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import Graph

DEFAULT_BRUTE_LIMIT = 1000

# Most wedges one kernel step may hold. A step covers a run of rows of
# one forward-degree class; a single row can exceed it, but under
# degree order a row has at most C(sqrt(2m), 2) = O(m) wedges.
WEDGE_CHUNK = 1 << 18
# Slots per edge in the probe screen (rounded up to a power of two).
_SLOTS_PER_EDGE = 8


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
    """Forward CSR and sorted edge keys of the subgraph of g keeping the
    canonical edges where ``mask`` holds, without building it. g's vertex
    order is still a total order on the sample, so ``count_forward``
    finds each of its triangles once."""
    _require_unweighted(g, "forward_sample")
    keep = mask[g.fpos]
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[g.fptr], g.fidx[keep], g.edge_keys[mask]


def _slot_table(keys: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Membership screen over the edge keys: a bool table of 2^k slots,
    2^k >= min(n^2, 8m), with the slot of every key set. A probe whose
    slot is clear is no edge; one whose slot is set may be. With
    2^k >= n^2 no two keys share a slot and the screen is exact."""
    size = 1 << (min(n * n, _SLOTS_PER_EDGE * keys.size) - 1).bit_length()
    table = np.zeros(size, dtype=bool)
    table[keys & (size - 1)] = True
    return table, size - 1


def _lookup(probe: np.ndarray, keys: np.ndarray, table: np.ndarray, mask: int):
    """Screen-then-confirm membership of the ``probe`` keys among the
    sorted ``keys``, given their ``_slot_table``. Returns idx, the probes
    whose slot is set; loc, their insertion points in ``keys``; and hit,
    where ``keys[loc]`` is the probe itself. Only ``idx[hit]`` are edges,
    so the answer is exact whatever the screen passes."""
    idx = np.flatnonzero(table[probe & mask])
    cand = probe[idx]
    loc = np.searchsorted(keys, cand)
    np.minimum(loc, keys.size - 1, out=loc)
    return idx, loc, keys[loc] == cand


def _scan(n: int, fptr: np.ndarray, fidx: np.ndarray, keys: np.ndarray,
          fpos: np.ndarray | None = None):
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors, given as the CSR ``fptr, fidx`` over the n vertices, whose
    edges have the sorted keys u*n+v. Each triangle is found exactly
    once, at its lowest-ranked vertex. A probe is screened through the
    slot table first; only probes whose slot is set are looked up by
    binary search on the keys, so the result is exact.

    Returns (t, positions). Given ``fpos``, each forward entry's position
    in ``keys``, positions holds per triangle the ``fpos`` of its two
    forward entries and its probed key's position; else it is None.
    """
    fdeg = np.diff(fptr)
    table, mask = _slot_table(keys, n)
    t = 0
    # a leading empty array keeps each concatenation int64 when t = 0
    empty = np.empty(0, dtype=np.int64)
    pos_a, pos_b, pos_c = [empty], [empty], [empty]
    for f in np.flatnonzero(np.bincount(fdeg)).tolist():
        if f < 2:
            continue
        ii, jj = np.triu_indices(f, 1)
        npairs = ii.size
        rows = max(1, WEDGE_CHUNK // npairs)
        cls = np.flatnonzero(fdeg == f)
        for start in range(0, cls.size, rows):
            verts = cls[start:start + rows]
            block = fidx[fptr[verts][:, None] + np.arange(f)]
            # rows ascend by id, so every pair already has a < b
            probe = (block * np.int64(n))[:, ii].reshape(-1)
            probe += block[:, jj].reshape(-1)
            idx, loc, hit = _lookup(probe, keys, table, mask)
            t += int(np.count_nonzero(hit))
            if fpos is not None and hit.any():
                # the wedge's forward entries sit i and j places into row u
                row, pair = np.divmod(idx[hit], npairs)
                first = fptr[verts[row]]
                pos_a.append(fpos[first + ii[pair]])
                pos_b.append(fpos[first + jj[pair]])
                pos_c.append(loc[hit])
    if fpos is None:
        return t, None
    return t, (np.concatenate(pos_a), np.concatenate(pos_b), np.concatenate(pos_c))


def count_forward(n: int, fptr: np.ndarray, fidx: np.ndarray, keys: np.ndarray) -> int:
    """Triangle count from a forward CSR on n vertices and the sorted
    edge keys, e.g. a sample from ``forward_sample``."""
    return _scan(n, fptr, fidx, keys)[0]


def triangle_edge_positions(g: Graph) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays: ``g.fpos`` of its two forward entries
    and the position of the probed key. Works for weighted and unweighted
    graphs (weights are ignored; only the topology matters)."""
    return _scan(g.n, g.fptr, g.fidx, g.edge_keys, g.fpos)


def connected_triples(g: Graph) -> int:
    """Number of paths of length two: sum over vertices of C(deg, 2)."""
    # tolist() gives Python ints, keeping the sum exact on huge graphs
    return sum(d * (d - 1) // 2 for d in g.degrees.tolist())


def _delta_array(g: Graph) -> tuple[int, np.ndarray]:
    t, (pa, pb, pc) = triangle_edge_positions(g)
    return t, np.bincount(np.concatenate([pa, pb, pc]), minlength=g.m)


def _stats_from_delta(g: Graph, t: int, delta: np.ndarray, edge_deltas: bool) -> TriangleStats:
    p2 = connected_triples(g)
    trans = (3 * t / p2) if p2 > 0 else 0.0
    per_edge = None
    if edge_deltas:
        per_edge = {(int(u), int(v)): int(d)
                    for u, v, d in zip(g.edge_u, g.edge_v, delta)}
    dmax = int(delta.max()) if delta.size else 0
    return TriangleStats(t=t, delta_max=dmax, transitivity=trans, delta_per_edge=per_edge)


def count_node_iterator(g: Graph, *, edge_deltas: bool = False) -> TriangleStats:
    """Exact count by examining, per vertex, the edges among its neighbors.

    Degree-then-id ordering restricts the examined pairs to higher-ranked
    neighbors so each triangle is counted once. Pair adjacency goes through
    a bool slot table over the edge keys, which rejects most non-edges at
    once; only pairs it passes are resolved by binary search on the sorted
    canonical edge keys. Each step holds at most ``WEDGE_CHUNK`` pairs, or
    one vertex's pairs where that vertex alone has more.
    """
    _require_unweighted(g, "count_node_iterator")
    t, delta = _delta_array(g)
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
    table, mask = _slot_table(keys, n)
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
        idx, _, hit = _lookup(probe, keys, table, mask)
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
    return count_forward(g.n, g.fptr, g.fidx, g.edge_keys)


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
