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

    def to_dict(self) -> dict:
        out = {"t": self.t, "delta_max": self.delta_max, "transitivity": self.transitivity}
        if self.delta_per_edge is not None:
            out["delta_per_edge"] = {f"{u}-{v}": d for (u, v), d in self.delta_per_edge.items()}
        return out


@dataclass(frozen=True)
class TripleCensus:
    """Counts of vertex triples inducing exactly 0, 1, 2 or 3 edges."""

    t0: int
    t1: int
    t2: int
    t3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.t0, self.t1, self.t2, self.t3)

    def to_dict(self) -> dict:
        return {"t0": self.t0, "t1": self.t1, "t2": self.t2, "t3": self.t3}


def _require_unweighted(g: Graph, what: str) -> None:
    if g.is_weighted:
        raise ValueError(f"{what} expects an unweighted graph")


def _forward_structure(g: Graph):
    """Orient each edge from its lower to higher endpoint in
    degree-then-id order; return the forward adjacency in CSR form.

    The symmetric CSR already lists every row in ascending id, so keeping
    the forward entries in place yields ascending forward rows."""
    n = g.n
    deg = g.degrees
    rank = deg * np.int64(n) + np.arange(n, dtype=np.int64)
    keep = np.repeat(rank, deg) < rank[g.indices]
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    fptr = kept[g.indptr]
    return fptr, np.diff(fptr), g.indices[keep]


def _slot_table(keys: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Membership screen over the edge keys: a bool table of 2^k slots,
    2^k >= min(n^2, 8m), with the slot of every key set. A probe whose
    slot is clear is no edge; one whose slot is set may be. With
    2^k >= n^2 no two keys share a slot and the screen is exact."""
    size = 1 << (min(n * n, _SLOTS_PER_EDGE * keys.size) - 1).bit_length()
    table = np.zeros(size, dtype=bool)
    table[keys & (size - 1)] = True
    return table, size - 1


def _node_scan(g: Graph, collect: bool):
    """Node-iterator core (forward / compact-forward, Schank & Wagner):
    for every vertex, test adjacency between pairs of its forward
    neighbors. Each triangle is found exactly once, at its lowest-ranked
    vertex. A probe is screened through the slot table first; only probes
    whose slot is set are looked up by binary search on the sorted edge
    keys, so the result is exact.

    Returns (t, positions) where positions is a tuple of three arrays
    giving, for every triangle, the canonical-edge positions of its three
    edges (or None when not collected).
    """
    n, m = g.n, g.m
    empty = np.empty(0, dtype=np.int64)
    if m == 0 or n < 3:
        return 0, ((empty, empty, empty) if collect else None)
    fptr, fdeg, fidx = _forward_structure(g)
    keys = g.edge_keys
    table, mask = _slot_table(keys, n)
    t = 0
    pos_a: list[np.ndarray] = []
    pos_b: list[np.ndarray] = []
    pos_c: list[np.ndarray] = []
    for f in np.unique(fdeg).tolist():
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
            idx = np.flatnonzero(table[probe & mask])
            cand = probe[idx]
            loc = np.searchsorted(keys, cand)
            np.minimum(loc, m - 1, out=loc)
            hit = keys[loc] == cand
            t += int(np.count_nonzero(hit))
            if collect and hit.any():
                idx = idx[hit]
                u_hit = verts[idx // npairs]
                a_hit, b_hit = np.divmod(cand[hit], np.int64(n))
                k1 = np.minimum(u_hit, a_hit) * np.int64(n) + np.maximum(u_hit, a_hit)
                k2 = np.minimum(u_hit, b_hit) * np.int64(n) + np.maximum(u_hit, b_hit)
                pos_a.append(np.searchsorted(keys, k1))
                pos_b.append(np.searchsorted(keys, k2))
                pos_c.append(loc[hit])
    if not collect:
        return t, None
    if pos_a:
        return t, (np.concatenate(pos_a), np.concatenate(pos_b), np.concatenate(pos_c))
    return t, (empty, empty, empty)


def triangle_edge_positions(g: Graph) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangle count plus, per triangle, the positions of its three edges
    in the canonical edge arrays. Works for weighted and unweighted graphs
    (weights are ignored; only the topology matters)."""
    return _node_scan(g, collect=True)


def connected_triples(g: Graph) -> int:
    """Number of paths of length two: sum over vertices of C(deg, 2)."""
    # tolist() gives Python ints, keeping the sum exact on huge graphs
    return sum(d * (d - 1) // 2 for d in g.degrees.tolist())


def _delta_array(g: Graph) -> tuple[int, np.ndarray]:
    t, (pa, pb, pc) = _node_scan(g, collect=True)
    delta = np.bincount(np.concatenate([pa, pb, pc]), minlength=g.m).astype(np.int64)
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
    """Exact count by intersecting the endpoint neighborhoods of every edge.

    The intersection size is the per-edge triangle count directly; the
    total over all edges is 3t since every triangle is seen from each of
    its three edges.
    """
    _require_unweighted(g, "count_edge_iterator")
    m = g.m
    delta = np.zeros(m, dtype=np.int64)
    for i in range(m):
        u = int(g.edge_u[i])
        v = int(g.edge_v[i])
        delta[i] = np.intersect1d(g.neighbors(u), g.neighbors(v),
                                  assume_unique=True).size
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
    adj = [set(g.neighbors(u).tolist()) for u in range(g.n)]
    t = 0
    for u, v, w in itertools.combinations(range(g.n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            t += 1
    return t


def count_triangles(g: Graph, method: str = "node") -> int:
    """Triangle count only, skipping per-edge bookkeeping. The fast path
    for estimators that need nothing but t."""
    if method == "node":
        _require_unweighted(g, "count_triangles")
        t, _ = _node_scan(g, collect=False)
        return t
    if method == "edge":
        return count_edge_iterator(g).t
    if method == "brute":
        return count_brute_force(g)
    raise ValueError(f"unknown counting method {method!r} (expected node, edge or brute)")


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
