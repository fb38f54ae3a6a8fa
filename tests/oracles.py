"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates raw triples or edge subsets directly from
adjacency sets, deliberately sharing no code with the counting paths it
checks. The closed forms at the end (estimator variance, weighted-book
spread, range of normal draws) give the acceptance suite its reference
values; ``test_oracles.py`` pins each one against exact enumeration.
"""

from __future__ import annotations

import itertools
import math
import sys
import types
from math import comb
from pathlib import Path

import numpy as np

from trisparse import Graph


class Unreachable:
    """Stands in for a module that a test must not reach: reading any of
    its attributes fails the test, so a missing check fails at once
    instead of allocating."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was reached")


def adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def census_by_enumeration(g: Graph) -> tuple[int, int, int, int]:
    """Classify every C(n,3) triple by its induced edge count."""
    adj = adjacency_sets(g)
    counts = [0, 0, 0, 0]
    for u, v, w in itertools.combinations(range(g.n), 3):
        k = (v in adj[u]) + (w in adj[u]) + (w in adj[v])
        counts[k] += 1
    return tuple(counts)


def triangles_by_enumeration(g: Graph) -> list[tuple[int, int, int]]:
    adj = adjacency_sets(g)
    return [(u, v, w)
            for u, v, w in itertools.combinations(range(g.n), 3)
            if v in adj[u] and w in adj[u] and w in adj[v]]


def edge_triangle_counts(g: Graph) -> dict[tuple[int, int], int]:
    delta: dict[tuple[int, int], int] = {(int(u), int(v)): 0
                                         for u, v in zip(g.edge_u, g.edge_v)}
    for u, v, w in triangles_by_enumeration(g):
        for a, b in ((u, v), (u, w), (v, w)):
            delta[(a, b)] += 1
    return delta


def intersect_edge_deltas(g: Graph) -> dict[tuple[int, int], int]:
    """Per-edge triangle counts from one ``np.intersect1d`` of the two
    endpoint neighborhoods per edge, over symmetric neighbor lists built
    here: the per-edge loop the vectorized edge iterator replaced, kept
    as its reference."""
    src = np.concatenate([g.edge_u, g.edge_v])
    dst = np.concatenate([g.edge_v, g.edge_u])
    nbrs = dst[np.argsort(src * np.int64(g.n) + dst, kind="stable")]
    ptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.n), out=ptr[1:])
    return {(u, v): int(np.intersect1d(nbrs[ptr[u]:ptr[u + 1]], nbrs[ptr[v]:ptr[v + 1]],
                                       assume_unique=True).size)
            for u, v in edge_pairs(g)}


def edge_pairs(g: Graph) -> list[tuple[int, int]]:
    """Canonical edges as (u, v) tuples, u < v, in canonical order."""
    return list(zip(g.edge_u.tolist(), g.edge_v.tolist()))


def labelled_edges(g: Graph) -> set[tuple[int, int]]:
    """Canonical edge set in the vertex ids of the input file."""
    labels = g.labels if g.labels is not None else np.arange(g.n)
    return {(min(a, b), max(a, b))
            for a, b in zip(labels[g.edge_u].tolist(), labels[g.edge_v].tolist())}


def edge_weight(g: Graph, u: int, v: int) -> float:
    """Weight of edge (u, v), 1.0 on an unweighted graph; KeyError when absent."""
    pos = int(g.edge_positions([u], [v])[0])
    if pos < 0:
        raise KeyError(f"no edge ({u}, {v})")
    return float(g.weights[pos]) if g.is_weighted else 1.0


def weighted_total_by_enumeration(g: Graph) -> float:
    """Sum of triangle weight products from raw weight lookups."""
    total = 0.0
    for u, v, w in triangles_by_enumeration(g):
        total += edge_weight(g, u, v) * edge_weight(g, u, w) * edge_weight(g, v, w)
    return total


def load_perfbench(name: str) -> types.ModuleType:
    """Execute perfbench/<name>.py as a fresh module without importing it
    through the import system, so no bytecode cache is written there. Its
    counters are worked out from a graph's public arrays alone."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # dataclasses look their module up by name
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def star(leaves: int) -> Graph:
    """Hub 0 joined to vertices 1..leaves."""
    return Graph.build(leaves + 1, [0] * leaves, list(range(1, leaves + 1)))


def with_isolated(g: Graph, shift: int, extra: int) -> Graph:
    """g with its vertices moved up by ``shift``, plus ``shift + extra``
    isolated vertices around them."""
    return Graph.build(g.n + shift + extra, g.edge_u + shift, g.edge_v + shift)


def subgraph_without_edge(g: Graph, i: int) -> Graph:
    keep = np.arange(g.m) != i
    return Graph.build(g.n, g.edge_u[keep], g.edge_v[keep],
                       weights=g.weights[keep] if g.is_weighted else None)


def edge_subset_graph(g: Graph, mask: np.ndarray) -> Graph:
    return Graph.build(g.n, g.edge_u[mask], g.edge_v[mask])


def filtered_forward_sample(g: Graph, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward CSR of the edges where ``mask`` holds, filtered out of
    g's whole forward CSR: ``exact.forward_sample`` must give these
    arrays, including when it skips the filter because every edge survives."""
    keep = mask[g.fpos]
    kept = np.concatenate([[0], np.cumsum(keep)])
    return kept[g.fptr], g.fidx[keep]


def filtered_forward_rows(g: Graph, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``filtered_forward_sample`` in the form ``exact.forward_sample``
    returns: the start into fidx and the length of every row that keeps
    at least two entries, in forward order, and fidx."""
    fptr, fidx = filtered_forward_sample(g, mask)
    fdeg = np.diff(fptr)
    rows = fdeg >= 2
    return fptr[:-1][rows], fdeg[rows], fidx


def forward_csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for the forward CSR that ``Graph.build`` stores: vertices
    ranked by an argsort of their degrees (ties by id), each canonical
    edge pointing from its lower- to its higher-ranked endpoint, rows
    sorted ascending. Returns fptr, fidx and fpos, the canonical edge
    index of each forward entry."""
    n = g.n
    deg = np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=n)
    order = np.argsort(deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    forward = rank[g.edge_u] < rank[g.edge_v]
    src = np.where(forward, g.edge_u, g.edge_v)
    dst = np.where(forward, g.edge_v, g.edge_u)
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=fptr[1:])
    fpos = np.lexsort((dst, src))
    return fptr, dst[fpos], fpos


def searchsorted_node_scan(g: Graph) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The node-iterator scan the screened kernel replaced, kept as its
    reference: forward CSR by argsort in degree-then-id order, every wedge
    of a forward-degree class at once, every probe looked up by binary
    search. Returns t and, per triangle in scan order, the canonical-edge
    positions of its three edges, as ``triangle_edge_positions`` does."""
    n, m = g.n, g.m
    empty = np.empty(0, dtype=np.int64)
    if m == 0 or n < 3:
        return 0, (empty, empty, empty)
    fptr, fidx, _ = forward_csr(g)
    fdeg = np.diff(fptr)
    keys = g.edge_keys
    t = 0
    pos: list[list[np.ndarray]] = [[], [], []]
    for f in np.unique(fdeg):
        if f < 2:
            continue
        verts = np.flatnonzero(fdeg == f)
        block = fidx[fptr[verts][:, None] + np.arange(f)[None, :]]
        ii, jj = np.triu_indices(int(f), 1)
        a = block[:, ii].reshape(-1)
        b = block[:, jj].reshape(-1)
        probe = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
        loc = np.minimum(np.searchsorted(keys, probe), m - 1)
        hit = keys[loc] == probe
        t += int(np.count_nonzero(hit))
        u = np.repeat(verts, ii.size)[hit]
        for j, x in enumerate((a[hit], b[hit])):
            pos[j].append(np.searchsorted(
                keys, np.minimum(u, x) * np.int64(n) + np.maximum(u, x)))
        pos[2].append(loc[hit])
    if not pos[0]:
        return t, (empty, empty, empty)
    return t, tuple(np.concatenate(p) for p in pos)


def _survival_patterns(g: Graph, p: float,
                       weighted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Probability of each of the 2^m edge-survival patterns, and the
    surviving triangle total in it: the count t', or with ``weighted``
    the sum of the surviving triangles' weight products.

    A triangle survives iff all three of its edge bits are set.
    """
    m = g.m
    if m > 20:
        raise ValueError("exhaustive enumeration limited to m <= 20")
    patterns = np.arange(1 << m, dtype=np.uint32)
    total = np.zeros(patterns.size, dtype=np.float64 if weighted else np.int64)
    for u, v, w in triangles_by_enumeration(g):
        sides = ((u, v), (u, w), (v, w))
        mask = 0
        for a, b in sides:
            mask |= 1 << int(g.edge_positions([a], [b])[0])
        value = float(np.prod([edge_weight(g, a, b) for a, b in sides])) if weighted else 1
        total += value * ((patterns & np.uint32(mask)) == np.uint32(mask))

    popcount = np.zeros(patterns.size, dtype=np.int64)
    for b in range(m):
        popcount += (patterns >> np.uint32(b)) & np.uint32(1)
    log_w = popcount * np.log(p) + (m - popcount) * np.log1p(-p) if p < 1.0 \
        else np.where(popcount == m, 0.0, -np.inf)
    return np.exp(log_w), total


def exhaustive_sparsify_expectation(g: Graph, p: float,
                                    count_fn=None,
                                    spot_checks: int = 0,
                                    rng: np.random.Generator | None = None) -> float:
    """Exact expectation of t'/p^3 over all 2^m edge-survival patterns.

    t'(pattern) is derived from the enumerated triangle list. Optionally
    verifies a few random patterns against ``count_fn`` run on the actual
    edge-subset graph, tying the shortcut back to the real counting path.
    """
    weights, t_prime = _survival_patterns(g, p)
    if spot_checks and count_fn is not None:
        rng = rng or np.random.default_rng(0)
        for pat in rng.choice(t_prime.size, size=min(spot_checks, t_prime.size), replace=False):
            bits = (int(pat) >> np.arange(g.m)) & 1
            sub = edge_subset_graph(g, bits.astype(bool))
            assert count_fn(sub) == int(t_prime[pat]), f"pattern {pat} mismatch"

    return float(np.sum(weights * t_prime) / p ** 3)


def exhaustive_sparsify_moments(g: Graph, p: float,
                                weighted: bool = False) -> tuple[float, float]:
    """Exact mean and variance of the estimate over all 2^m survival
    patterns: t'/p^3, or with ``weighted`` the product-convention
    weighted estimate, where each surviving triangle contributes its
    weight product / p^3."""
    weights, total = _survival_patterns(g, p, weighted)
    estimate = total / p ** 3
    mean = float(np.sum(weights * estimate))
    return mean, float(np.sum(weights * (estimate - mean) ** 2))


def shared_edge_pairs(edge_deltas) -> int:
    """Number of unordered triangle pairs sharing an edge, sum of C(delta_e, 2).
    Two distinct triangles share at most one edge, so each pair is counted once."""
    return sum(comb(int(d), 2) for d in edge_deltas)


def sparsify_variance(t: int, shared_pairs: int, p: float) -> float:
    """Closed-form Var[t'/p^3] for independent per-edge survival at rate p.

    A triangle survives with probability p^3; two triangles sharing an
    edge survive together with probability p^5, disjoint ones
    independently. So Var[t'] = t p^3 (1 - p^3) + 2 P (p^5 - p^6) with
    P = ``shared_pairs``.
    """
    var_t_prime = t * p ** 3 * (1 - p ** 3) + 2 * shared_pairs * (p ** 5 - p ** 6)
    return var_t_prime / p ** 6


def weighted_book_rsd(k: int, heavy_weight: float, p: float) -> float:
    """Closed-form relative standard deviation of the product-convention
    weighted estimate on ``weighted_book(k, heavy_weight)`` at rate p.

    All k triangles share the spine edge; one is worth w^2, k - 1 are
    worth 1, total S = w^2 + k - 1. With the estimate Y,
    E[Y^2] / S^2 = [(w^4 + k - 1) + (2 w^2 (k - 1) + (k - 1)(k - 2)) p^2] / (p^3 S^2).
    heavy_weight = 1 gives the unit book(k).
    """
    w2 = heavy_weight ** 2
    total = w2 + k - 1
    second = ((w2 * w2 + k - 1) + (2 * w2 * (k - 1) + (k - 1) * (k - 2)) * p * p) \
        / (p ** 3 * total * total)
    return math.sqrt(second - 1.0)


def normal_range_cdf(r: float, n: int) -> float:
    """P(range of n iid standard normal draws <= r), by quadrature of
    n * integral phi(x) (Phi(x + r) - Phi(x))^(n-1) dx."""
    x = np.linspace(-8.0, 8.0, 4001)
    cdf = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))
    density = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    integrand = n * density * (cdf(x + r) - cdf(x)) ** (n - 1)
    return float(np.sum(integrand) * (x[1] - x[0]))


def naive_exhaustive_mean(g: Graph, indicator) -> float:
    """Average single-trial triple-sampling estimate over the whole sample
    space of distinct triples."""
    n = g.n
    total = 0
    triples = list(itertools.combinations(range(n), 3))
    a = np.array([x[0] for x in triples])
    b = np.array([x[1] for x in triples])
    c = np.array([x[2] for x in triples])
    hits = int(indicator(g, a, b, c).sum())
    total = comb(n, 3) * hits
    return total / len(triples)


def buriol_exhaustive_mean(g: Graph) -> float:
    """Average single-trial edge-plus-node estimate over all m*(n-2) pairs."""
    n, m = g.n, g.m
    adj = adjacency_sets(g)
    hits = 0
    for i in range(m):
        u = int(g.edge_u[i])
        v = int(g.edge_v[i])
        for k in range(n):
            if k == u or k == v:
                continue
            if k in adj[u] and k in adj[v]:
                hits += 1
    return (hits / (m * (n - 2))) * m * (n - 2) / 3.0


def gnp_by_rows(n: int, q: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Canonical edge arrays of ``gnp(n, q, seed)``, drawn one row of
    pairs (u, u+1..n-1) per ``rng.random`` call."""
    rng = np.random.default_rng(seed)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for u in range(n - 1):
        row = np.flatnonzero(rng.random(n - 1 - u) < q)
        us.append(np.full(row.size, u, dtype=np.int64))
        vs.append(u + 1 + row.astype(np.int64))
    return np.concatenate(us), np.concatenate(vs)
