"""Synthetic graph families, including two sparsification-adversarial ones."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def _book_edges(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical edge arrays of book(k): the hub edge (0, 1), then (0, s)
    and (1, s) for every spoke s."""
    if k <= 0:
        raise ValueError(f"book size must be positive, got {k}")
    spokes = np.arange(2, k + 2, dtype=np.int64)
    eu = np.concatenate([[0], np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64)])
    ev = np.concatenate([[1], spokes, spokes])
    return eu, ev


def book(k: int) -> Graph:
    """Two hub vertices joined by an edge, sharing k common spoke neighbors.

    All k triangles go through the single hub-hub edge, so deleting that
    one edge wipes out every triangle: the family defeats independent
    edge sampling. n = k + 2, m = 2k + 1.
    """
    return Graph.build(k + 2, *_book_edges(k))


def weighted_book(k: int, heavy_weight: float) -> Graph:
    """Book topology with one designated heavy triangle.

    The two hub-to-spoke edges of the first spoke carry ``heavy_weight``;
    every other edge has weight 1. Under the product convention that one
    triangle is worth heavy_weight**2, so for large weights a single coin
    flip on a heavy edge moves almost the whole weighted total.
    ``Graph.build`` rejects a heavy weight that is not positive and finite.
    """
    eu, ev = _book_edges(k)
    w = np.ones(2 * k + 1, dtype=np.float64)
    w[1] = heavy_weight       # edge (0, 2)
    w[1 + k] = heavy_weight   # edge (1, 2)
    return Graph.build(k + 2, eu, ev, weights=w)


def gnp(n: int, q: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, q): each of the C(n,2) edges present with
    probability q, independently. Deterministic for a fixed seed."""
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {q}")
    rng = np.random.default_rng(seed)
    us = []
    vs = []
    for u in range(n - 1):
        row = np.flatnonzero(rng.random(n - 1 - u) < q)
        if row.size:
            us.append(np.full(row.size, u, dtype=np.int64))
            vs.append(u + 1 + row.astype(np.int64))
    if us:
        eu = np.concatenate(us)
        ev = np.concatenate(vs)
    else:
        eu = np.empty(0, dtype=np.int64)
        ev = np.empty(0, dtype=np.int64)
    return Graph.build(n, eu, ev)


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    iu, iv = np.triu_indices(n, 1)
    return Graph.build(n, iu.astype(np.int64), iv.astype(np.int64))


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a CLI model spec string.

    Supported forms: "book:K", "weighted_book:K:W", "gnp:N:Q",
    "complete:N". Deterministic for a fixed (spec, seed).
    """
    parts = spec.split(":")
    name = parts[0].strip().lower()
    args = parts[1:]

    def _require(count: int) -> None:
        if len(args) != count:
            raise ValueError(f"model {name!r} expects {count} argument(s), got {len(args)}")

    if name == "book":
        _require(1)
        return book(int(args[0]))
    if name == "weighted_book":
        _require(2)
        return weighted_book(int(args[0]), float(args[1]))
    if name == "gnp":
        _require(2)
        return gnp(int(args[0]), float(args[1]), seed)
    if name == "complete":
        _require(1)
        return complete(int(args[0]))
    raise ValueError(f"unknown graph model {name!r} (expected book, weighted_book, gnp or complete)")
