"""Independent per-edge coin-flip sparsification and the t'/p^3 estimator."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# a trial's t' is the forward scan of its sample, timed under this name
from .exact import count_forward as count_triangles
from .exact import forward_sample, triangle_edge_positions
from .graph import Graph


@dataclass(frozen=True)
class SparsifyParams:
    """Retention probability p in (0, 1] plus the RNG seed."""

    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"retention probability must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class Estimate:
    """One sparsify-and-count trial. ``estimate`` is exactly t_prime / p^3."""

    params: SparsifyParams
    surviving_edges: int
    t_prime: int
    estimate: float
    sparsify_time: float
    count_time: float


@dataclass(frozen=True)
class WeightedEstimate:
    """One weighted sparsify-and-count trial."""

    params: SparsifyParams
    surviving_edges: int
    estimate: float
    sparsify_time: float
    count_time: float


def survival_mask(m: int, params: SparsifyParams) -> np.ndarray:
    """Survival decisions for m canonical edges: one uniform draw per edge,
    in canonical (u < v, lexicographic) order; edge i survives iff its draw
    is below p. The inversion rule makes survival sets monotone in p for a
    fixed seed, and the i-th decision depends only on the i-th draw.
    Every draw is below 1, so at p = 1 no draw is made."""
    if params.p == 1.0:
        return np.ones(m, dtype=bool)
    draws = np.random.default_rng(params.seed).random(m)
    return draws < params.p


def sparsify(g: Graph, params: SparsifyParams) -> Graph:
    """Keep each edge independently with probability p; the vertex set is
    unchanged. The uniform 1/p reweighting is implicit: the output stays
    unweighted and the estimator applies the 1/p^3 factor once. A trial
    counts these edges without building the graph."""
    if g.is_weighted:
        raise ValueError("sparsify() expects an unweighted graph; use weighted_sparsify()")
    mask = survival_mask(g.m, params)
    return Graph.build(g.n, g.edge_u[mask], g.edge_v[mask], labels=g.labels)


def weighted_sparsify(g: Graph, params: SparsifyParams) -> Graph:
    """Weighted variant: surviving edges carry weight old_weight / p."""
    if not g.is_weighted:
        raise ValueError("weighted_sparsify() expects a weighted graph")
    mask = survival_mask(g.m, params)
    return Graph.build(g.n, g.edge_u[mask], g.edge_v[mask],
                       weights=g.weights[mask] / params.p, labels=g.labels)


def estimate_triangles(g: Graph, params: SparsifyParams) -> Estimate:
    """Sparsify, count exactly on the sample, scale by 1/p^3.

    The sample is the forward rows of g's surviving edges, scanned
    against g's own edge keys and screen: no ``Graph`` and no key copy.
    ``sparsify_time`` covers the mask, O(m) draws, and collecting the
    surviving rows, O(pm); ``count_time`` the scan. Neither includes
    loading g.
    """
    start = perf_counter()
    mask = survival_mask(g.m, params)
    first, fdeg, fidx = forward_sample(g, mask)
    sparsify_time = perf_counter() - start
    start = perf_counter()
    t_prime = count_triangles(g, first, fdeg, fidx, mask)
    count_time = perf_counter() - start
    return Estimate(
        params=params,
        surviving_edges=fidx.size,
        t_prime=t_prime,
        estimate=t_prime / params.p ** 3,
        sparsify_time=sparsify_time,
        count_time=count_time,
    )


def count_weighted_triangles(g: Graph, threads: int = 1) -> float:
    """Sum over triangles of the product w1 * w2 * w3 of their edge
    weights. Unit weights reduce it to the plain count. The scan runs on
    ``threads`` workers; triangle order, and so the sum, do not depend
    on it."""
    t, (pa, pb, pc) = triangle_edge_positions(g, threads)
    if t == 0:
        return 0.0
    w = g.weights if g.is_weighted else np.ones(g.m, dtype=np.float64)
    return float(np.sum(w[pa] * w[pb] * w[pc]))


def estimate_weighted_triangles(g: Graph, params: SparsifyParams) -> WeightedEstimate:
    """Weighted pipeline: sparsify with 1/p edge reweighting, then total
    the surviving triangles. Each surviving triangle contributes
    w1*w2*w3 / p^3, so the estimate is unbiased for the weighted total.
    """
    start = perf_counter()
    sample = weighted_sparsify(g, params)
    sparsify_time = perf_counter() - start
    start = perf_counter()
    value = count_weighted_triangles(sample)
    count_time = perf_counter() - start
    return WeightedEstimate(
        params=params,
        surviving_edges=sample.m,
        estimate=value,
        sparsify_time=sparsify_time,
        count_time=count_time,
    )
