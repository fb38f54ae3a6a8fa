"""Independent per-edge coin-flip sparsification and the t'/p^3 estimator."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .exact import count_triangles, triangle_edge_positions
from .graph import Graph

PRODUCT_CONVENTION = "product"
SUM_CONVENTION = "sum"
# Value assigned to a triangle from its three edge weights. Product makes
# a single heavy edge's influence maximal; sum can be swapped in.
TRIANGLE_VALUE_CONVENTION = PRODUCT_CONVENTION


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
    """One weighted sparsify-and-count trial under a triangle-value convention."""

    params: SparsifyParams
    surviving_edges: int
    estimate: float
    convention: str
    sparsify_time: float
    count_time: float


def survival_mask(m: int, params: SparsifyParams) -> np.ndarray:
    """Survival decisions for m canonical edges: one uniform draw per edge,
    in canonical (u < v, lexicographic) order; edge i survives iff its draw
    is below p. The inversion rule makes survival sets monotone in p for a
    fixed seed, and the i-th decision depends only on the i-th draw."""
    draws = np.random.default_rng(params.seed).random(m)
    return draws < params.p


def sparsify(g: Graph, params: SparsifyParams) -> Graph:
    """Keep each edge independently with probability p; the vertex set is
    unchanged. The uniform 1/p reweighting is implicit: the output stays
    unweighted and the estimator applies the 1/p^3 factor once."""
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


def estimate_triangles(g: Graph, params: SparsifyParams, counter: str = "node") -> Estimate:
    """Sparsify, count exactly on the sample, scale by 1/p^3.

    Sparsification and counting are timed separately; neither includes
    the time to get the input graph into memory.
    """
    if counter not in ("node", "edge"):
        raise ValueError(f"counter must be 'node' or 'edge', got {counter!r}")
    start = perf_counter()
    sample = sparsify(g, params)
    sparsify_time = perf_counter() - start
    start = perf_counter()
    t_prime = count_triangles(sample, method=counter)
    count_time = perf_counter() - start
    return Estimate(
        params=params,
        surviving_edges=sample.m,
        t_prime=t_prime,
        estimate=t_prime / params.p ** 3,
        sparsify_time=sparsify_time,
        count_time=count_time,
    )


def count_weighted_triangles(g: Graph, convention: str | None = None) -> float:
    """Sum of per-triangle values computed from edge weights.

    Product convention: value = w1 * w2 * w3; sum convention:
    value = w1 + w2 + w3. Unit weights reduce both to the plain count.
    """
    convention = convention or TRIANGLE_VALUE_CONVENTION
    t, (pa, pb, pc) = triangle_edge_positions(g)
    if t == 0:
        return 0.0
    w = g.weights if g.is_weighted else np.ones(g.m, dtype=np.float64)
    if convention == PRODUCT_CONVENTION:
        return float(np.sum(w[pa] * w[pb] * w[pc]))
    if convention == SUM_CONVENTION:
        return float(np.sum(w[pa] + w[pb] + w[pc]))
    raise ValueError(f"unknown triangle value convention {convention!r}")


def estimate_weighted_triangles(g: Graph, params: SparsifyParams,
                                convention: str | None = None) -> WeightedEstimate:
    """Weighted pipeline: sparsify with 1/p edge reweighting, then total
    the surviving triangles. Unbiased for the true weighted total under
    the product convention (each surviving triangle contributes
    w1*w2*w3 / p^3); the sum convention is exposed for comparison only.
    """
    convention = convention or TRIANGLE_VALUE_CONVENTION
    start = perf_counter()
    sample = weighted_sparsify(g, params)
    sparsify_time = perf_counter() - start
    start = perf_counter()
    value = count_weighted_triangles(sample, convention)
    count_time = perf_counter() - start
    return WeightedEstimate(
        params=params,
        surviving_edges=sample.m,
        estimate=value,
        convention=convention,
        sparsify_time=sparsify_time,
        count_time=count_time,
    )
