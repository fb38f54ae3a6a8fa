"""Sampling baselines for head-to-head comparison: uniform triple sampling
and edge-plus-node sampling, with their required-trial-count formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import TripleCensus
from .graph import Graph


@dataclass(frozen=True)
class SampleBudget:
    """Trials needed for a (1 +- epsilon) estimate with failure
    probability at most delta."""

    epsilon: float
    delta: float
    r: int


def check_budget_args(epsilon: float | None, delta: float | None,
                      census: TripleCensus | None = None) -> None:
    """Reject an epsilon, delta or census that no budget can be made
    from; each may be None, for not given."""
    if epsilon is not None and not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if census is not None and census.t3 < 1:
        raise ValueError("sampling budget undefined: the graph has no triangles (T3 = 0), "
                         "so triple sampling is unsuitable")


def naive_budget(census: TripleCensus, epsilon: float, delta: float) -> SampleBudget:
    """r = ceil(log(1/delta) * (1/eps^2) * (1 + (T0+T1+T2)/T3)).

    The T0 term makes this explode on sparse graphs, where almost every
    triple is empty.
    """
    check_budget_args(epsilon, delta, census)
    factor = 1.0 + (census.t0 + census.t1 + census.t2) / census.t3
    r = math.ceil(math.log(1.0 / delta) * factor / epsilon ** 2)
    return SampleBudget(epsilon=epsilon, delta=delta, r=max(int(r), 1))


def buriol_budget(census: TripleCensus, epsilon: float, delta: float) -> SampleBudget:
    """r = ceil(log(1/delta) * (2/eps^2) * (3 + (T1+2*T2)/T3)).

    Drops the T0 term relative to naive triple sampling but still needs a
    triangle-dense graph to be practical.
    """
    check_budget_args(epsilon, delta, census)
    factor = 3.0 + (census.t1 + 2 * census.t2) / census.t3
    r = math.ceil(math.log(1.0 / delta) * 2.0 * factor / epsilon ** 2)
    return SampleBudget(epsilon=epsilon, delta=delta, r=max(int(r), 1))


def triples_are_triangles(g: Graph, a, b, c) -> np.ndarray:
    """Vectorized indicator: does each (a[i], b[i], c[i]) induce all three
    edges? Shared by the sampler and its exhaustive-expectation checks."""
    return g.has_edges(a, b) & g.has_edges(a, c) & g.has_edges(b, c)


def naive_sample(g: Graph, r: int, seed: int = 0) -> float:
    """Uniform triple sampling: draw r triples of distinct vertices (with
    replacement across trials), count how many induce triangles, and scale
    by C(n,3)/r."""
    if g.n < 3:
        raise ValueError(f"triple sampling needs at least 3 vertices, got {g.n}")
    if r < 1:
        raise ValueError(f"trial count must be positive, got {r}")
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, g.n, size=(r, 3), dtype=np.int64)
    # redraw rows with repeated vertices; rejection keeps the distribution
    # exactly uniform over distinct triples
    while True:
        dup = ((triples[:, 0] == triples[:, 1])
               | (triples[:, 0] == triples[:, 2])
               | (triples[:, 1] == triples[:, 2]))
        bad = int(dup.sum())
        if not bad:
            break
        triples[dup] = rng.integers(0, g.n, size=(bad, 3), dtype=np.int64)
    hits = int(triples_are_triangles(g, triples[:, 0], triples[:, 1], triples[:, 2]).sum())
    return math.comb(g.n, 3) * hits / r


def buriol_trial_nodes(g: Graph, r: int, rng: np.random.Generator):
    """Draw r (edge, third-node) trial pairs: an edge index uniform over
    the edge set and a node uniform over the other n-2 vertices."""
    eidx = rng.integers(0, g.m, size=r, dtype=np.int64)
    # only the drawn edges' keys are decoded
    i, j = np.divmod(g.edge_keys[eidx], g.n, dtype=np.int64)
    # map a draw from [0, n-3] onto V minus {i, j}; i < j holds canonically
    k = rng.integers(0, g.n - 2, size=r, dtype=np.int64)
    k = k + (k >= i)
    k = k + (k >= j)
    return i, j, k


def buriol_sample(g: Graph, r: int, seed: int = 0) -> float:
    """Edge-plus-node sampling: per trial pick a uniform edge (i, j) and a
    uniform node k outside it, test whether (i, k) and (k, j) are present,
    and scale the success rate by m*(n-2)/3. Stream passes are emulated
    with direct lookups; only the sampling distribution matters here."""
    if g.m < 1:
        raise ValueError("edge sampling needs at least one edge")
    if g.n < 3:
        raise ValueError(f"edge sampling needs at least 3 vertices, got {g.n}")
    if r < 1:
        raise ValueError(f"trial count must be positive, got {r}")
    rng = np.random.default_rng(seed)
    i, j, k = buriol_trial_nodes(g, r, rng)
    hits = int((g.has_edges(i, k) & g.has_edges(k, j)).sum())
    return (hits / r) * g.m * (g.n - 2) / 3.0
