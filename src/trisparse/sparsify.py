"""Independent per-edge coin-flip sparsification and the t'/p^3 estimator."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# a trial's t' is the forward scan of its sample, timed under this name
from .exact import count_forward as count_triangles
from .exact import (_require_unweighted, _share, count_trials, forward_sample,
                    triangle_edge_positions, trial_dtype)
from .graph import Graph

# Coins a survival mask draws at a time: 512 KiB of float64 draws, so
# the draws of an m-edge mask take no 8m-byte array
DRAW_BLOCK = 1 << 16


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
    Every draw is below 1, so at p = 1 no draw is made.

    The draws are made ``DRAW_BLOCK`` at a time into one reused float64
    buffer, and each block fills its part of the mask: the generator's
    stream runs on across calls, so the mask is that of one m-sized draw,
    and a draw holds the mask plus one block."""
    if params.p == 1.0:
        return np.ones(m, dtype=bool)
    rng = np.random.default_rng(params.seed)
    mask = np.empty(m, dtype=bool)
    draws = np.empty(min(m, DRAW_BLOCK))
    for a in range(0, m, DRAW_BLOCK):
        block = draws[:m - a]
        rng.random(out=block)
        np.less(block, params.p, out=mask[a:a + block.size])
    return mask


def sparsify(g: Graph, params: SparsifyParams) -> Graph:
    """Keep each edge independently with probability p; the vertex set is
    unchanged. The surviving edges of a weighted graph carry weight
    old_weight / p. An unweighted graph stays unweighted: its 1/p
    reweighting is implicit, and the estimator applies the 1/p^3 factor
    once. A trial counts these edges without building the graph."""
    mask = survival_mask(g.m, params)
    weights = g.weights[mask] / params.p if g.is_weighted else None
    return Graph.build(g.n, g.edge_u[mask], g.edge_v[mask], weights=weights, labels=g.labels)


def estimate_triangles(g: Graph, params: SparsifyParams) -> Estimate:
    """Sparsify, count exactly on the sample, scale by 1/p^3.

    The sample is the forward rows of g's surviving edges, scanned
    against g's own membership index: no ``Graph`` and no key copy.
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


def estimate_shared(g: Graph, params: list[SparsifyParams], threads: int = 1) -> list[Estimate]:
    """The trials ``params``, 1 to ``exact.SCAN_TRIALS`` of them at one
    rate p, from one scan of g, each equal to its ``estimate_triangles``:
    trial j's mask is drawn with its own seed and or-ed, under a lock,
    into bit j of a ``trial_dtype`` per edge by the worker that drew it,
    so no mask outlives its draw, and ``count_trials`` gives every t'
    from one scan of g's forward rows. At p = 1 no coin is drawn, and
    one count of g serves every trial. The draws and the scan's packs
    run on ``threads`` workers. Each trial's ``sparsify_time`` and
    ``count_time`` are equal shares of the rung's draw and scan time."""
    _require_unweighted(g, "estimate_shared")
    p, trials = params[0].p, len(params)
    start = perf_counter()
    if p == 1.0:
        kept, bits = [g.m] * trials, None
    else:
        bits = np.zeros(g.m, dtype=trial_dtype(trials))
        kept = [0] * trials
        lock = threading.Lock()

        def draw(j: int) -> None:
            bit = np.left_shift(survival_mask(g.m, params[j]), j, dtype=bits.dtype)
            kept[j] = int(np.count_nonzero(bit))
            with lock:
                np.bitwise_or(bits, bit, out=bits)

        # no thread without a mask to draw
        _share(draw, range(trials), min(threads, trials))
    sparsify_time = perf_counter() - start
    start = perf_counter()
    t_primes = ([count_triangles(g, *g.forward_rows, g.fidx)] * trials if bits is None
                else count_trials(g, bits, threads)[:trials].tolist())
    count_time = perf_counter() - start
    return [Estimate(params=pr, surviving_edges=s, t_prime=t, estimate=t / pr.p ** 3,
                     sparsify_time=sparsify_time / trials, count_time=count_time / trials)
            for pr, s, t in zip(params, kept, t_primes)]


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
    sample = sparsify(g, params)
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
