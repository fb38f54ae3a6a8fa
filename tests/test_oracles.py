"""Pins the closed forms in oracles.py against exact enumeration, so the
reference values the acceptance suite compares against are verified."""

import math

import numpy as np
import pytest

from oracles import (
    edge_triangle_counts,
    edge_weight,
    exhaustive_sparsify_moments,
    normal_range_cdf,
    shared_edge_pairs,
    sparsify_variance,
    weighted_book_rsd,
    weighted_total_by_enumeration,
)
from trisparse import (
    SparsifyParams,
    book,
    complete,
    estimate_weighted_triangles,
    gnp,
    survival_mask,
    weighted_book,
)

RATES = (0.3, 0.5, 0.7)


def _small_gnp(count: int) -> list:
    rng = np.random.default_rng(16)
    graphs = []
    while len(graphs) < count:
        g = gnp(int(rng.integers(5, 9)), float(rng.uniform(0.35, 0.6)),
                int(rng.integers(0, 2**31)))
        if 1 <= g.m <= 16:
            graphs.append(g)
    return graphs


class TestSparsifyVariance:
    @pytest.mark.parametrize("p", RATES)
    def test_matches_enumeration_on_gnp(self, p):
        graphs = _small_gnp(6)
        assert any(shared_edge_pairs(edge_triangle_counts(g).values()) for g in graphs)
        for g in graphs:
            deltas = edge_triangle_counts(g).values()
            t = sum(deltas) // 3
            mean, var = exhaustive_sparsify_moments(g, p)
            assert mean == pytest.approx(t, rel=1e-9, abs=1e-9)
            assert var == pytest.approx(sparsify_variance(t, shared_edge_pairs(deltas), p),
                                        rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("g", [complete(5), complete(6), book(4)], ids=["K5", "K6", "book4"])
    def test_matches_enumeration_on_shared_edge_shapes(self, g):
        deltas = edge_triangle_counts(g).values()
        t = sum(deltas) // 3
        for p in RATES:
            _, var = exhaustive_sparsify_moments(g, p)
            assert var == pytest.approx(sparsify_variance(t, shared_edge_pairs(deltas), p),
                                        rel=1e-9)

    def test_shared_pairs_counts_each_pair_once(self):
        # K4: 4 triangles, every pair shares exactly one edge
        assert shared_edge_pairs(edge_triangle_counts(complete(4)).values()) == 6


class TestWeightedBookRsd:
    @pytest.mark.parametrize("w", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("p", RATES)
    def test_matches_enumeration(self, w, p):
        g = weighted_book(4, w)
        assert g.m == 9
        total = weighted_total_by_enumeration(g)
        mean, var = exhaustive_sparsify_moments(g, p, weighted=True)
        assert mean == pytest.approx(total, rel=1e-9)
        assert math.sqrt(var) / total == pytest.approx(weighted_book_rsd(4, w, p), rel=1e-9)

    def test_enumeration_matches_estimator_path(self):
        # the enumeration assumes each surviving triangle adds its weight
        # product / p^3; check the estimator does so for the pattern its seed draws
        g = weighted_book(4, 3.0)
        for seed in range(20):
            params = SparsifyParams(p=0.5, seed=seed)
            keep = survival_mask(g.m, params)
            alive = {(int(u), int(v)) for u, v in zip(g.edge_u[keep], g.edge_v[keep])}
            value = sum(edge_weight(g, 0, s) * edge_weight(g, 1, s)
                        for s in range(2, 6) if {(0, 1), (0, s), (1, s)} <= alive)
            assert estimate_weighted_triangles(g, params).estimate == pytest.approx(
                value / 0.5 ** 3, rel=1e-12)


class TestNormalRangeCdf:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.5])
    def test_two_draws_closed_form(self, r):
        # range of two draws is |X1 - X2| ~ |N(0, 2)|
        assert normal_range_cdf(r, 2) == pytest.approx(math.erf(r / 2.0), abs=1e-9)

    def test_six_draws_against_sampling(self):
        draws = np.random.default_rng(6).standard_normal((200_000, 6))
        ranges = draws.max(axis=1) - draws.min(axis=1)
        for r in (2.0, 3.0, 3.66):
            assert normal_range_cdf(r, 6) == pytest.approx(np.mean(ranges <= r), abs=0.004)
