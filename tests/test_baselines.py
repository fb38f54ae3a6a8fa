import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import buriol_exhaustive_mean, naive_exhaustive_mean
from trisparse import (
    Graph,
    TripleCensus,
    buriol_budget,
    buriol_sample,
    complete,
    count_brute_force,
    gnp,
    naive_budget,
    naive_sample,
    triple_census,
)
from trisparse.baselines import triples_are_triangles

PATH4 = Graph.build(4, [0, 1, 2], [1, 2, 3])


class TestBudgets:
    def test_naive_single_triangle_census(self):
        assert naive_budget(TripleCensus(0, 0, 0, 1), 0.1, 0.1).r == 231

    def test_buriol_single_triangle_census(self):
        assert buriol_budget(TripleCensus(0, 0, 0, 1), 0.1, 0.1).r == 1382

    def test_complete_graph_factor_is_one(self):
        # every triple is a triangle, so the naive factor collapses to 1
        census = triple_census(complete(8))
        assert (census.t0, census.t1, census.t2) == (0, 0, 0)
        assert naive_budget(census, 0.1, 0.1).r == 231

    def test_sparse_web_scale_budget_infeasible(self):
        # triangle density ~6.25e-11 pushes the naive budget past 10^12
        n, t = 1_634_989, 45_542_697
        total = math.comb(n, 3)
        census = TripleCensus(t0=total - t, t1=0, t2=0, t3=t)
        budget = naive_budget(census, 0.1, 0.1)
        density = t / total
        assert density == pytest.approx(6.25e-11, rel=0.01)
        assert budget.r > 10**12
        assert budget.r == pytest.approx(math.log(10) * 100 / density, rel=0.01)

    def test_no_triangles_is_an_error(self):
        census = TripleCensus(4, 0, 0, 0)
        with pytest.raises(ValueError):
            naive_budget(census, 0.1, 0.1)
        with pytest.raises(ValueError):
            buriol_budget(census, 0.1, 0.1)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1.0, 0.1), (0.1, 0.0), (0.1, 1.0)])
    def test_parameter_validation(self, eps, delta):
        with pytest.raises(ValueError):
            naive_budget(TripleCensus(0, 0, 0, 1), eps, delta)

    def test_path_plus_triangle_census_budget(self):
        # 3-vertex path and a disjoint triangle on n=6: T3=1, T2=1
        g = Graph.build(6, [0, 1, 3, 3, 4], [1, 2, 4, 5, 5])
        census = triple_census(g)
        assert census.t3 == 1
        assert census.t2 == 1
        factor = 3 + (census.t1 + 2 * census.t2) / census.t3
        expected = math.ceil(math.log(10) * (2 / 0.01) * factor)
        assert buriol_budget(census, 0.1, 0.1).r == expected

    @given(n=st.integers(4, 20), q=st.floats(0.3, 0.9), seed=st.integers(0, 10**5))
    @settings(max_examples=30, deadline=None)
    def test_buriol_factor_at_least_three(self, n, q, seed):
        census = triple_census(gnp(n, q, seed))
        if census.t3 < 1:
            return
        base = buriol_budget(census, 0.1, 0.1).r
        assert base >= math.ceil(math.log(10) * 200 * 3)


class TestNaiveSample:
    def test_complete_exact_for_any_r(self):
        for r in (1, 7, 100):
            assert naive_sample(complete(5), r, seed=3) == 10.0

    def test_triangle_free_is_zero(self):
        assert naive_sample(PATH4, 500, seed=1) == 0.0

    def test_deterministic(self):
        g = gnp(40, 0.3, 2)
        assert naive_sample(g, 1000, seed=9) == naive_sample(g, 1000, seed=9)

    def test_mean_within_five_se(self):
        g = gnp(50, 0.3, 5)
        t = count_brute_force(g)
        r, seeds = 10**5, 50
        vals = np.array([naive_sample(g, r, seed=s) for s in range(seeds)])
        se = vals.std(ddof=1) / seeds**0.5
        assert abs(vals.mean() - t) <= 5 * se

    def test_bounds(self):
        g = gnp(30, 0.5, 4)
        est = naive_sample(g, 2000, seed=0)
        assert 0.0 <= est <= math.comb(30, 3)

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            naive_sample(Graph.build(2, [0], [1]), 10)
        with pytest.raises(ValueError):
            naive_sample(complete(5), 0)


class TestBuriolSample:
    def test_complete4_exact_for_any_r(self):
        # every (edge, node) pair closes a triangle: estimate = 6*2/3 = 4
        for r in (1, 10, 500):
            assert buriol_sample(complete(4), r, seed=2) == 4.0

    def test_triangle_free_is_zero(self):
        assert buriol_sample(PATH4, 500, seed=1) == 0.0

    def test_deterministic(self):
        g = gnp(40, 0.3, 2)
        assert buriol_sample(g, 1000, seed=9) == buriol_sample(g, 1000, seed=9)

    def test_mean_within_five_se(self):
        g = gnp(60, 0.25, 9)
        t = count_brute_force(g)
        r, seeds = 10**5, 50
        vals = np.array([buriol_sample(g, r, seed=s) for s in range(seeds)])
        se = vals.std(ddof=1) / seeds**0.5
        assert abs(vals.mean() - t) <= 5 * se

    def test_bounds(self):
        g = gnp(30, 0.5, 4)
        est = buriol_sample(g, 2000, seed=0)
        assert 0.0 <= est <= g.m * (g.n - 2) / 3

    def test_needs_edges(self):
        with pytest.raises(ValueError):
            buriol_sample(Graph.build(5, [], []), 10)
        with pytest.raises(ValueError, match="trial count must be positive"):
            buriol_sample(complete(5), 0)


class TestExhaustiveUnbiasedness:
    @pytest.mark.parametrize("seed", range(5))
    def test_naive_mean_over_all_triples_is_t(self, seed):
        g = gnp(7, 0.5, seed)
        t = count_brute_force(g)
        assert naive_exhaustive_mean(g, triples_are_triangles) == t

    @pytest.mark.parametrize("seed", range(5))
    def test_buriol_mean_over_all_pairs_is_t(self, seed):
        g = gnp(7, 0.6, seed + 50)
        if g.m == 0:
            return
        t = count_brute_force(g)
        assert buriol_exhaustive_mean(g) == pytest.approx(t, abs=1e-12)
