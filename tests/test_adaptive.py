import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisparse import (
    Graph,
    SparsifyParams,
    batch_spread,
    book,
    check_conditions,
    count_node_iterator,
    count_triangles,
    default_p0,
    doubling_search,
    estimate_triangles,
    gnp,
    recommend_p,
    trial_seed,
)
from trisparse.adaptive import (
    DELTA_DOMINANT,
    TRIANGLE_DOMINANT,
    recommendation_grid,
    run_trials,
)


class TestCheckConditions:
    def test_p_one_reads_t_over_delta(self):
        # with p = 1 and delta >= 1 the check reduces to
        # t / delta >= (log n)^(6+gamma)
        rep = check_conditions(n=1000, t=5000.0, delta_max=10.0, p=1.0, gamma=1.0)
        assert rep.regime == DELTA_DOMINANT
        assert rep.lhs == pytest.approx(5000.0 / 10.0)
        assert rep.rhs == pytest.approx(math.log(1000) ** 7)

    def test_regime_boundary_is_delta_dominant(self):
        # p^2 * delta == 1 classifies as the shared-edge regime
        rep = check_conditions(n=100, t=10.0, delta_max=4.0, p=0.5, gamma=1.0)
        assert rep.regime == DELTA_DOMINANT

    @pytest.mark.parametrize("exponent", range(2, 193))
    def test_exact_tie_rounds_to_delta_dominant(self, exponent):
        # t = n^1.6, delta = n, p = n^-1/2 is an exact tie, yet the float
        # product p^2 * delta reads 0.9999999999999998 at n = 10^3 and at
        # 55 more of these n; t = n^1.6 overflows past n = 10^192
        n = 10**exponent
        rep = check_conditions(n, float(n) ** 1.6, float(n), float(n) ** -0.5)
        assert rep.regime == DELTA_DOMINANT

    @pytest.mark.parametrize("exponent", [2, 3, 11, 170])
    def test_just_below_the_tie_is_triangle_dominant(self, exponent):
        n = 10**exponent
        rep = check_conditions(n, float(n) ** 1.6, float(n) * (1 - 1e-12),
                               float(n) ** -0.5)
        assert rep.regime == TRIANGLE_DOMINANT

    def test_triangle_regime_below_boundary(self):
        rep = check_conditions(n=100, t=10.0, delta_max=3.0, p=0.5, gamma=1.0)
        assert rep.regime == TRIANGLE_DOMINANT
        assert rep.lhs == pytest.approx(0.5**3 * 10.0)

    def test_degenerate_inputs_unsatisfied(self):
        for t, d in ((0.0, 5.0), (5.0, 0.0), (0.0, 0.0)):
            rep = check_conditions(n=100, t=t, delta_max=d, p=0.5, gamma=1.0)
            assert rep.degenerate
            assert not rep.satisfied

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, t=1.0, delta_max=1.0, p=0.5, gamma=1.0),
        dict(n=100, t=-1.0, delta_max=1.0, p=0.5, gamma=1.0),
        dict(n=100, t=1.0, delta_max=-1.0, p=0.5, gamma=1.0),
        dict(n=100, t=1.0, delta_max=1.0, p=0.0, gamma=1.0),
        dict(n=100, t=1.0, delta_max=1.0, p=1.5, gamma=1.0),
        dict(n=100, t=1.0, delta_max=1.0, p=0.5, gamma=0.0),
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            check_conditions(**kwargs)

    def test_large_web_graph_scale_report(self):
        rep = check_conditions(n=1_634_989, t=45_542_697.0, delta_max=1e5,
                               p=0.02, gamma=0.5)
        assert rep.regime == DELTA_DOMINANT  # p^2 * delta = 40 >= 1
        assert rep.lhs == pytest.approx(0.02 * 45_542_697.0 / 1e5)
        assert rep.rhs > 0

    def test_sqrt_n_rate_satisfied_for_very_large_n(self):
        # t = n^1.6, delta = n, p = n^-1/2 puts the check exactly on the
        # regime boundary with lhs = n^0.1; that beats (log n)^6.1 only for
        # astronomically large n (the crossover sits near n ~ e^400)
        n_big = 10**170
        rep = check_conditions(n_big, float(n_big) ** 1.6, float(n_big),
                               float(n_big) ** -0.5, gamma=0.1)
        assert rep.regime == DELTA_DOMINANT
        assert rep.satisfied

        n_mod = 10**6
        rep = check_conditions(n_mod, float(n_mod) ** 1.6, float(n_mod),
                               float(n_mod) ** -0.5, gamma=0.1)
        assert rep.regime == DELTA_DOMINANT
        assert not rep.satisfied  # moderate n: the constant-free check says no

    @given(p1=st.floats(0.01, 1.0), p2=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_satisfaction_monotone_in_p(self, p1, p2):
        if p1 > p2:
            p1, p2 = p2, p1
        n, t, d = 10**4, 1e9, 1e3
        lo = check_conditions(n, t, d, p1)
        hi = check_conditions(n, t, d, p2)
        assert (not lo.satisfied) or hi.satisfied


class TestRecommendP:
    def test_million_nodes_no_hints(self):
        assert recommend_p(10**6) == pytest.approx(0.001)

    def test_four_nodes_no_hints(self):
        assert recommend_p(4) == pytest.approx(0.5)

    def test_floor_clamp(self):
        assert recommend_p(10**8) == pytest.approx(0.001)  # n^-1/2 = 1e-4 clamped

    def test_book_hints_unsatisfiable_warns_and_falls_back(self):
        # t == delta forces t/delta = 1 < (log n)^7 at every rate
        g = book(1000)
        measured = count_node_iterator(g)
        with pytest.warns(RuntimeWarning):
            p = recommend_p(g.n, t_hint=float(measured.t),
                            delta_hint=float(measured.delta_max))
        assert p == 1.0

    def test_satisfiable_hints_pick_smallest_grid_rate(self):
        n, t, d = 10**4, 1e12, 10.0
        p = recommend_p(n, t_hint=t, delta_hint=d)
        grid = recommendation_grid(n)
        assert p in grid
        assert check_conditions(n, t, d, p).satisfied
        smaller = [q for q in grid if q < p]
        assert all(not check_conditions(n, t, d, q).satisfied for q in smaller)

    def test_hint_validation(self):
        with pytest.raises(ValueError):
            recommend_p(100, t_hint=-1.0, delta_hint=2.0)
        with pytest.raises(ValueError, match="delta hint must be positive"):
            recommend_p(100, t_hint=1.0, delta_hint=0.0)
        with pytest.raises(ValueError, match="vertex count must be positive"):
            recommend_p(0)

    def test_grid_shape(self):
        grid = recommendation_grid(400)
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == 1.0
        for a, b in zip(grid, grid[1:-1]):
            assert b == pytest.approx(2 * a)


class TestBatchSpread:
    def test_zero_mean_is_none(self):
        assert batch_spread([0.0, 0.0]) is None

    def test_values(self):
        assert batch_spread([354.0, 349.0, 348.0, 350.0]) == pytest.approx(6 / 350.25)
        assert batch_spread([43.0, 66.0, 52.0, 60.0]) == pytest.approx(23 / 55.25)

    @given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=10),
           st.floats(0.01, 100.0))
    @settings(max_examples=60)
    def test_scale_invariant(self, values, c):
        base = batch_spread(values)
        scaled = batch_spread([c * v for v in values])
        assert scaled == pytest.approx(base, rel=1e-9)


class TestDoublingSearch:
    def test_p0_one_single_exact_batch(self):
        g = gnp(60, 0.3, 1)
        t = count_triangles(g)
        assert t >= 1
        rep = doubling_search(g, p0=1.0, seed=0)
        assert len(rep.trace) == 1
        assert rep.trace[0].spread == 0.0
        assert rep.p_star == 1.0
        assert rep.final_estimate == t

    def test_triangle_free_terminates_exact_zero(self):
        g = Graph.build(4, [0, 1, 2], [1, 2, 3])  # path, t = 0
        rep = doubling_search(g, p0=0.25, seed=0)
        assert rep.p_star == 1.0
        assert rep.final_estimate == 0.0
        assert all(not b.concentrated for b in rep.trace[:-1])

    def test_triangle_rich_graph_concentrates_early(self):
        g = gnp(2000, 0.05, 3)
        t = count_triangles(g)
        rep = doubling_search(g, p0=0.05, spread_threshold=0.1, seed=0)
        assert rep.p_star < 1.0
        assert abs(rep.final_estimate / t - 1.0) <= 0.1

    def test_book_defeats_small_rates(self):
        rep = doubling_search(book(1000), p0=0.1, seed=0)
        for batch in rep.trace:
            if batch.p <= 0.2:
                assert not batch.concentrated

    def test_termination_bound(self):
        g = gnp(100, 0.05, 2)
        p0 = 0.013
        rep = doubling_search(g, p0=p0, seed=1)
        assert len(rep.trace) <= math.ceil(math.log2(1 / p0)) + 1

    def test_trace_is_doubling_sequence(self):
        rep = doubling_search(gnp(200, 0.02, 5), p0=0.05, seed=2)
        ps = [b.p for b in rep.trace]
        assert ps[0] == 0.05
        for a, b in zip(ps, ps[1:]):
            assert b == pytest.approx(min(2 * a, 1.0))

    def test_final_estimate_is_batch_mean(self):
        rep = doubling_search(gnp(300, 0.1, 4), p0=0.2, seed=3)
        star = rep.trace[-1]
        assert rep.p_star == star.p
        assert star.concentrated
        assert rep.final_estimate == pytest.approx(
            sum(star.estimates) / len(star.estimates))

    def test_deterministic_and_thread_invariant(self):
        g = gnp(400, 0.08, 6)
        a = doubling_search(g, p0=0.1, seed=42, threads=1)
        b = doubling_search(g, p0=0.1, seed=42, threads=4)
        assert [x.estimates for x in a.trace] == [x.estimates for x in b.trace]
        assert a.p_star == b.p_star

    def test_distinct_trial_seeds(self):
        seeds = {trial_seed(7, b, t) for b in range(5) for t in range(6)}
        assert len(seeds) == 30

    def test_zero_estimate_blocks_concentration(self):
        # book(50) at p=0.3: batches regularly contain zeros; none of the
        # pre-cap batches may be declared concentrated when they do
        rep = doubling_search(book(50), p0=0.3, trials_per_p=4, seed=5)
        for batch in rep.trace:
            if batch.p < 1.0 and any(e == 0 for e in batch.estimates):
                assert not batch.concentrated

    def test_argument_validation(self):
        g = gnp(20, 0.2, 0)
        with pytest.raises(ValueError):
            doubling_search(g, p0=0.0)
        with pytest.raises(ValueError):
            doubling_search(g, p0=0.5, trials_per_p=1)
        with pytest.raises(ValueError):
            doubling_search(g, p0=0.5, spread_threshold=0.0)

    def test_default_p0(self):
        assert default_p0(10**6) == pytest.approx(0.001)
        assert default_p0(4) == pytest.approx(0.5)
        assert default_p0(10**8) == pytest.approx(0.001)
        assert default_p0(0) == 1.0

    def test_sequential_estimates_uncorrelated(self):
        # lag-1 autocorrelation of 200 estimates at a fixed rate should be
        # statistically indistinguishable from 0 (|r| < 2.58/sqrt(200))
        g = gnp(1000, 0.1, 8)
        vals = np.array([
            estimate_triangles(g, SparsifyParams(p=0.05, seed=trial_seed(13, 0, k))).estimate
            for k in range(200)])
        x = vals - vals.mean()
        r = float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))
        assert abs(r) < 2.58 / math.sqrt(200)


class TestRunTrials:
    def test_thread_count_does_not_change_results_or_order(self):
        g = gnp(300, 0.1, 5)
        one = run_trials(g, 0.3, 17, 2, 8, threads=1)
        four = run_trials(g, 0.3, 17, 2, 8, threads=4)
        assert [e.params.seed for e in one] == [trial_seed(17, 2, j) for j in range(8)]
        assert [(e.params, e.estimate, e.t_prime) for e in one] == \
            [(e.params, e.estimate, e.t_prime) for e in four]
        assert len({e.estimate for e in one}) > 1

    def test_each_trial_is_a_direct_estimate(self):
        g = gnp(200, 0.15, 9)
        trials = run_trials(g, 0.4, 3, 7, 5)
        for j, est in enumerate(trials):
            direct = estimate_triangles(g, SparsifyParams(0.4, trial_seed(3, 7, j)))
            assert (est.params, est.surviving_edges, est.t_prime, est.estimate) == \
                (direct.params, direct.surviving_edges, direct.t_prime, direct.estimate)

    def test_trials_match_serial_under_thread_stress(self):
        # trials share one immutable graph; with more workers than cores
        # and frequent thread switches, every trial must still match a
        # serial run
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(4):
                # big enough that concurrent trials overlap
                g = gnp(1000, 0.05, seed)
                many = run_trials(g, 0.5, seed, 0, 16, threads=8)
                one = run_trials(g, 0.5, seed, 0, 16, threads=1)
                assert [(e.surviving_edges, e.t_prime) for e in many] == \
                    [(e.surviving_edges, e.t_prime) for e in one]
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            run_trials(gnp(30, 0.3, 1), 0.5, 0, 0, 2, threads=threads)
