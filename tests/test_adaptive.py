import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import load_perfbench, with_isolated
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
    exact,
    gnp,
    recommend_p,
    trial_seed,
    weighted_book,
)
from trisparse.adaptive import (
    DELTA_DOMINANT,
    TRIANGLE_DOMINANT,
    recommendation_grid,
    run_trials,
)
from trisparse.graph import BitTable, SlotScreen

adaptive_module = importlib.import_module("trisparse.adaptive")
graph_module = importlib.import_module("trisparse.graph")
BENCH_LAYERS = load_perfbench("layers")


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


def _fields(trials):
    return [(e.params, e.surviving_edges, e.t_prime, e.estimate) for e in trials]


def _direct(g, p, seed, batch, trials):
    """Each trial of a rung run alone by ``estimate_triangles``."""
    return _fields(estimate_triangles(g, SparsifyParams(p, trial_seed(seed, batch, j)))
                   for j in range(trials))


@st.composite
def _indexed_graphs(draw):
    """A random graph on at most 40 vertices, on the bit table; or its
    edges moved to distinct ids among up to 3000 vertices, the rest
    isolated, on the slot screen."""
    k = draw(st.integers(2, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=6 * k))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    kind = draw(st.sampled_from([BitTable, SlotScreen]))
    n = k if kind is BitTable else draw(st.integers(k, 3000))
    ids = np.array(draw(st.permutations(range(n)))[:k]) if n > k else np.arange(k)
    with pytest.MonkeyPatch.context() as mp:
        # an unbounded budget forces the table, a zero one the screen
        mp.setattr(graph_module, "_TABLE_BYTES_PER_EDGE", 2**40 if kind is BitTable else 0)
        g = Graph.build(n, ids[us], ids[vs])
    assert isinstance(g.index, kind)
    return g


class TestSharedRung:
    """From trials * p^2 >= 1 on a rung's trials share one scan of the
    parent; each must still equal its own ``estimate_triangles``."""

    @given(g=_indexed_graphs(), trials=st.sampled_from([1, 2, 6, 8, 9, 16, 64, 65]),
           scale=st.sampled_from([0.3, 0.9, 1.0, 1.2, 2.0, 4.0, None]),
           seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_each_trial_alone(self, g, trials, scale, seed):
        # p on both sides of 1/sqrt(trials), and at 1
        p = 1.0 if scale is None else min(1.0, scale / math.sqrt(trials))
        want = _direct(g, p, seed, 3, trials)
        calls = []
        shared = adaptive_module.estimate_shared

        def spy(h, params, *args):
            calls.append(len(params))
            return shared(h, params, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adaptive_module, "estimate_shared", spy)
            for threads in (1, 2, 4):
                calls.clear()
                assert _fields(run_trials(g, p, seed, 3, trials, threads)) == want
                # every group of 64 trials shares a scan, or none does
                assert calls == ([64] * (trials // 64) + [trials % 64] * (trials % 64 > 0)
                                 if trials * p * p >= 1 else [])

    @pytest.mark.parametrize("trials", [6, 9, 65])
    @pytest.mark.parametrize("p", [0.5, 0.935, 1.0])
    @pytest.mark.parametrize("spec", ["book", "gnp", "gnp-isolated"])
    def test_shapes(self, spec, p, trials):
        g = {"book": book(3000), "gnp": gnp(600, 0.1, 1),
             "gnp-isolated": with_isolated(gnp(300, 0.1, 2), 5000, 5000)}[spec]
        want = _direct(g, p, 7, 1, trials)
        assert any(t_prime for _, _, t_prime, _ in want)
        for threads in (1, 2):
            assert _fields(run_trials(g, p, 7, 1, trials, threads)) == want

    def test_search_trace_is_thread_invariant(self):
        # a threshold no sampled batch meets: every rung up to p = 1 runs,
        # the last two, p = 0.58 and 1, shared
        g = book(3000)
        a, b = (doubling_search(g, spread_threshold=1e-9, seed=11, threads=threads)
                for threads in (1, 2))
        assert [(x.p, x.estimates, x.spread, x.concentrated) for x in a.trace] == \
            [(x.p, x.estimates, x.spread, x.concentrated) for x in b.trace]
        assert (a.p_star, a.final_estimate, a.total_trials) == \
            (b.p_star, b.final_estimate, b.total_trials) == (1.0, 3000.0, 6 * len(a.trace))
        assert sum(x.p ** 2 * 6 >= 1 for x in a.trace) == 2

    def test_search_opens_one_pool(self, thread_starts):
        # every rung, the per-trial ones and the two shared ones, gives the
        # same trace at any thread count; at one thread no thread is
        # started, and every thread a search starts has ended when it returns
        g = book(3000)
        want = doubling_search(g, spread_threshold=1e-9, seed=11).trace
        assert thread_starts == []
        for threads in (2, 3, 1):
            thread_starts.clear()
            report = doubling_search(g, spread_threshold=1e-9, seed=11, threads=threads)
            assert [(x.p, x.estimates) for x in report.trace] == \
                [(x.p, x.estimates) for x in want]
            assert (len(thread_starts) > 0) == (threads > 1)
            assert not any(thread.is_alive() for thread in thread_starts)
        assert len(want) == 7 and sum(x.p ** 2 * 6 >= 1 for x in want) == 2

    @pytest.mark.parametrize("p", [0.2, 0.7, 1.0])
    def test_rejects_weighted(self, p):
        with pytest.raises(ValueError, match="unweighted"):
            run_trials(weighted_book(3, 2.0), p, 0, 0, 4)

    def test_timings_are_equal_shares(self):
        trials = run_trials(gnp(200, 0.2, 3), 0.7, 1, 0, 6)
        assert len({(e.sparsify_time, e.count_time) for e in trials}) == 1
        assert trials[0].count_time > 0

    @pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "default"])
    @pytest.mark.parametrize("trials", [2, 8, 9])
    def test_step_budget(self, trials, chunk, monkeypatch):
        g = gnp(120, 0.2, 4)
        want = _direct(g, 0.8, 2, 0, trials)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        sizes, widths = [], []
        lookup, count_trials = exact.lookup, exact.count_trials

        def spy_lookup(probe, *args):
            sizes.append(probe.size)
            return lookup(probe, *args)

        def spy_count(h, bits, *args):
            widths.append(bits.nbytes / h.m)
            return count_trials(h, bits, *args)

        monkeypatch.setattr(exact, "lookup", spy_lookup)
        monkeypatch.setattr(exact, "count_trials", spy_count)
        monkeypatch.setattr(importlib.import_module("trisparse.sparsify"), "count_trials",
                            spy_count)
        for threads in (1, 2):
            sizes.clear()
            widths.clear()
            assert _fields(run_trials(g, 0.8, 2, 0, trials, threads)) == want
            # one scan of the parent, each wedge probed once, within the
            # per-worker budget
            assert sum(sizes) == BENCH_LAYERS.forward_wedges(g)
            assert max(sizes) <= max(1, exact.WEDGE_CHUNK // threads)
            # one byte of trial bits per edge for up to 8 trials, two for 9
            assert widths == [1 if trials <= 8 else 2]
