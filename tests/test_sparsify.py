import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    edge_weight,
    exhaustive_sparsify_expectation,
    filtered_forward_rows,
    star,
    weighted_total_by_enumeration,
    with_isolated,
)
from trisparse import (
    Graph,
    SparsifyParams,
    book,
    complete,
    count_brute_force,
    count_edge_iterator,
    count_triangles,
    count_weighted_triangles,
    estimate_triangles,
    estimate_weighted_triangles,
    exact,
    gnp,
    sparsify,
    survival_mask,
    trial_seed,
    weighted_book,
    weighted_sparsify,
)
from trisparse.adaptive import run_trials

# the package's own ``sparsify`` attribute is the function
sparsify_module = importlib.import_module("trisparse.sparsify")
graph_module = importlib.import_module("trisparse.graph")

TRIANGLE = Graph.build(3, [0, 0, 1], [1, 2, 2])


class TestParams:
    @pytest.mark.parametrize("p", [0.0, -0.2, 1.0001, 2.0])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            SparsifyParams(p=p, seed=0)

    def test_p_one_allowed(self):
        assert SparsifyParams(p=1.0, seed=0).p == 1.0


class TestSparsify:
    def test_p_one_is_identity(self):
        g = gnp(60, 0.2, 4)
        gp = sparsify(g, SparsifyParams(p=1.0, seed=9))
        assert np.array_equal(gp.edge_keys, g.edge_keys)
        assert gp.n == g.n

    def test_deterministic(self):
        g = gnp(60, 0.2, 4)
        params = SparsifyParams(p=0.4, seed=17)
        a = sparsify(g, params)
        b = sparsify(g, params)
        assert np.array_equal(a.edge_keys, b.edge_keys)

    def test_vertex_set_preserved_and_edges_subset(self):
        g = gnp(50, 0.3, 2)
        gp = sparsify(g, SparsifyParams(p=0.3, seed=5))
        assert gp.n == g.n
        assert set(gp.edge_keys.tolist()) <= set(g.edge_keys.tolist())

    def test_surviving_edge_mean_within_five_se(self):
        # surviving edges ~ Binomial(4950, 0.5) per seed, 200 seeds
        g = complete(100)
        p, seeds = 0.5, 200
        counts = [sparsify(g, SparsifyParams(p=p, seed=s)).m for s in range(seeds)]
        se = (g.m * p * (1 - p) / seeds) ** 0.5
        assert abs(np.mean(counts) - p * g.m) <= 5 * se

    @given(p1=st.floats(0.05, 0.95), p2=st.floats(0.05, 0.95), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_coupling(self, p1, p2, seed):
        # inversion rule: survivors at the smaller rate nest inside the larger
        if p1 > p2:
            p1, p2 = p2, p1
        m = 300
        small = survival_mask(m, SparsifyParams(p=p1, seed=seed))
        large = survival_mask(m, SparsifyParams(p=p2, seed=seed))
        assert not np.any(small & ~large)

    def test_per_edge_independence_of_draws(self):
        # the i-th survival decision is a pure function of the i-th draw
        params = SparsifyParams(p=0.37, seed=123)
        mask = survival_mask(500, params)
        draws = np.random.default_rng(123).random(500)
        assert np.array_equal(mask, draws < 0.37)

    @pytest.mark.parametrize("m", [0, 1, 500, 70_000])
    def test_p_one_keeps_every_edge_without_drawing(self, m, monkeypatch):
        # every draw is below 1, so skipping the draws changes no mask
        want = [np.random.default_rng(seed).random(m) < 1.0 for seed in (0, 1, 17, 2**40)]

        def no_draws(*args, **kwargs):
            raise AssertionError("survival_mask drew at p = 1")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for seed, mask in zip((0, 1, 17, 2**40), want):
            got = survival_mask(m, SparsifyParams(p=1.0, seed=seed))
            assert got.dtype == bool
            np.testing.assert_array_equal(got, mask)

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            sparsify(weighted_book(3, 2.0), SparsifyParams(p=0.5))


class TestEstimate:
    def test_p_one_exact(self):
        est = estimate_triangles(complete(4), SparsifyParams(p=1.0, seed=0))
        assert est.estimate == 4.0
        assert est.t_prime == 4
        assert est.surviving_edges == 6

    def test_estimate_is_t_prime_over_p_cubed(self):
        est = estimate_triangles(gnp(80, 0.2, 3), SparsifyParams(p=0.35, seed=8))
        assert est.estimate == est.t_prime / 0.35**3

    def test_triangle_graph_two_outcomes(self):
        # one triangle at p=0.5: the estimate is 8 iff all three edges
        # survive (probability 1/8), else 0
        seeds = 2000
        values = [estimate_triangles(TRIANGLE, SparsifyParams(p=0.5, seed=trial_seed(5, 0, k))).estimate
                  for k in range(seeds)]
        assert set(values) <= {0.0, 8.0}
        freq = sum(v == 8.0 for v in values) / seeds
        se = (0.125 * 0.875 / seeds) ** 0.5
        assert abs(freq - 0.125) <= 5 * se

    def test_book_mostly_zero_at_small_p(self):
        # losing the hub-hub edge (probability 1-p) kills every triangle
        seeds = 400
        zeros = sum(
            estimate_triangles(book(1000), SparsifyParams(p=0.1, seed=trial_seed(99, 0, k))).estimate == 0
            for k in range(seeds))
        assert zeros / seeds >= 0.85


def _sample_reference(g: Graph, params: SparsifyParams) -> tuple[int, int]:
    """(surviving edges, t') of the trial counted on the sparsified Graph."""
    sample = sparsify(g, params)
    return sample.m, count_edge_iterator(sample).t


def _assert_trial_matches_sample(g: Graph, params: SparsifyParams) -> None:
    est = estimate_triangles(g, params)
    assert (est.surviving_edges, est.t_prime) == _sample_reference(g, params)
    if g.n <= 60:
        assert est.t_prime == count_brute_force(sparsify(g, params))


@st.composite
def _graphs(draw):
    """A random graph on k <= 60 vertices, or on k <= 40 vertices
    relabelled to distinct ids in [0, n) for n up to 5000. There n^2 far
    exceeds the screen's slots, so a probe of a parent edge that did not
    survive and one of a slot collision both pass the screen."""
    k = draw(st.integers(0, 60))
    if k < 2:
        return Graph.build(k, [], [])
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=6 * k))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    if k > 40 or draw(st.booleans()):
        return Graph.build(k, us, vs)
    n = draw(st.integers(k, 5000))
    ids = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    return Graph.build(n, ids[us], ids[vs])


def _spread(g: Graph, n: int, seed: int) -> Graph:
    """g with its vertices moved to distinct random ids in [0, n)."""
    ids = np.random.default_rng(seed).choice(n, g.n, replace=False)
    return Graph.build(n, ids[g.edge_u], ids[g.edge_v])


SHAPES = {
    "star": star(30), "book": book(40), "complete": complete(12),
    "null": Graph.build(0, [], []), "empty": Graph.build(6, [], []),
    "complete-isolated": with_isolated(complete(6), 7, 9),
    "book-isolated": with_isolated(book(8), 3, 20), "gnp": gnp(60, 0.3, 5),
    # n^2 far exceeds the screen's slots, so non-edges pass the screen
    "gnp-spread": _spread(gnp(40, 0.4, 5), 200, 1),
}


class TestMaskedTrial:
    """A trial counts the survival mask on the parent's forward CSR; it
    must give the surviving edge count and t' of the sparsified Graph."""

    @given(g=_graphs(), p=st.floats(0.01, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_matches_sparsified_graph(self, g, p, seed):
        _assert_trial_matches_sample(g, SparsifyParams(p=p, seed=seed))

    @pytest.mark.parametrize("name", SHAPES)
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_shapes(self, name, p):
        for seed in range(5):
            _assert_trial_matches_sample(SHAPES[name], SparsifyParams(p=p, seed=seed))

    @pytest.mark.parametrize("keep", [True, False], ids=["all", "none"])
    @pytest.mark.parametrize("name", SHAPES)
    def test_masks_keeping_all_or_no_edges(self, name, keep, monkeypatch):
        monkeypatch.setattr(sparsify_module, "survival_mask",
                            lambda m, params: np.full(m, keep))
        g = SHAPES[name]
        est = estimate_triangles(g, SparsifyParams(p=0.5, seed=0))
        assert (est.surviving_edges, est.t_prime) == \
            ((g.m, count_brute_force(g)) if keep else (0, 0))
        assert (est.surviving_edges, est.t_prime) == _sample_reference(g, est.params)

    @pytest.mark.parametrize("name", ["star", "book", "complete", "gnp"])
    def test_wedge_chunk_of_three(self, name, monkeypatch):
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3)
        for p in (0.6, 1.0):
            _assert_trial_matches_sample(SHAPES[name], SparsifyParams(p=p, seed=4))

    def test_builds_no_graph(self, monkeypatch):
        g = gnp(80, 0.3, 2)
        want = [estimate_triangles(g, SparsifyParams(p=0.5, seed=s)).t_prime for s in range(3)]

        def no_build(*args, **kwargs):
            raise AssertionError("a trial built a Graph")
        monkeypatch.setattr(Graph, "build", no_build)
        assert [estimate_triangles(g, SparsifyParams(p=0.5, seed=s)).t_prime
                for s in range(3)] == want

    def test_builds_no_slot_table(self, monkeypatch):
        # every trial probes the parent's own screen and keys
        g = gnp(80, 0.3, 2)
        want = [estimate_triangles(g, SparsifyParams(p=p, seed=s)).t_prime
                for p in (0.5, 1.0) for s in range(3)]

        def no_table(*args, **kwargs):
            raise AssertionError("a trial built a slot table")
        for module in (graph_module, exact):
            monkeypatch.setattr(module, "slot_table", no_table)
        assert [estimate_triangles(g, SparsifyParams(p=p, seed=s)).t_prime
                for p in (0.5, 1.0) for s in range(3)] == want

    def test_starts_no_pool(self, monkeypatch):
        # trials run in parallel with each other; a pool inside each would
        # oversubscribe the cores, so a trial's scan runs inline
        g = gnp(80, 0.3, 2)
        want = [e.t_prime for e in run_trials(g, 0.5, 3, 0, 4, threads=2)]

        def no_pool(*args, **kwargs):
            raise AssertionError("a trial started a pool in exact")
        monkeypatch.setattr(exact, "ThreadPoolExecutor", no_pool)
        assert [e.t_prime for e in run_trials(g, 0.5, 3, 0, 4, threads=2)] == want
        assert estimate_triangles(g, SparsifyParams(p=0.5, seed=trial_seed(3, 0, 0))).t_prime \
            == want[0]

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            estimate_triangles(weighted_book(3, 2.0), SparsifyParams(p=0.5))


class _Poisoned:
    """Stands in for an array that must not be read: numpy conversion,
    indexing and attribute access all fail."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("a trial read the parent's fptr")

    def __getitem__(self, key):
        raise AssertionError("a trial read the parent's fptr")

    def __getattr__(self, name):
        raise AssertionError("a trial read the parent's fptr")


def _trial_fields(trials):
    return [(e.params, e.surviving_edges, e.t_prime, e.estimate) for e in trials]


class TestForwardSample:
    @pytest.mark.parametrize("name", SHAPES)
    def test_every_edge_surviving_passes_the_parents_csr(self, name):
        g = SHAPES[name]
        mask = np.ones(g.m, dtype=bool)
        first, fdeg, fidx = exact.forward_sample(g, mask)
        assert fidx is g.fidx
        for got, want in zip((first, fdeg, fidx), filtered_forward_rows(g, mask)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @given(g=_graphs(), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_filter(self, g, p, seed):
        mask = np.random.default_rng(seed).random(g.m) < p
        for got, want in zip(exact.forward_sample(g, mask), filtered_forward_rows(g, mask)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", SHAPES)
    def test_rows_of_one_entry_and_none(self, name):
        # a lone surviving entry makes no row; the first and last rows
        # of the sample are found as well as those between
        g = SHAPES[name]
        for mask in (np.zeros(g.m, dtype=bool), np.arange(g.m) % 2 == 0,
                     np.arange(g.m) % 3 != 1, np.arange(g.m) != 0):
            for got, want in zip(exact.forward_sample(g, mask), filtered_forward_rows(g, mask)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("name", ["star", "book", "complete", "book-isolated", "gnp"])
    def test_rows_across_chunks(self, name, chunk, monkeypatch):
        # a row whose surviving entries straddle two or more chunks, or
        # begins a chunk, is still one row
        monkeypatch.setattr(exact, "SAMPLE_CHUNK", chunk)
        g = SHAPES[name]
        for seed, p in enumerate((0.2, 0.6, 0.9)):
            mask = np.random.default_rng(seed).random(g.m) < p
            for got, want in zip(exact.forward_sample(g, mask), filtered_forward_rows(g, mask)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["book", "gnp", "gnp-spread"])
    def test_trials_at_p_one_match_under_1_and_2_threads(self, name, monkeypatch):
        g = SHAPES[name]
        want = _trial_fields(run_trials(g, 1.0, 5, 0, 4, threads=1))
        assert _trial_fields(run_trials(g, 1.0, 5, 0, 4, threads=2)) == want
        assert all(t_prime == count_triangles(g) for _, _, t_prime, _ in want)
        # the same trials through the rows of the filtered forward CSR
        monkeypatch.setattr(sparsify_module, "forward_sample", filtered_forward_rows)
        for threads in (1, 2):
            assert _trial_fields(run_trials(g, 1.0, 5, 0, 4, threads=threads)) == want

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
    @pytest.mark.parametrize("name", ["book", "gnp", "gnp-spread", "book-isolated"])
    def test_trials_match_under_1_and_2_threads(self, name, p, monkeypatch):
        g = SHAPES[name]
        want = _trial_fields(run_trials(g, p, 7, 1, 6, threads=1))
        assert _trial_fields(run_trials(g, p, 7, 1, 6, threads=2)) == want
        monkeypatch.setattr(sparsify_module, "forward_sample", filtered_forward_rows)
        assert _trial_fields(run_trials(g, p, 7, 1, 6, threads=1)) == want

    def test_trials_below_p_one_never_read_fptr(self):
        # a book with 10^5 isolated vertices around it: the sample is
        # built from the surviving entries, never from the parent's rows
        g = with_isolated(book(300), 40_000, 60_000)
        poisoned = replace(g, fptr=_Poisoned())
        for p in (0.01, 0.2, 0.6, 0.95):
            want = _trial_fields(run_trials(g, p, 3, 0, 4))
            assert any(t_prime for _, _, t_prime, _ in want) or p < 0.5
            for threads in (1, 2):
                assert _trial_fields(run_trials(poisoned, p, 3, 0, 4, threads=threads)) == want
        with pytest.raises(AssertionError, match="fptr"):
            estimate_triangles(poisoned, SparsifyParams(p=1.0))


class TestExhaustiveUnbiasedness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_expectation_equals_t(self, seed, p):
        g = gnp(7, 0.5, seed)
        t = count_brute_force(g)
        expectation = exhaustive_sparsify_expectation(
            g, p, count_fn=count_triangles, spot_checks=16)
        assert expectation == pytest.approx(t, rel=1e-9, abs=1e-9)


class TestWeighted:
    def test_p_one_keeps_weights(self):
        g = weighted_book(4, 50.0)
        gp = weighted_sparsify(g, SparsifyParams(p=1.0, seed=0))
        assert np.array_equal(gp.weights, g.weights)

    def test_reweighting(self):
        g = Graph.build(2, [0], [1], weights=[50.0])
        gp = weighted_sparsify(g, SparsifyParams(p=0.25, seed=1))
        if gp.m:  # the one edge survived under this seed
            assert edge_weight(gp, 0, 1) == 200.0

    def test_reweighting_definite(self):
        g = Graph.build(2, [0], [1], weights=[50.0])
        for seed in range(50):
            gp = weighted_sparsify(g, SparsifyParams(p=0.25, seed=seed))
            if gp.m:
                assert edge_weight(gp, 0, 1) == 200.0
                return
        pytest.fail("edge never survived in 50 seeds at p=0.25")

    def test_rejects_unweighted(self):
        with pytest.raises(ValueError):
            weighted_sparsify(book(3), SparsifyParams(p=0.5))

    def test_unit_weight_total_equals_plain_count(self):
        g = gnp(20, 0.4, 2)
        unit = Graph.build(g.n, g.edge_u, g.edge_v, weights=np.ones(g.m))
        assert count_weighted_triangles(unit) == count_brute_force(g)

    def test_single_triangle_product_value(self):
        g = Graph.build(3, [0, 0, 1], [1, 2, 2], weights=[1.0, 1.0, 7.0])
        assert count_weighted_triangles(g) == 7.0

    def test_weighted_total_matches_enumeration(self):
        g = weighted_book(5, 10.0)
        assert count_weighted_triangles(g) == pytest.approx(weighted_total_by_enumeration(g))

    def test_weighted_estimate_unbiased_within_five_se(self):
        # product convention: each surviving triangle contributes its old
        # value / p^3, so the mean over seeds tracks the true total
        g = weighted_book(10, 50.0)
        truth = count_weighted_triangles(g)
        seeds = 500
        vals = np.array([
            estimate_weighted_triangles(g, SparsifyParams(p=0.5, seed=trial_seed(11, 0, k))).estimate
            for k in range(seeds)])
        se = vals.std(ddof=1) / seeds ** 0.5
        assert abs(vals.mean() - truth) <= 5 * se
