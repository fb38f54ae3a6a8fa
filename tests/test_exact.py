from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    census_by_enumeration,
    edge_triangle_counts,
    intersect_edge_deltas,
    load_perfbench,
    searchsorted_node_scan,
    star,
    subgraph_without_edge,
    with_isolated,
)
from trisparse import (
    Graph,
    book,
    complete,
    connected_triples,
    count_brute_force,
    count_edge_iterator,
    count_node_iterator,
    count_triangles,
    count_weighted_triangles,
    exact,
    gnp,
    transitivity,
    triangle_edge_positions,
    triple_census,
    weighted_book,
)

# perfbench's own exact.wedges counter, forward_wedges
BENCH_LAYERS = load_perfbench("layers")

TRIANGLE = Graph.build(3, [0, 0, 1], [1, 2, 2])
PATH3 = Graph.build(3, [0, 1], [1, 2])


class TestNodeIterator:
    def test_complete4(self):
        ts = count_node_iterator(complete(4), edge_deltas=True)
        assert ts.t == 4
        assert ts.delta_max == 2
        assert all(d == 2 for d in ts.delta_per_edge.values())

    def test_book1000_hub_edge(self):
        ts = count_node_iterator(book(1000), edge_deltas=True)
        assert ts.t == 1000
        assert ts.delta_max == 1000
        assert ts.delta_per_edge[(0, 1)] == 1000

    def test_book3_triangles_share_hub_edge(self):
        ts = count_node_iterator(book(3), edge_deltas=True)
        assert ts.t == 3
        assert ts.delta_per_edge[(0, 1)] == 3
        assert all(d == 1 for e, d in ts.delta_per_edge.items() if e != (0, 1))

    def test_matches_brute_force(self):
        g = gnp(30, 0.3, 7)
        assert count_node_iterator(g).t == count_brute_force(g)

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            count_node_iterator(weighted_book(3, 5.0))

    def test_pure(self):
        g = gnp(40, 0.2, 11)
        first = count_node_iterator(g, edge_deltas=True)
        second = count_node_iterator(g, edge_deltas=True)
        assert first.t == second.t
        assert first.delta_per_edge == second.delta_per_edge


class TestEdgeIterator:
    def test_complete4(self):
        assert count_edge_iterator(complete(4)).t == 4

    def test_book5(self):
        assert count_edge_iterator(book(5)).t == 5

    def test_agrees_with_node_iterator_on_100_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            g = gnp(25, 0.25, int(rng.integers(0, 10**9)))
            assert count_edge_iterator(g).t == count_node_iterator(g).t

    def test_deltas_match_node_iterator(self):
        g = gnp(25, 0.4, 5)
        a = count_node_iterator(g, edge_deltas=True).delta_per_edge
        b = count_edge_iterator(g, edge_deltas=True).delta_per_edge
        assert a == b


class TestBruteForce:
    def test_triangle(self):
        assert count_brute_force(TRIANGLE) == 1

    def test_path(self):
        assert count_brute_force(PATH3) == 0

    def test_complete6(self):
        assert count_brute_force(complete(6)) == 20

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            count_brute_force(gnp(40, 0.1, 0), limit=30)


class TestTripleCensus:
    def test_triangle(self):
        assert astuple(triple_census(TRIANGLE)) == (0, 0, 0, 1)

    def test_path(self):
        assert astuple(triple_census(PATH3)) == (0, 0, 1, 0)

    def test_matches_enumeration(self):
        g = gnp(20, 0.3, 1)
        assert astuple(triple_census(g)) == census_by_enumeration(g)

    @given(n=st.integers(1, 25), q=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_identities(self, n, q, seed):
        from math import comb
        g = gnp(n, q, seed)
        c = triple_census(g)
        assert c.t0 + c.t1 + c.t2 + c.t3 == comb(n, 3)
        assert g.m * (n - 2) == c.t1 + 2 * c.t2 + 3 * c.t3
        assert c.t3 == count_triangles(g)
        assert min(astuple(c)) >= 0


class TestTransitivity:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_complete_is_one(self, n):
        assert transitivity(complete(n)) == 1.0

    def test_triangle_free_is_zero(self):
        assert transitivity(PATH3) == 0.0
        assert transitivity(gnp(30, 0.0, 0)) == 0.0

    def test_book2_hand_value(self):
        # degrees (3, 3, 2, 2) -> 3+3+1+1 = 8 connected triples, t = 2
        g = book(2)
        assert connected_triples(g) == 8
        assert transitivity(g) == pytest.approx(6 / 8)

    def test_in_unit_interval(self):
        for seed in range(10):
            g = gnp(30, 0.3, seed)
            assert 0.0 <= transitivity(g) <= 1.0


class TestStructuralProperties:
    @given(n=st.integers(3, 25), q=st.floats(0.05, 0.95), seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_delta_sum_is_three_t(self, n, q, seed):
        g = gnp(n, q, seed)
        ts = count_node_iterator(g, edge_deltas=True)
        assert sum(ts.delta_per_edge.values()) == 3 * ts.t
        assert all(0 <= d <= n - 2 for d in ts.delta_per_edge.values())

    def test_deltas_match_enumeration_oracle(self):
        g = gnp(18, 0.4, 3)
        assert count_node_iterator(g, edge_deltas=True).delta_per_edge == edge_triangle_counts(g)

    def test_removing_edge_drops_t_by_its_delta(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = gnp(16, 0.5, int(rng.integers(0, 10**9)))
            if g.m == 0:
                continue
            ts = count_node_iterator(g, edge_deltas=True)
            i = int(rng.integers(0, g.m))
            edge = (int(g.edge_u[i]), int(g.edge_v[i]))
            reduced = subgraph_without_edge(g, i)
            assert count_node_iterator(reduced).t == ts.t - ts.delta_per_edge[edge]

    @given(n=st.integers(3, 22), q=st.floats(0.1, 0.9), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_small(self, n, q, seed):
        g = gnp(n, q, seed)
        assert count_node_iterator(g).t == count_edge_iterator(g).t == count_brute_force(g)

    def test_empty_and_tiny_graphs(self):
        for g in (Graph.build(0, [], []), Graph.build(1, [], []), Graph.build(2, [0], [1])):
            assert count_node_iterator(g).t == 0
            assert count_edge_iterator(g).t == 0
            assert count_triangles(g) == 0


def _slots(g: Graph) -> int:
    return exact._slot_table(g.edge_keys, g.n)[0].size


def _assert_kernel_matches_references(g: Graph, core: Graph | None = None) -> None:
    """The screened kernel against the searchsorted-only scan it replaced
    (same t, same triangle order), the edge iterator and brute force, run
    on ``core`` when g is ``core`` with its vertices relabelled."""
    want_t, want_pos = searchsorted_node_scan(g)
    t, pos = triangle_edge_positions(g)
    assert t == want_t == count_brute_force(g if core is None else core)
    for got, want in zip(pos, want_pos):
        np.testing.assert_array_equal(got, want)
    assert count_triangles(g) == t
    node = count_node_iterator(g, edge_deltas=True)
    edge = count_edge_iterator(g, edge_deltas=True)
    assert (node.t, node.delta_max) == (edge.t, edge.delta_max)
    assert node.delta_per_edge == edge.delta_per_edge
    # a float sum depends on its order, so equal totals need equal order
    w = np.random.default_rng(g.m).uniform(0.1, 10.0, g.m)
    wg = Graph.build(g.n, g.edge_u, g.edge_v, weights=w)
    pa, pb, pc = want_pos
    assert count_weighted_triangles(wg) == float(np.sum(w[pa] * w[pb] * w[pc]))


@st.composite
def _edge_lists(draw):
    """A random edge list on k <= 40 vertices, relabelled to distinct ids
    in [0, n) for n up to 5000: n^2 far above 8m, so most slots alias."""
    k = draw(st.integers(3, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=4 * k))
    n = draw(st.integers(k, 5000))
    ids = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    return Graph.build(n, ids[us], ids[vs]), Graph.build(k, us, vs)


class TestScreenedKernel:
    @given(graphs=_edge_lists())
    @settings(max_examples=80, deadline=None)
    def test_aliased_slot_table(self, graphs):
        # n^2 > slots: distinct keys can share a slot, so the screen passes
        # non-edges and the binary search must reject them
        g, core = graphs
        assume(_slots(g) < g.n * g.n)
        _assert_kernel_matches_references(g, core)

    @given(n=st.integers(3, 30), q=st.floats(0.3, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_exact_slot_table(self, n, q, seed):
        g = gnp(n, q, seed)
        assume(_slots(g) >= n * n)
        _assert_kernel_matches_references(g)

    @pytest.mark.parametrize("g", [
        star(30), book(40), complete(9), complete(3),
        Graph.build(0, [], []), Graph.build(5, [], []),
        with_isolated(complete(5), 7, 9), with_isolated(book(6), 3, 20),
    ], ids=["star", "book", "complete9", "triangle", "null", "empty",
            "complete-isolated", "book-isolated"])
    def test_shapes(self, g):
        _assert_kernel_matches_references(g)

    @pytest.mark.parametrize("g", [gnp(60, 0.3, 5), complete(12), book(40)],
                             ids=["gnp", "complete", "book"])
    def test_classes_over_the_wedge_chunk(self, g, monkeypatch):
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3)
        fdeg = np.diff(g.fptr)
        per_class = np.bincount(fdeg) * np.array([f * (f - 1) // 2 for f in range(fdeg.max() + 1)])
        assert per_class.max() > exact.WEDGE_CHUNK
        _assert_kernel_matches_references(g)

    @pytest.mark.parametrize("collect", [True, False], ids=["positions", "count"])
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    @pytest.mark.parametrize("g", [complete(12), book(40), gnp(60, 0.3, 5)],
                             ids=["complete", "book", "gnp"])
    def test_step_budget(self, g, chunk, collect, monkeypatch):
        run = triangle_edge_positions if collect else count_triangles
        want = run(g)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        sizes = []
        lookup = exact._lookup

        def spy(probe, *args):
            sizes.append(probe.size)
            return lookup(probe, *args)

        monkeypatch.setattr(exact, "_lookup", spy)
        np.testing.assert_equal(run(g), want)
        # every wedge probed once, as perfbench counts them; a step over
        # the budget is one row's wedges, as for complete(12) at chunk 7
        assert sum(sizes) == BENCH_LAYERS.forward_wedges(g)
        f = np.diff(g.fptr)
        assert all(s <= exact.WEDGE_CHUNK or s in (f * (f - 1) // 2) for s in sizes)


def _assert_edge_deltas(g: Graph) -> None:
    """The edge iterator's per-edge deltas against the intersect1d loop
    it replaced and against the node iterator."""
    edge = count_edge_iterator(g, edge_deltas=True)
    node = count_node_iterator(g, edge_deltas=True)
    assert edge.delta_per_edge == intersect_edge_deltas(g) == node.delta_per_edge
    assert edge == node


def _min_degree_probes(g: Graph) -> np.ndarray:
    """Probes the edge iterator makes per canonical edge, min(deg u, deg v)."""
    return np.minimum(g.degrees[g.edge_u], g.degrees[g.edge_v])


_SHAPES = st.one_of(
    st.builds(gnp, st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 10**6)),
    st.builds(star, st.integers(0, 40)),
    st.builds(book, st.integers(1, 40)),
    st.builds(complete, st.integers(1, 12)),
    st.builds(with_isolated,
              st.builds(gnp, st.integers(1, 20), st.floats(0.2, 1.0), st.integers(0, 10**6)),
              st.integers(0, 10), st.integers(0, 10)),
    _edge_lists().map(lambda graphs: graphs[0]),
)


class TestVectorizedEdgeIterator:
    @given(g=_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_deltas_match_oracle_and_node_iterator(self, g):
        _assert_edge_deltas(g)

    @pytest.mark.parametrize("g", [
        Graph.build(0, [], []), Graph.build(1, [], []), Graph.build(6, [], []),
        star(0), Graph.build(2, [0], [1]),
    ], ids=["n0", "n1", "m0", "star0", "one-edge"])
    def test_tiny_graphs(self, g):
        _assert_edge_deltas(g)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    @pytest.mark.parametrize("g", [star(40), book(40), with_isolated(book(25), 4, 6)],
                             ids=["star", "book", "book-isolated"])
    def test_step_budget(self, g, chunk, monkeypatch):
        want = count_edge_iterator(g, edge_deltas=True)
        probes = _min_degree_probes(g)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
            # the hub's run of edges spans more than one step
            hub = int(np.argmax(g.degrees))
            assert probes[g.edge_u == hub].sum() > chunk
        sizes = []
        lookup = exact._lookup

        def spy(probe, *args):
            sizes.append(probe.size)
            return lookup(probe, *args)

        monkeypatch.setattr(exact, "_lookup", spy)
        got = count_edge_iterator(g, edge_deltas=True)
        assert got == want
        assert got.delta_per_edge == intersect_edge_deltas(g)
        # every probe made once; a step over the budget is one edge's probes,
        # as for the book's hub edge at chunk 7
        assert sum(sizes) == probes.sum()
        assert all(s <= exact.WEDGE_CHUNK or s in probes for s in sizes)
        assert any(s > exact.WEDGE_CHUNK for s in sizes) == (probes.max() > exact.WEDGE_CHUNK)

    @pytest.mark.parametrize("g", [gnp(40, 0.3, 9), book(30), complete(8),
                                   with_isolated(complete(6), 3, 5)],
                             ids=["gnp", "book", "complete", "complete-isolated"])
    def test_does_not_read_the_orientation(self, g):
        bad = replace(g, fptr=np.zeros_like(g.fptr), fidx=g.fidx[::-1].copy(),
                                  fpos=g.fpos[::-1].copy())
        # the corruption is visible to the node iterator
        assert count_triangles(bad) != count_triangles(g)
        got = count_edge_iterator(bad, edge_deltas=True)
        assert got.delta_per_edge == intersect_edge_deltas(g)
        assert got == count_node_iterator(g, edge_deltas=True)
