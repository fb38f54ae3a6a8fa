import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    census_by_enumeration,
    edge_triangle_counts,
    searchsorted_node_scan,
    subgraph_without_edge,
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
from trisparse.sparsify import PRODUCT_CONVENTION, SUM_CONVENTION

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
        assert triple_census(TRIANGLE).as_tuple() == (0, 0, 0, 1)

    def test_path(self):
        assert triple_census(PATH3).as_tuple() == (0, 0, 1, 0)

    def test_matches_enumeration(self):
        g = gnp(20, 0.3, 1)
        assert triple_census(g).as_tuple() == census_by_enumeration(g)

    @given(n=st.integers(1, 25), q=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_identities(self, n, q, seed):
        from math import comb
        g = gnp(n, q, seed)
        c = triple_census(g)
        assert c.t0 + c.t1 + c.t2 + c.t3 == comb(n, 3)
        assert g.m * (n - 2) == c.t1 + 2 * c.t2 + 3 * c.t3
        assert c.t3 == count_triangles(g)
        assert min(c.as_tuple()) >= 0


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
    assert count_weighted_triangles(wg, PRODUCT_CONVENTION) == float(np.sum(w[pa] * w[pb] * w[pc]))
    assert count_weighted_triangles(wg, SUM_CONVENTION) == float(np.sum(w[pa] + w[pb] + w[pc]))


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


def _star(leaves: int) -> Graph:
    return Graph.build(leaves + 1, [0] * leaves, list(range(1, leaves + 1)))


def _with_isolated(g: Graph, shift: int, extra: int) -> Graph:
    return Graph.build(g.n + shift + extra, g.edge_u + shift, g.edge_v + shift)


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
        _star(30), book(40), complete(9), complete(3),
        Graph.build(0, [], []), Graph.build(5, [], []),
        _with_isolated(complete(5), 7, 9), _with_isolated(book(6), 3, 20),
    ], ids=["star", "book", "complete9", "triangle", "null", "empty",
            "complete-isolated", "book-isolated"])
    def test_shapes(self, g):
        _assert_kernel_matches_references(g)

    @pytest.mark.parametrize("g", [gnp(60, 0.3, 5), complete(12), book(40)],
                             ids=["gnp", "complete", "book"])
    def test_classes_over_the_wedge_chunk(self, g, monkeypatch):
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3)
        fdeg = exact._forward_structure(g)[1]
        per_class = np.bincount(fdeg) * np.array([f * (f - 1) // 2 for f in range(fdeg.max() + 1)])
        assert per_class.max() > exact.WEDGE_CHUNK
        _assert_kernel_matches_references(g)
