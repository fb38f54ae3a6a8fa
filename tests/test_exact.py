import itertools
import sys
import threading
import time
from concurrent import futures
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


def _triples_by_vertex(degrees) -> int:
    return sum(d * (d - 1) // 2 for d in degrees.tolist())


class TestConnectedTriples:
    @pytest.mark.parametrize("g", [
        Graph.build(0, [], []), Graph.build(5, [], []), book(300), star(40),
        gnp(200, 0.1, 3), with_isolated(complete(9), 4, 30),
    ], ids=["null", "empty", "book", "star", "gnp", "complete-isolated"])
    def test_matches_the_sum_over_vertices(self, g):
        got = connected_triples(g)
        assert type(got) is int and got == _triples_by_vertex(g.degrees)

    def test_exact_past_int64(self):
        # 2^20 + 1 vertices of degree 2^22 and a few others: that class's
        # count * C(d, 2), and so the total, exceed 2^63 - 1
        degrees = np.concatenate([np.full(2**20 + 1, 2**22), [0, 1, 2, 3, 2**22 - 1]])
        g = replace(book(2), degrees=degrees)
        want = _triples_by_vertex(degrees)
        assert want > np.iinfo(np.int64).max
        assert connected_triples(g) == want


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
    return g.screen.size


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
        want = triangle_edge_positions(g) if collect else (count_triangles(g), None)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        sizes = []
        lookup = exact.lookup

        def spy(probe, *args):
            sizes.append(probe.size)
            return lookup(probe, *args)

        monkeypatch.setattr(exact, "lookup", spy)
        for threads in (1, 2):
            sizes.clear()
            np.testing.assert_equal(
                exact._scan(g, *exact._forward_rows(g), g.fidx,
                            fpos=g.fpos if collect else None, threads=threads), want)
            # every wedge probed once, as perfbench counts them, and no step
            # over the per-worker budget, not even one row's wedges, as for
            # complete(12)'s top rows at chunk 7
            assert sum(sizes) == BENCH_LAYERS.forward_wedges(g)
            assert max(sizes) <= max(1, exact.WEDGE_CHUNK // threads)

    def test_hub_row_is_split(self, monkeypatch):
        # complete(12)'s top row has C(11, 2) = 55 wedges: at chunk 7 it
        # takes eight steps, seven of 7 wedges and one of 6
        g = complete(12)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 7)
        steps = [(f, ii.size, starts.size)
                 for f, ii, _, starts in exact._steps(*exact._forward_rows(g), 7)]
        assert steps.count((11, 7, 1)) == 7 and steps.count((11, 6, 1)) == 1
        np.testing.assert_equal(triangle_edge_positions(g), searchsorted_node_scan(g))

    @pytest.mark.parametrize("threads", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [8, 30])
    @pytest.mark.parametrize("g", [complete(12), gnp(40, 0.3, 7)], ids=["complete", "gnp"])
    def test_wedges_in_flight(self, g, chunk, threads, monkeypatch):
        # steps that overlap in time never hold more than WEDGE_CHUNK
        # wedges together, and they do overlap: the pause makes sure
        want = triangle_edge_positions(g)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        lock = threading.Lock()
        held, peak, lookup = [0], [0], exact.lookup

        def spy(probe, *args):
            with lock:
                held[0] += probe.size
                peak[0] = max(peak[0], held[0])
            time.sleep(0.001)
            try:
                return lookup(probe, *args)
            finally:
                with lock:
                    held[0] -= probe.size

        monkeypatch.setattr(exact, "lookup", spy)
        np.testing.assert_equal(triangle_edge_positions(g, threads), want)
        assert max(1, exact.WEDGE_CHUNK // threads) < peak[0] <= exact.WEDGE_CHUNK


def _assert_edge_deltas(g: Graph) -> None:
    """The edge iterator's per-edge deltas against the intersect1d loop
    it replaced and against the node iterator."""
    edge = count_edge_iterator(g, edge_deltas=True)
    node = count_node_iterator(g, edge_deltas=True)
    assert edge.delta_per_edge == intersect_edge_deltas(g) == node.delta_per_edge
    assert edge == node


def _dense_pairs(g: Graph) -> np.ndarray:
    """The canonical edges whose two endpoints are dense: of degree at
    least ceil(n/64), the words of a bitmap row."""
    dense = g.degrees >= -(-g.n // 64)
    return dense[g.edge_u] & dense[g.edge_v]


def _edge_probes(g: Graph) -> np.ndarray:
    """Probes the edge iterator makes per canonical edge: min(deg u, deg v)
    where an endpoint is not dense, none where both are."""
    return np.where(_dense_pairs(g), 0, np.minimum(g.degrees[g.edge_u], g.degrees[g.edge_v]))


def _spy_edge_iterator(monkeypatch):
    """Record the size of every lookup, and the (edges, words) of every
    bitmap step's gathered blocks."""
    sizes, blocks = [], []
    lookup, common = exact.lookup, exact._common_neighbors

    def spy_lookup(probe, *args):
        sizes.append(probe.size)
        return lookup(probe, *args)

    def spy_common(rows, x, y):
        assert x.size == y.size
        blocks.append((x.size, rows.shape[1]))
        return common(rows, x, y)

    monkeypatch.setattr(exact, "lookup", spy_lookup)
    monkeypatch.setattr(exact, "_common_neighbors", spy_common)
    return sizes, blocks


def _word_boundary() -> Graph:
    """Dense vertices on both sides of each bitmap word boundary (63/64,
    127/128) and half a word in (32, 96), on n = 130, whose third word is
    partial; vertex 5 (degree 2, not dense) closes a triangle on the
    63-64 edge, and vertex 100 hangs off vertex 0."""
    clique = [0, 32, 63, 64, 96, 127, 128, 129]
    us, vs = (list(side) for side in zip(*itertools.combinations(clique, 2)))
    return Graph.build(130, us + [5, 5, 0], vs + [63, 64, 100])


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


def _assert_thread_independent(g: Graph, thread_counts=(2, 3, 4)) -> None:
    """The node scan's triangle edge positions, and so its triangle
    order, at each thread count against one thread."""
    t, want = triangle_edge_positions(g)
    for threads in thread_counts:
        got_t, got = triangle_edge_positions(g, threads)
        assert got_t == t
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


_CHUNKS = st.sampled_from([1, 7, exact.WEDGE_CHUNK])


class TestThreadedScan:
    @given(g=_SHAPES, chunk=_CHUNKS)
    @settings(max_examples=60, deadline=None)
    def test_positions_match_one_thread(self, g, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "WEDGE_CHUNK", chunk)
            _assert_thread_independent(g)

    @given(graphs=_edge_lists(), chunk=_CHUNKS)
    @settings(max_examples=40, deadline=None)
    def test_aliased_slot_table(self, graphs, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "WEDGE_CHUNK", chunk)
            _assert_thread_independent(graphs[0])

    def test_positions_match_under_thread_stress(self, monkeypatch):
        # more workers than cores and frequent thread switches: steps
        # finish out of order, and the scan must still collect them in
        # step order
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 64)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                _assert_thread_independent(gnp(120, 0.3, seed), (8,))
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "default"])
    @pytest.mark.parametrize("g", [weighted_book(40, 50.0), gnp(80, 0.3, 4)],
                             ids=["weighted-book", "gnp"])
    def test_weighted_total(self, g, chunk, monkeypatch):
        if not g.is_weighted:
            w = np.random.default_rng(1).uniform(0.1, 10.0, g.m)
            g = Graph.build(g.n, g.edge_u, g.edge_v, weights=w)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        assert count_weighted_triangles(g, 4) == count_weighted_triangles(g)

    @pytest.mark.parametrize("g", [gnp(60, 0.3, 3), book(30)], ids=["gnp", "book"])
    def test_node_iterator_stats(self, g, monkeypatch):
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 5)
        want = count_node_iterator(g, edge_deltas=True)
        assert count_node_iterator(g, edge_deltas=True, threads=3) == want

    def test_one_thread_starts_no_pool(self, monkeypatch):
        g = gnp(60, 0.3, 5)
        want = count_node_iterator(g)

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial scan started a pool")
        monkeypatch.setattr(exact, "ThreadPoolExecutor", no_pool)
        assert count_node_iterator(g) == want
        assert count_triangles(g) == want.t

    def test_pool_has_the_asked_workers(self, monkeypatch):
        sizes = []

        class Pool(futures.ThreadPoolExecutor):
            def __init__(self, workers):
                sizes.append(workers)
                super().__init__(workers)
        monkeypatch.setattr(exact, "ThreadPoolExecutor", Pool)
        count_node_iterator(gnp(60, 0.3, 5), threads=3)
        assert sizes == [3]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            triangle_edge_positions(complete(4), threads)


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
    @pytest.mark.parametrize("g", [star(200), book(200), with_isolated(book(150), 4, 70),
                                   gnp(100, 0.025, 3)],
                             ids=["star", "book", "book-isolated", "gnp-mixed"])
    def test_step_budget(self, g, chunk, monkeypatch):
        want = count_edge_iterator(g, edge_deltas=True)
        probes = _edge_probes(g)
        words = -(-g.n // 64)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
            # the probed edges span more than one step
            assert probes.sum() > chunk
        sizes, blocks = _spy_edge_iterator(monkeypatch)
        got = count_edge_iterator(g, edge_deltas=True)
        assert got == want
        assert got.delta_per_edge == intersect_edge_deltas(g)
        # every probe made once; a step over the budget is one edge's probes,
        # as for a book page's two at chunk 1
        assert sum(sizes) == probes.sum()
        assert 0 not in sizes
        assert all(s <= exact.WEDGE_CHUNK or s in probes for s in sizes)
        assert any(s > exact.WEDGE_CHUNK for s in sizes) == (probes.max() > exact.WEDGE_CHUNK)
        # every dense pair counted once, max(1, WEDGE_CHUNK // words) per
        # step, so a gathered block holds at most WEDGE_CHUNK words, or one row
        step = max(1, exact.WEDGE_CHUNK // words)
        assert sum(k for k, _ in blocks) == _dense_pairs(g).sum()
        assert [k for k, _ in blocks[:-1]] == [step] * (len(blocks) - 1)
        assert all(w == words and (k * w <= exact.WEDGE_CHUNK or k == 1) for k, w in blocks)

    @pytest.mark.parametrize("g", [book(200), with_isolated(book(150), 4, 70),
                                   with_isolated(gnp(80, 0.06, 1), 30, 50),
                                   gnp(150, 0.04, 6), _word_boundary()],
                             ids=["book", "book-isolated", "gnp-isolated", "gnp", "word-boundary"])
    def test_both_paths_in_one_call(self, g, monkeypatch):
        assert g.n > 64 and g.n % 64
        sizes, blocks = _spy_edge_iterator(monkeypatch)
        got = count_edge_iterator(g, edge_deltas=True)
        assert sum(sizes) == _edge_probes(g).sum() > 0
        assert sum(k for k, _ in blocks) == _dense_pairs(g).sum() > 0
        monkeypatch.undo()
        assert got.delta_per_edge == intersect_edge_deltas(g)
        assert got == count_node_iterator(g, edge_deltas=True)

    def test_word_boundary_counts(self):
        got = count_edge_iterator(_word_boundary(), edge_deltas=True).delta_per_edge
        # the clique's 8 vertices, plus vertex 5 on edge 63-64
        assert got[(63, 64)] == 7
        assert got[(0, 32)] == got[(96, 129)] == got[(127, 128)] == 6
        assert got[(5, 63)] == got[(5, 64)] == 1
        assert got[(0, 100)] == 0

    @pytest.mark.parametrize("g", [gnp(100, 0.5, 1), with_isolated(complete(20), 40, 100)],
                             ids=["gnp", "complete-isolated"])
    def test_all_dense_builds_no_screen(self, g, monkeypatch):
        # every edge joins two dense vertices: no symmetric keys, no screen
        want = intersect_edge_deltas(g)

        def no_table(*args, **kwargs):
            raise AssertionError("the edge iterator built a screen")
        monkeypatch.setattr(exact, "slot_table", no_table)
        assert _dense_pairs(g).all()
        assert count_edge_iterator(g, edge_deltas=True).delta_per_edge == want

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
