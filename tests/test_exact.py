import _thread
import itertools
import signal
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import astuple, fields, replace
from functools import lru_cache

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
    SparsifyParams,
    book,
    complete,
    connected_triples,
    count_brute_force,
    count_edge_iterator,
    count_node_iterator,
    count_triangles,
    count_weighted_triangles,
    estimate_triangles,
    exact,
    gnp,
    transitivity,
    triangle_edge_positions,
    triple_census,
    weighted_book,
)
from trisparse import graph as graph_module
from trisparse.adaptive import doubling_search, run_trials
from trisparse.baselines import buriol_sample, naive_sample
from trisparse.generators import generate
from trisparse.graph import BitTable, SlotScreen
from trisparse.sparsify import survival_mask

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
    """Slots of g's screen; a bit table, exact, counts as n^2."""
    return g.index.slots.size if isinstance(g.index, SlotScreen) else g.n * g.n


def _assert_kernel_matches_references(g: Graph, core: Graph | None = None) -> None:
    """The screened kernel against the searchsorted-only scan it replaced
    (same t, same triangle order), the edge iterator and brute force, run
    on ``core`` when g is ``core`` with its vertices relabelled."""
    want_t, want_pos = searchsorted_node_scan(g)
    t, pos = triangle_edge_positions(g)
    assert t == want_t == count_brute_force(g if core is None else core)
    for got, want in zip(pos, want_pos):
        np.testing.assert_array_equal(got, want)
    # every fold of the one node scan gives the same t, a trial's count
    # with no mask and with every edge alive among them
    rows = (*g.forward_rows, g.fidx)
    alive = np.ones(g.m, dtype=bool)
    assert count_triangles(g) == exact.count_forward(g, *rows) == \
        exact.count_forward(g, *rows, alive) == t
    node = count_node_iterator(g, edge_deltas=True)
    edge = count_edge_iterator(g, edge_deltas=True)
    assert (node.t, node.delta_max) == (t, edge.delta_max)
    assert edge.t == t
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


# A scan's bytes per wedge in flight, and those it allocates whatever the
# chunk: its plan over the rows and its Python objects
_SCAN_BYTES_PER_WEDGE = 24
_SCAN_FIXED_BYTES = 288 << 10
_SCANS = ("count_triangles", "count_node_iterator", "triangle_edge_positions", "count_trials")
# The graphs whose scans keep within those bytes, and the scans that do.
# book:3000 fills no pack. book:70000 fills them with 8-byte probes that
# all hit, and the per-edge counts' fold, which holds each hit's three
# intp positions before adding them in, takes more than 24 bytes a wedge.
_SCAN_BOUNDED = {"gnp:3000:0.05": _SCANS, "book:3000": _SCANS,
                 "book:70000": tuple(s for s in _SCANS if s != "count_node_iterator")}


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
        # these graphs fit the bit table, so the screen is forced
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_TABLE_BYTES_PER_EDGE", 0)
            g = gnp(n, q, seed)
        assert isinstance(g.index, SlotScreen)
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
            if collect:
                got = triangle_edge_positions(g, threads)
            else:
                hits = []
                exact._scan_steps(g, *g.forward_rows, g.fidx,
                                  lambda k, pack, sizes, idx, loc: hits.append(idx.size), threads)
                got = sum(hits), None
            np.testing.assert_equal(got, want)
            # every wedge probed once, as perfbench counts them, and no step
            # over the per-worker budget, not even one row's wedges, as for
            # complete(12)'s top rows at chunk 7
            assert sum(sizes) == BENCH_LAYERS.forward_wedges(g)
            assert max(sizes) <= max(1, exact.WEDGE_CHUNK // threads)
            if chunk is None:
                # a few hundred wedges at most: every degree class shares
                # the one lookup
                assert len(sizes) == 1

    def test_hub_row_is_split(self, monkeypatch):
        # complete(12)'s top row has C(11, 2) = 55 wedges: at chunk 7 it
        # takes eight steps, seven of 7 wedges and one of 6
        g = complete(12)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 7)
        steps = [(f, ii.size, starts.size) for pack in exact._packs(*g.forward_rows, 7)
                 for f, ii, _, starts in pack]
        assert steps.count((11, 7, 1)) == 7 and steps.count((11, 6, 1)) == 1
        np.testing.assert_equal(triangle_edge_positions(g), searchsorted_node_scan(g))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_long_rows_make_only_their_steps_pairs(self, chunk, monkeypatch):
        # complete(100)'s rows of 65 to 99 entries each hold far more than
        # chunk pairs: a step makes, and views, only its own, and a row's
        # steps together give np.triu_indices in order
        monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        rows = {}
        for pack in exact._packs(*complete(100).forward_rows, exact.WEDGE_CHUNK):
            for f, ii, jj, starts in pack:
                if f > exact._CACHED_PAIRS:
                    for a in (ii, jj):
                        assert a.size <= chunk and (a.base is None or a.base.size <= chunk)
                    rows.setdefault(int(starts[0]), (f, []))[1].append((ii, jj))
        assert sorted(f for f, _ in rows.values()) == list(range(exact._CACHED_PAIRS + 1, 100))
        for f, runs in rows.values():
            np.testing.assert_equal(np.concatenate(runs, axis=1), np.triu_indices(f, 1))

    def test_long_rows_split_by_pair_range_keep_the_scan(self, monkeypatch):
        # complete(70)'s rows of 65 to 69 entries take the pair-range runs
        # at chunk 7, and the whole-row path at the default chunk
        g = complete(70)
        want = triangle_edge_positions(g)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 7)
        for threads in (1, 2):
            np.testing.assert_equal(triangle_edge_positions(g, threads), want)
        assert count_triangles(g) == want[0] == 70 * 69 * 68 // 6

    @pytest.mark.parametrize("threads", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [8, 30])
    @pytest.mark.parametrize("g", [complete(12), gnp(40, 0.3, 7)], ids=["complete", "gnp"])
    def test_wedges_in_flight(self, g, chunk, threads, monkeypatch):
        # steps that overlap in time never hold more than WEDGE_CHUNK
        # wedges together, and they do overlap: the first two lookups wait
        # for each other
        want = triangle_edge_positions(g)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        lock, barrier = threading.Lock(), threading.Barrier(2, timeout=60)
        held, peak, calls, lookup = [0], [0], [0], exact.lookup

        def spy(probe, *args):
            with lock:
                held[0] += probe.size
                peak[0] = max(peak[0], held[0])
                calls[0] += 1
                first_two = calls[0] <= 2
            if first_two:
                barrier.wait()
            try:
                return lookup(probe, *args)
            finally:
                with lock:
                    held[0] -= probe.size

        monkeypatch.setattr(exact, "lookup", spy)
        np.testing.assert_equal(triangle_edge_positions(g, threads), want)
        assert max(1, exact.WEDGE_CHUNK // threads) < peak[0] <= exact.WEDGE_CHUNK

    @pytest.mark.parametrize("chunk", [1 << 14, 1 << 16])
    @pytest.mark.parametrize("spec", list(_SCAN_BOUNDED))
    def test_scan_bytes_scale_with_the_wedge_chunk(self, spec, chunk, monkeypatch):
        # what a scan allocates, less the arrays sized by m or t that its
        # result holds, is bounded by the wedges of one pack: the probe and
        # the lookup's temporaries, and a long row's pair indices
        g, bits = _scan_inputs(spec)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        runs = {
            "count_triangles": (lambda: count_triangles(g), lambda out: 0),
            # the int32 per-edge counts
            "count_node_iterator": (lambda: count_node_iterator(g), lambda out: 4 * g.m),
            # the triangles' positions, held as pieces and once more joined
            "triangle_edge_positions": (lambda: triangle_edge_positions(g),
                                        lambda out: 2 * sum(a.nbytes for a in out[1])),
            # each forward entry's trial bits
            "count_trials": (lambda: exact.count_trials(g, bits),
                             lambda out: g.m * bits.itemsize),
        }
        for name in _SCAN_BOUNDED[spec]:
            run, held = runs[name]
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - held(out) <= _SCAN_BYTES_PER_WEDGE * chunk + _SCAN_FIXED_BYTES, name


@lru_cache(maxsize=None)
def _scan_inputs(spec: str) -> tuple[Graph, np.ndarray]:
    """The graph of ``spec`` and the trial bits of a shared rung on it,
    six trials at p = 0.5, with the parts that are built once per graph
    or per process, its forward rows and the short rows' pair indices,
    already made."""
    g = generate(spec, 1)
    g.forward_rows
    for f in range(2, exact._CACHED_PAIRS + 1):
        exact._pairs(f)
    bits = np.zeros(g.m, dtype=exact.trial_dtype(6))
    for j in range(6):
        bits |= np.left_shift(survival_mask(g.m, SparsifyParams(0.5, j)), j, dtype=bits.dtype)
    return g, bits


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
    # n > 64 and low degrees: rows of several words, so the edge iterator
    # probes the edges of the pages and leaves, not only ANDs rows
    st.builds(with_isolated, st.builds(book, st.integers(1, 40)) | st.builds(star, st.integers(1, 40)),
              st.integers(0, 10), st.integers(150, 300)),
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

    @pytest.mark.parametrize("g", [gnp(200, 0.1, 6), book(3000)], ids=["gnp", "book"])
    def test_folds_match_one_thread_under_stress(self, g, monkeypatch):
        # four workers, small packs and frequent thread switches: every
        # fold's reduction, per-edge counts, per-trial counts, filed
        # positions and filed trials, must lose no update
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 16)
        bits = np.zeros(g.m, dtype=exact.trial_dtype(16))
        for j in range(16):
            bits |= np.left_shift(survival_mask(g.m, SparsifyParams(0.6, j)), j, dtype=bits.dtype)
        runs = {
            "count_node_iterator": lambda threads: count_node_iterator(
                g, edge_deltas=True, threads=threads),
            "count_trials": lambda threads: exact.count_trials(g, bits, threads).tolist(),
            "triangle_edge_positions": lambda threads: triangle_edge_positions(g, threads),
            # 16 trials alone at p = 0.2, and sharing one scan at p = 0.6
            "run_trials": lambda threads: [
                (e.params, e.surviving_edges, e.t_prime)
                for p in (0.2, 0.6) for e in run_trials(g, p, 5, 0, 16, threads)],
        }
        want = {name: run(1) for name, run in runs.items()}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # at least two rounds, and more while two seconds last
            deadline, rounds = time.perf_counter() + 2.0, 0
            while rounds < 2 or (rounds < 10 and time.perf_counter() < deadline):
                for name, run in runs.items():
                    np.testing.assert_equal(run(4), want[name], err_msg=name)
                rounds += 1
        finally:
            sys.setswitchinterval(old)

    def test_shared_draws_match_one_thread_under_stress(self):
        # 64 masks of 100,000 edges or-ed into one rung's bits by four
        # workers: a mask or-ed in without the lock loses bits in about
        # four rounds of ten, and with them some trials' t'
        g = gnp(2000, 0.05, 7)
        want = [(e.surviving_edges, e.t_prime) for e in run_trials(g, 0.6, 1, 0, 64)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline, rounds = time.perf_counter() + 2.0, 0
            while rounds < 10 or (rounds < 60 and time.perf_counter() < deadline):
                assert [(e.surviving_edges, e.t_prime)
                        for e in run_trials(g, 0.6, 1, 0, 64, 4)] == want
                rounds += 1
        finally:
            sys.setswitchinterval(old)

    # count_triangles scans on the calling thread alone
    @pytest.mark.parametrize("scan, threads", [
        (scan, threads) for scan in ("count_node_iterator", "triangle_edge_positions",
                                     "count_trials") for threads in (1, 3)
    ] + [("count_triangles", 1)])
    def test_failure_stops_the_scan(self, scan, threads, monkeypatch):
        # the third pack's lookup raises: the scan raises it, the worker
        # that met it takes no further pack, the others stop before
        # their next one, and no worker thread is left running
        g = gnp(80, 0.3, 4)
        bits = np.ones(g.m, dtype=np.uint8)
        run = {"count_node_iterator": lambda: count_node_iterator(g, threads=threads),
               "triangle_edge_positions": lambda: triangle_edge_positions(g, threads),
               "count_trials": lambda: exact.count_trials(g, bits, threads),
               "count_triangles": lambda: count_triangles(g)}[scan]
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3 * threads)
        plan = exact._packs(*g.forward_rows, exact.WEDGE_CHUNK // threads)
        assert sum(1 for _ in plan) >= 30

        class Failure(RuntimeError):
            pass

        lock, calls, failed, takes = threading.Lock(), [0], [], []
        lookup, packs = exact.lookup, exact._packs
        recorded = threading.Event()

        class Lock:
            """The scan's locks, each noting its release by the worker
            whose lookup raised: after the raise, that can only be the
            failure's record in the plan."""

            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, *exc_info):
                self.lock.release()
                if failed and failed[0] == threading.get_ident():
                    recorded.set()

        def spy(probe, *args):
            with lock:
                calls[0] += 1
                call = calls[0]
            if call == 3:
                failed.append(threading.get_ident())
                raise Failure
            if call > 3:
                # past the third lookup the other workers wait until the
                # failure is in the plan; where that never happens, they go
                # on after a while
                recorded.wait(2.0)
            return lookup(probe, *args)

        def taken(*args):
            for pack in packs(*args):
                # who took the pack, and whether the failure was met by then
                takes.append((threading.get_ident(), bool(failed)))
                yield pack

        monkeypatch.setattr(exact, "lookup", spy)
        monkeypatch.setattr(exact, "_packs", taken)
        monkeypatch.setattr(exact, "threading", types.SimpleNamespace(
            Thread=threading.Thread, Lock=Lock))
        before = threading.active_count()
        with pytest.raises(Failure):
            run()
        assert threading.active_count() == before
        assert len(failed) == 1
        assert (failed[0], True) not in takes
        # three lookups had started when the failure was met; at that time
        # each other worker held at most one pack, and could take at most
        # one more before the failure was in the plan
        assert len(takes) <= 3 + 2 * (threads - 1)
        if threads == 1:
            assert len(takes) == 3

    def test_interrupt_stops_the_scan(self, monkeypatch):
        # an interrupt of the caller, which runs one of the worker loops,
        # stops the scan as a failure does: it is raised, at most one
        # more pack per other worker is taken, and no thread is left
        threads = 3
        g = gnp(80, 0.3, 4)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3 * threads)
        assert sum(1 for _ in exact._packs(*g.forward_rows, 3)) >= 30
        lock, calls, takes = threading.Lock(), [0], []
        lookup, packs = exact.lookup, exact._packs
        caller, sent, handled = threading.get_ident(), threading.Event(), threading.Event()

        def on_interrupt(signum, frame):
            handled.set()
            raise KeyboardInterrupt

        def interrupt():
            _thread.interrupt_main()
            sent.set()

        def spy(probe, *args):
            with lock:
                calls[0] += 1
                call = calls[0]
            if call == 3:
                interrupter = threading.Thread(target=interrupt)
                interrupter.start()
                interrupter.join()
            elif call > 3:
                # past the third lookup the caller waits until the interrupt
                # is sent, and the other workers until the caller has taken
                # it; where that never happens, they go on after a while
                event = sent if threading.get_ident() == caller else handled
                if not event.wait(2.0):
                    event.set()
            return lookup(probe, *args)

        def taken(*args):
            for pack in packs(*args):
                takes.append(pack)
                yield pack

        monkeypatch.setattr(exact, "lookup", spy)
        monkeypatch.setattr(exact, "_packs", taken)
        before = threading.active_count()
        old = signal.signal(signal.SIGINT, on_interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                count_node_iterator(g, threads=threads)
        finally:
            signal.signal(signal.SIGINT, old)
        assert threading.active_count() == before
        assert len(takes) <= 3 + 2 * (threads - 1)

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

    def test_one_thread_starts_no_pool(self, thread_starts):
        g = gnp(60, 0.3, 5)
        want = count_node_iterator(g, threads=3)
        thread_starts.clear()
        assert count_node_iterator(g) == want
        assert count_triangles(g) == want.t
        assert thread_starts == []

    def test_pool_has_the_asked_workers(self, thread_starts, monkeypatch):
        # the caller is one of the scan's three workers, and two threads
        # are started for the others
        g = gnp(60, 0.3, 5)
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 3 * 3)
        assert sum(1 for _ in exact._packs(*g.forward_rows, 3)) >= 30
        lookup, workers = exact.lookup, set()

        def spy(*args):
            workers.add(threading.get_ident())
            return lookup(*args)
        monkeypatch.setattr(exact, "lookup", spy)
        count_node_iterator(g, threads=3)
        assert len(thread_starts) == 2
        assert threading.get_ident() in workers and len(workers) <= 3

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            triangle_edge_positions(complete(4), threads)


# the membership index kinds, each with a bit table budget that forces it
_INDEX_BUDGETS = {BitTable: 2**40, SlotScreen: 0}


def _with_index(g: Graph, kind: type) -> Graph:
    """g rebuilt on the membership index ``kind``: the bit table's budget
    set unbounded forces the table, set at zero the screen."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_TABLE_BYTES_PER_EDGE", _INDEX_BUDGETS[kind])
        h = Graph.build(g.n, g.edge_u, g.edge_v)
    assert isinstance(h.index, kind)
    return h


def _assert_table_matches_screen(g: Graph) -> None:
    """Everything the node scan and the baselines' positions give on g's
    bit table, against the same graph on the screen."""
    s = _with_index(g, SlotScreen)
    assert isinstance(g.index, BitTable)
    for threads in (1, 2):
        np.testing.assert_equal(triangle_edge_positions(g, threads),
                                triangle_edge_positions(s, threads))
        assert count_node_iterator(g, edge_deltas=True, threads=threads) == \
            count_node_iterator(s, edge_deltas=True, threads=threads)
    assert count_triangles(g) == count_triangles(s)
    for p in (0.1, 0.5, 1.0):
        for seed in range(3):
            params = SparsifyParams(p=p, seed=seed)
            a, b = estimate_triangles(g, params), estimate_triangles(s, params)
            assert (a.surviving_edges, a.t_prime) == (b.surviving_edges, b.t_prime)
    ids = np.arange(g.n)
    us, vs = np.repeat(ids, g.n), np.tile(ids, g.n)
    got = g.edge_positions(us, vs)
    np.testing.assert_array_equal(got, s.edge_positions(us, vs))
    # every edge at its canonical position both ways round, and -1 for
    # every other pair
    assert np.count_nonzero(got >= 0) == 2 * g.m
    assert np.count_nonzero(got == -1) == g.n ** 2 - 2 * g.m


class TestBitTableAgainstScreen:
    """The bit table and the screen must give the same answers, down to
    the canonical position of every hit."""

    @given(g=_SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_shapes(self, g):
        assume(g.n and isinstance(g.index, BitTable))
        _assert_table_matches_screen(g)

    @pytest.mark.parametrize("g", [
        gnp(300, 0.1, 3), gnp(130, 0.2, 1), complete(20), book(200), star(100),
        with_isolated(complete(9), 5, 60), Graph.build(1, [], []), Graph.build(9, [7], [8]),
    ], ids=["gnp", "gnp-partial-word", "complete", "book", "star", "complete-isolated",
            "one-vertex", "last-word"])
    def test_graphs(self, g):
        _assert_table_matches_screen(g)

    def test_wedge_chunk_of_five(self, monkeypatch):
        monkeypatch.setattr(exact, "WEDGE_CHUNK", 5)
        _assert_table_matches_screen(gnp(60, 0.3, 5))


class TestVectorizedEdgeIterator:
    @given(g=_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_deltas_match_oracle_and_node_iterator(self, g):
        for kind in _INDEX_BUDGETS:
            _assert_edge_deltas(_with_index(g, kind))

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
        # on both index kinds, each against its own count at the default chunk
        graphs = [_with_index(g, kind) for kind in _INDEX_BUDGETS]
        wants = [count_edge_iterator(h, edge_deltas=True) for h in graphs]
        probes = _edge_probes(g)
        words = -(-g.n // 64)
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
            # the probed edges span more than one step
            assert probes.sum() > chunk
        sizes, blocks = _spy_edge_iterator(monkeypatch)
        for h, want in zip(graphs, wants):
            sizes.clear()
            blocks.clear()
            got = count_edge_iterator(h, edge_deltas=True)
            assert got == want
            assert got.delta_per_edge == intersect_edge_deltas(g)
            # every probe made once; a step over the budget is one edge's
            # probes, as for a book page's two at chunk 1
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
    def test_both_paths_in_one_call(self, g):
        assert g.n > 64 and g.n % 64
        for kind in _INDEX_BUDGETS:
            h = _with_index(g, kind)
            with pytest.MonkeyPatch.context() as mp:
                sizes, blocks = _spy_edge_iterator(mp)
                got = count_edge_iterator(h, edge_deltas=True)
            assert sum(sizes) == _edge_probes(g).sum() > 0
            assert sum(k for k, _ in blocks) == _dense_pairs(g).sum() > 0
            assert got.delta_per_edge == intersect_edge_deltas(g)
            assert got == count_node_iterator(h, edge_deltas=True)

    def test_word_boundary_counts(self):
        got = count_edge_iterator(_word_boundary(), edge_deltas=True).delta_per_edge
        # the clique's 8 vertices, plus vertex 5 on edge 63-64
        assert got[(63, 64)] == 7
        assert got[(0, 32)] == got[(96, 129)] == got[(127, 128)] == 6
        assert got[(5, 63)] == got[(5, 64)] == 1
        assert got[(0, 100)] == 0

    @pytest.mark.parametrize("every", [False, True], ids=["dense", "every-vertex"])
    @pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "default"])
    @pytest.mark.parametrize("g", [
        with_isolated(gnp(50, 0.3, 1), 5, 8), with_isolated(gnp(50, 0.3, 2), 5, 9),
        with_isolated(gnp(50, 0.3, 3), 5, 10), with_isolated(gnp(100, 0.2, 4), 10, 20),
    ], ids=["n63", "n64", "n65", "n130"])
    def test_bitmap_rows_bit_by_bit(self, g, chunk, every, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(exact, "WEDGE_CHUNK", chunk)
        words = -(-g.n // 64)
        dense = np.ones(g.n, dtype=bool) if every else g.degrees >= words
        assert 0 < np.count_nonzero(dense) and (g.degrees[dense] == 0).any() == every
        nbrs = [set() for _ in range(g.n)]
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            nbrs[u].add(v)
            nbrs[v].add(u)
        want = np.zeros((np.count_nonzero(dense), words), dtype=np.uint64)
        for r, x in enumerate(np.flatnonzero(dense).tolist()):
            for c in nbrs[x]:
                want[r, c // 64] |= np.uint64(1 << (c % 64))
        rank, rows = exact._bitmap_rows(g, dense, words)
        np.testing.assert_array_equal(rank[dense], np.arange(want.shape[0]))
        np.testing.assert_array_equal(rows, want)

    @pytest.mark.parametrize("g,paths", [
        (gnp(100, 0.5, 1), "dense"), (with_isolated(complete(20), 40, 100), "dense"),
        (_word_boundary(), "mixed"), (book(200), "mixed"),
        (star(200), "probing"), (with_isolated(book(40), 2, 3000), "probing"),
    ], ids=["dense-gnp", "dense-complete-isolated", "mixed-word-boundary", "mixed-book",
            "probing-star", "probing-book-isolated"])
    def test_builds_no_index(self, g, paths, monkeypatch):
        # every probe is a lookup in g's own index, on either kind; the
        # iterator builds no membership index of its own
        dense = _dense_pairs(g)
        assert {"dense": dense.all(), "mixed": 0 < dense.sum() < g.m,
                "probing": not dense.any()}[paths]
        graphs = [_with_index(g, kind) for kind in _INDEX_BUDGETS]
        want = intersect_edge_deltas(g)

        def no_index(*args, **kwargs):
            raise AssertionError("the edge iterator built a membership index")
        for name in ("slot_table", "bit_table", "edge_index"):
            assert not hasattr(exact, name)
            monkeypatch.setattr(graph_module, name, no_index)
        for h in graphs:
            assert count_edge_iterator(h, edge_deltas=True).delta_per_edge == want

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


class TestKeyDtypeBoundary:
    """A graph on n = 46340 vertices, the most with int32 keys, and on
    46341, the fewest with int64 keys, on the screen and on a forced
    table, against the oracles of the same graph on 40 vertices."""

    @pytest.mark.parametrize("table", [False, True], ids=["screen", "table"])
    @pytest.mark.parametrize("n,dtype", [(46340, np.int32), (46341, np.int64)])
    def test_against_oracles(self, n, dtype, table, monkeypatch):
        base = gnp(40, 0.3, 11)
        small = Graph.build(40, np.append(base.edge_u, 38), np.append(base.edge_v, 39))
        # 40 ids spread over [0, n), the top two included, so that the
        # largest key, that of edge (38, 39), is made. An increasing
        # relabeling keeps the canonical and the degree-then-id order, and
        # so every position
        ids = np.concatenate([np.linspace(0, n - 3, 38).astype(np.int64), [n - 2, n - 1]])
        if table:
            # C(n+1, 2) bits and their rank directory, 192 MiB for some 250
            # edges; only the rank's 64 MiB is all written
            monkeypatch.setattr(graph_module, "_TABLE_BYTES_PER_EDGE", 2**40)
        g = Graph.build(n, ids[small.edge_u], ids[small.edge_v])
        monkeypatch.undo()
        assert isinstance(g.index, BitTable if table else SlotScreen)
        assert g.edge_keys.dtype == dtype and g.fidx.dtype == np.int32
        assert g.edge_keys[-1] == (n - 2) * n + n - 1
        # the canonical edges are stored once, as keys, and decoded on read
        assert not {"edge_u", "edge_v"} & {f.name for f in fields(g)}
        for got, want in zip((g.edge_u, g.edge_v), np.divmod(g.edge_keys.astype(np.int64), n)):
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, want)

        t = count_brute_force(small)
        assert t and count_triangles(g) == t
        for threads in (1, 2):
            np.testing.assert_equal(triangle_edge_positions(g, threads),
                                    searchsorted_node_scan(small))
        deltas = {(int(ids[u]), int(ids[v])): d for (u, v), d in edge_triangle_counts(small).items()}
        assert count_node_iterator(g, edge_deltas=True).delta_per_edge == deltas
        assert count_edge_iterator(g, edge_deltas=True).delta_per_edge == deltas
        for p in (0.3, 0.7, 1.0):
            for seed in range(3):
                params = SparsifyParams(p=p, seed=seed)
                mask = survival_mask(small.m, params)
                want = count_brute_force(Graph.build(small.n, small.edge_u[mask], small.edge_v[mask]))
                assert estimate_triangles(g, params).t_prime == want

        # every pair of the 40 ids and of the ids just above them, most of
        # which are no vertex of an edge
        near = np.unique(np.concatenate([ids, ids[:-1] + 1]))
        us, vs = np.repeat(near, near.size), np.tile(near, near.size)
        position = {(int(ids[u]), int(ids[v])): k for k, (u, v) in enumerate(zip(small.edge_u, small.edge_v))}
        want = [position.get((min(a, b), max(a, b)), -1) for a, b in zip(us.tolist(), vs.tolist())]
        got = g.edge_positions(us, vs)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert np.count_nonzero(got >= 0) == 2 * g.m


class TestKeyDecoding:
    """The hot paths decode only the keys they need: none reads the
    endpoint properties, which decode the whole edge set."""

    @pytest.mark.parametrize("g", [
        gnp(200, 0.1, 4), book(300),
        # n = 46383, past the int32 keys
        with_isolated(gnp(40, 0.3, 11), 3, 46340),
    ], ids=["gnp", "book", "int64-keys"])
    def test_hot_paths_read_no_endpoint_arrays(self, g, monkeypatch):
        def run():
            return [count_node_iterator(g), count_triangles(g), count_edge_iterator(g),
                    triple_census(g), *(estimate_triangles(g, SparsifyParams(p, 5)).t_prime
                                        for p in (0.01, 0.3, 1.0)),
                    doubling_search(g, seed=2).final_estimate, naive_sample(g, 500, 3),
                    buriol_sample(g, 500, 3)]

        def decoded(self):
            raise AssertionError("a hot path decoded every edge")
        want = run()
        monkeypatch.setattr(Graph, "edge_u", property(decoded))
        monkeypatch.setattr(Graph, "edge_v", property(decoded))
        assert run() == want
