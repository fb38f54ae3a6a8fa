import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_pairs, edge_weight, forward_csr, labelled_edges, star, with_isolated
from trisparse import (
    EdgeListFormatError,
    Graph,
    book,
    complete,
    generate,
    gnp,
    load_edge_list,
    stats,
    weighted_book,
    write_edge_list,
)
from trisparse.graph import _MAX_VERTICES


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_dedupe_and_self_loop_semantics(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1\n1 0\n1 1\n1 2\n"))
        assert g.n == 3
        assert g.m == 2
        assert edge_pairs(g) == [(0, 1), (1, 2)]

    def test_empty_file(self, tmp_path):
        g = load_edge_list(_write(tmp_path, ""))
        assert g.n == 0
        assert g.m == 0

    def test_first_appearance_compaction(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "5 9\n9 7\n"))
        assert g.n == 3
        assert g.m == 2
        assert g.labels.tolist() == [5, 9, 7]
        assert edge_pairs(g) == [(0, 1), (1, 2)]

    def test_comment_lines_ignored(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "# snap header\n% mm header\n0 1\n"))
        assert g.m == 1

    def test_extra_tokens_ignored_when_unweighted(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1 2001-01-01\n"))
        assert g.m == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "missing.txt")

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(_write(tmp_path, "0 1\nbroken\n"))
        assert exc.value.line_no == 2

    def test_non_integer_ids(self, tmp_path):
        with pytest.raises(EdgeListFormatError):
            load_edge_list(_write(tmp_path, "a b\n"))

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(EdgeListFormatError):
            load_edge_list(_write(tmp_path, "0 1 -2.0\n"), weighted=True)

    def test_zero_weight_rejected(self, tmp_path):
        with pytest.raises(EdgeListFormatError):
            load_edge_list(_write(tmp_path, "0 1 0.0\n"), weighted=True)

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan"])
    def test_non_finite_weight_reports_line_number(self, tmp_path, token):
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(_write(tmp_path, f"0 1 2.0\n# c\n1 2 {token}\n"), weighted=True)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("u", ["99999999999999999999", str(2**63), str(-2**63 - 1)])
    def test_id_outside_int64_reports_line_number(self, tmp_path, u):
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(_write(tmp_path, f"0 1\n1 2\n{u} 1\n"))
        assert exc.value.line_no == 3

    def test_int64_extreme_ids_load(self, tmp_path):
        g = load_edge_list(_write(tmp_path, f"{2**63 - 1} {-2**63}\n"))
        assert g.labels.tolist() == [2**63 - 1, -2**63]

    def test_duplicate_weighted_edges_keep_first(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1 5.0\n1 0 9.0\n"), weighted=True)
        assert g.m == 1
        assert edge_weight(g, 0, 1) == 5.0

    def test_weight_defaults_to_one_when_absent(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1\n1 2 4.5\n"), weighted=True)
        assert edge_weight(g, 0, 1) == 1.0
        assert edge_weight(g, 1, 2) == 4.5

    def test_self_loop_vertex_kept_in_n(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "7 7\n0 1\n"))
        assert g.n == 3
        assert g.m == 1
        assert stats(g).isolated == 1


class TestGraphInvariants:
    @given(n=st.integers(2, 30), q=st.floats(0.1, 0.9), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_labeled_edges(self, n, q, seed, tmp_path_factory):
        g = gnp(n, q, seed)
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        write_edge_list(path, g)
        g2 = load_edge_list(path)
        assert labelled_edges(g) == labelled_edges(g2)

    def test_round_trip_weighted(self, tmp_path):
        g = weighted_book(4, 7.5)
        path = tmp_path / "wb.txt"
        write_edge_list(path, g)
        g2 = load_edge_list(path, weighted=True)
        assert labelled_edges(g) == labelled_edges(g2)
        assert edge_weight(g2, g2.labels.tolist().index(0), g2.labels.tolist().index(2)) == 7.5

    def test_arrays_read_only(self):
        g = Graph.build(4, [0, 0, 1, 2], [1, 2, 2, 3], weights=[1.0, 2.0, 3.0, 4.0],
                        labels=[9, 8, 7, 6])
        arrays = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)
                  if isinstance(getattr(g, f.name), np.ndarray)}
        assert {"edge_u", "edge_v", "fptr", "fidx", "fpos", "degrees",
                "weights", "labels"} <= arrays.keys()
        for arr in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3

    def test_build_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            Graph.build(2, [0], [5])

    def test_build_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            Graph.build(3, [0, 1], [1, 2], weights=[1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e400])
    def test_build_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            Graph.build(3, [0, 1], [1, 2], weights=[1.0, bad])

    def test_write_edge_list_exact_bytes(self, tmp_path):
        # labels map back to the file's ids; weights are written with repr
        g = Graph.build(3, [0, 1, 0], [1, 2, 2], weights=[0.1, 2.0, 1 / 3],
                        labels=[-7, 40, 2**62])
        path = tmp_path / "g.txt"
        write_edge_list(path, g)
        assert path.read_bytes() == (b"-7 40 0.1\n"
                                     b"-7 4611686018427387904 0.3333333333333333\n"
                                     b"40 4611686018427387904 2.0\n")

    def test_has_edge_and_positions(self):
        g = book(3)
        assert g.has_edges([0], [1])[0] and g.has_edges([1], [0])[0]
        assert not g.has_edges([2], [3])[0]
        assert list(g.has_edges([0, 2], [1, 3])) == [True, False]


@st.composite
def raw_graphs(draw):
    """Graph.build input with relabelled ids, isolated vertices,
    duplicate and reversed edges, self-loops, and optional weights and
    labels; n = 0 and m = 0 included."""
    n = draw(st.integers(0, 25))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=80)) if n else []
    perm = draw(st.permutations(range(n)))
    us = [perm[u] for u, _ in pairs]
    vs = [perm[v] for _, v in pairs]
    weights = draw(st.none() | st.lists(st.floats(0.5, 8.0), min_size=len(pairs),
                                        max_size=len(pairs)))
    labels = draw(st.none() | st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                       max_size=n, unique=True))
    return Graph.build(n, us, vs, weights=weights, labels=labels)


def _assert_forward_layout(g):
    fptr, fidx, fpos = forward_csr(g)
    for got, want in ((g.fptr, fptr), (g.fidx, fidx), (g.fpos, fpos)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert g.degrees.dtype == np.int64
    assert np.array_equal(
        g.degrees, np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n))
    assert np.array_equal(np.sort(g.fpos), np.arange(g.m))
    # entry k joins the endpoints of canonical edge fpos[k]
    src = np.repeat(np.arange(g.n), np.diff(g.fptr))
    assert np.array_equal(np.minimum(src, g.fidx), g.edge_u[g.fpos])
    assert np.array_equal(np.maximum(src, g.fidx), g.edge_v[g.fpos])


class TestForwardLayout:
    @given(g=raw_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g):
        _assert_forward_layout(g)

    @pytest.mark.parametrize("g", [
        Graph.build(0, [], []), Graph.build(6, [], []), Graph.build(3, [1, 2], [1, 2]),
        complete(7), book(30), star(12), gnp(80, 0.2, 4), weighted_book(5, 3.0),
        with_isolated(book(6), 3, 20),
    ], ids=["null", "empty", "self-loops-only", "complete", "book", "star", "gnp",
            "weighted-book", "book-isolated"])
    def test_shapes(self, g):
        _assert_forward_layout(g)


class TestKeyArithmetic:
    """u*n+v keys and degree-then-id ranks at the largest accepted n,
    checked on the numbers alone: a graph that size cannot be built."""

    def test_largest_rank_and_key_fit_in_int64(self):
        n = _MAX_VERTICES
        top_rank = (n - 1) * n + (n - 1)   # degree n-1, id n-1
        top_key = (n - 2) * n + (n - 1)    # canonical edge (n-2, n-1)
        assert top_rank <= 2**63 - 1 and top_key <= top_rank
        assert (n + 1) * (n + 1) - 1 > 2**63 - 1  # the bound is tight
        deg = np.array([n - 1], dtype=np.int64)
        ids = np.array([n - 1], dtype=np.int64)
        assert int((deg * np.int64(n) + ids)[0]) == top_rank

    def test_divmod_recovers_endpoints(self):
        n = _MAX_VERTICES
        us = np.array([0, 0, n - 2, n // 2, 1], dtype=np.int64)
        vs = np.array([1, n - 1, n - 1, n // 2 + 1, n - 1], dtype=np.int64)
        keys = us * np.int64(n) + vs
        assert [int(k) for k in keys] == [u * n + v for u, v in zip(us.tolist(), vs.tolist())]
        a, b = np.divmod(keys, np.int64(n))
        assert np.array_equal(a, us) and np.array_equal(b, vs)

    def test_build_above_the_limit_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large for int64 edge keys"):
                Graph.build(_MAX_VERTICES + 1, [], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGenerators:
    def test_book_shape(self):
        g = book(3)
        assert (g.n, g.m) == (5, 7)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 100])
    def test_book_size_invariant(self, k):
        g = book(k)
        assert (g.n, g.m) == (k + 2, 2 * k + 1)

    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m) == (4, 6)

    def test_gnp_deterministic(self):
        a = gnp(100, 0.1, seed=12)
        b = gnp(100, 0.1, seed=12)
        assert np.array_equal(a.edge_keys, b.edge_keys)

    def test_gnp_mean_edges_within_five_se(self):
        # E[m] = q*C(n,2); 50 seeds at n=200, q=0.1
        n, q, seeds = 200, 0.1, 50
        pairs = n * (n - 1) // 2
        ms = [gnp(n, q, s).m for s in range(seeds)]
        se = (pairs * q * (1 - q) / seeds) ** 0.5
        assert abs(np.mean(ms) - q * pairs) <= 5 * se

    def test_weighted_book_heavy_pair(self):
        g = weighted_book(4, 50.0)
        assert edge_weight(g, 0, 2) == 50.0
        assert edge_weight(g, 1, 2) == 50.0
        assert edge_weight(g, 0, 1) == 1.0
        assert edge_weight(g, 0, 3) == 1.0

    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_weighted_book_has_book_edges(self, k):
        plain, heavy = book(k), weighted_book(k, 9.0)
        assert np.array_equal(plain.edge_u, heavy.edge_u)
        assert np.array_equal(plain.edge_v, heavy.edge_v)

    def test_generate_specs(self):
        assert generate("book:3").m == 7
        assert generate("complete:4").m == 6
        assert generate("gnp:50:0.2", seed=3).n == 50
        assert generate("weighted_book:3:10").is_weighted

    @pytest.mark.parametrize("spec", [
        "unknown:3", "book", "book:0", "book:-1", "gnp:50", "gnp:0:0.5",
        "gnp:50:1.5", "gnp:50:-0.1", "complete:0", "weighted_book:3:0",
        "weighted_book:3:inf", "weighted_book:3:nan",
    ])
    def test_generate_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            generate(spec)


class TestStats:
    def test_complete4(self):
        st_ = stats(complete(4))
        assert (st_.n, st_.m, st_.max_degree) == (4, 6, 3)

    def test_empty(self):
        st_ = stats(Graph.build(0, [], []))
        assert (st_.n, st_.m, st_.max_degree, st_.isolated) == (0, 0, 0, 0)

    def test_book3_max_degree(self):
        assert stats(book(3)).max_degree == 4

    @given(n=st.integers(1, 40), q=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_histogram_sums_to_n(self, n, q, seed):
        st_ = stats(gnp(n, q, seed))
        assert sum(st_.degree_histogram) == n
