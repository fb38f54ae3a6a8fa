import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_dedupe_and_self_loop_semantics(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1\n1 0\n1 1\n1 2\n"))
        assert g.n == 3
        assert g.m == 2
        assert list(g.edge_index()) == [(0, 1), (1, 2)]

    def test_empty_file(self, tmp_path):
        g = load_edge_list(_write(tmp_path, ""))
        assert g.n == 0
        assert g.m == 0

    def test_first_appearance_compaction(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "5 9\n9 7\n"))
        assert g.n == 3
        assert g.m == 2
        assert g.labels.tolist() == [5, 9, 7]
        assert list(g.edge_index()) == [(0, 1), (1, 2)]

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
        assert g.edge_weight(0, 1) == 5.0

    def test_weight_defaults_to_one_when_absent(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0 1\n1 2 4.5\n"), weighted=True)
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 2) == 4.5

    def test_self_loop_vertex_kept_in_n(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "7 7\n0 1\n"))
        assert g.n == 3
        assert g.m == 1
        assert stats(g).isolated == 1


class TestGraphInvariants:
    @given(n=st.integers(2, 40), q=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_well_formed(self, n, q, seed):
        g = gnp(n, q, seed)
        deg = g.degrees
        assert int(deg.sum()) == 2 * g.m
        for u in range(g.n):
            nbrs = g.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)  # strictly ascending
            assert u not in nbrs
            for v in nbrs.tolist():
                assert u in g.neighbors(v)

    @given(n=st.integers(2, 30), q=st.floats(0.1, 0.9), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_labeled_edges(self, n, q, seed, tmp_path_factory):
        g = gnp(n, q, seed)
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        write_edge_list(path, g)
        g2 = load_edge_list(path)
        assert g.edges_as_labels() == g2.edges_as_labels()

    def test_round_trip_weighted(self, tmp_path):
        g = weighted_book(4, 7.5)
        path = tmp_path / "wb.txt"
        write_edge_list(path, g)
        g2 = load_edge_list(path, weighted=True)
        assert g.edges_as_labels() == g2.edges_as_labels()
        assert g2.edge_weight(g2.labels.tolist().index(0), g2.labels.tolist().index(2)) == 7.5

    def test_arrays_read_only(self):
        g = complete(4)
        with pytest.raises(ValueError):
            g.edge_u[0] = 3
        with pytest.raises(ValueError):
            g.indices[0] = 3

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
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(2, 3)
        assert list(g.has_edges([0, 2], [1, 3])) == [True, False]


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
        assert g.edge_weight(0, 2) == 50.0
        assert g.edge_weight(1, 2) == 50.0
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(0, 3) == 1.0

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
