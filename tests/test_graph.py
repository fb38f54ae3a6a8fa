import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (edge_pairs, edge_weight, forward_csr, gnp_by_rows, labelled_edges, star,
                     with_isolated)
from trisparse import (
    EdgeListFormatError,
    Graph,
    book,
    complete,
    count_triangles,
    generate,
    gnp,
    load_edge_list,
    stats,
    weighted_book,
    write_edge_list,
)
from trisparse import generators
from trisparse import graph as graph_module
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

    @pytest.mark.parametrize("data,line_no", [
        (b"0 1\n1 2\xff\n", 2),
        (b"\xfe 1\n", 1),
        (b"0 1\r1 2\r\n# caf\xc3\xa9\n2 \xe9\n", 4),
    ], ids=["lf", "first-line", "cr-crlf-and-utf8-comment"])
    def test_non_utf8_reports_line_number(self, tmp_path, data, line_no):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert exc.value.line_no == line_no
        assert exc.value.reason.startswith("not UTF-8 text: ")


def _outcome(load):
    """The Graph ``load()`` returns, as plain lists, or the type, message
    and line number of the EdgeListFormatError it raises."""
    try:
        g = load()
    except EdgeListFormatError as exc:
        return type(exc), str(exc), exc.line_no
    return g.n, *(getattr(g, name).tolist() for name in
                  ("edge_u", "edge_v", "fptr", "fidx", "fpos", "degrees", "labels"))


def _line_parser_graph(path):
    """What the per-line parser alone makes of ``path``."""
    us, vs, _, labels = graph_module._parse_lines(path, path.read_bytes(), False)
    return Graph.build(labels.size, us, vs, labels=labels)


def _assert_paths_agree(path):
    assert _outcome(lambda: load_edge_list(path)) == _outcome(lambda: _line_parser_graph(path))


_blanks = st.text(" \t", max_size=3)
_ends = st.sampled_from(["\n", "\r\n"])
# the ids the vectorized path reads: at most 18 digits, leading zeros
# and '-' included, and a few small ones so that lines share vertices
_plain_ids = st.one_of(
    st.integers(-5, 12).map(str),
    st.builds(lambda x, width: ("-" if x < 0 else "") + str(abs(x)).zfill(width),
              st.integers(-10**18 + 1, 10**18 - 1), st.integers(0, 18)),
)
_plain_lines = st.one_of(
    st.builds(lambda a, u, sep, v, b, end: a + u + sep + v + b + end,
              _blanks, _plain_ids, st.text(" \t", min_size=1, max_size=3), _plain_ids,
              _blanks, _ends),
    st.builds(lambda b, end: b + end, _blanks, _ends),
)
_header_lines = st.builds(lambda a, mark, text, end: a + mark + text + end,
                          _blanks, st.sampled_from("#%"),
                          st.text("abc 019\t#%-", max_size=12), _ends)
# tokens the per-line parser reads or rejects in ways numpy must not copy
_odd_ids = st.sampled_from([
    "0", "1", "-1", "007", "-0", "+5", "1_000", "\u0663", "--1", "5-", "-", "1e3", "x", "0x1f",
    str(10**18 - 1), str(-10**18 + 1), str(10**18), "9" * 19, "1" + "0" * 19,
    str(2**63 - 1), str(-2**63), str(2**63), str(-2**63 - 1), "0" * 21 + "7",
])
_any_ids = st.one_of(_plain_ids, _odd_ids)
_odd_lines = st.one_of(
    _header_lines,
    st.builds(lambda a, u, v, b, end: a + u + " " + v + b + end,
              _blanks, _any_ids, _any_ids, _blanks, st.sampled_from(["\n", "\r\n", "\r", ""])),
    st.builds(lambda u, v, extra: f"{u}\t{v} {extra}\n", _any_ids, _any_ids,
              st.sampled_from(["2.5", "x", "# c", "9"])),
    st.builds(lambda a, u: a + u + "\n", _blanks, _any_ids),
    st.sampled_from(["\r", "\x0c", "\x0b\n", "\xa0", "\u2028", "\x00"]),
)


class TestVectorizedLoader:
    """``load_edge_list`` parses plain files with numpy and everything else
    with the per-line parser; both must give the same Graph or error."""

    @given(header=st.lists(_header_lines, max_size=3), body=st.lists(_plain_lines, max_size=30),
           cut_end=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_plain_files_take_the_vectorized_path(self, header, body, cut_end,
                                                  tmp_path_factory):
        text = "".join(header + body)
        if cut_end:
            text = text.rstrip("\r\n")
        path = tmp_path_factory.mktemp("plain") / "g.txt"
        path.write_bytes(text.encode())
        assert graph_module._vectorized_ids(path.read_bytes()) is not None
        _assert_paths_agree(path)

    @given(lines=st.lists(_plain_lines, max_size=25),
           odd=st.lists(st.tuples(st.integers(0, 25), _odd_lines), max_size=2),
           raw=st.sampled_from([b"", b"", b"", b"\xff", b"\xc3"]))
    @settings(max_examples=400, deadline=None)
    def test_any_file_loads_as_the_line_parser_reads_it(self, lines, odd, raw,
                                                        tmp_path_factory):
        for at, line in odd:
            lines.insert(at, line)
        path = tmp_path_factory.mktemp("any") / "g.txt"
        path.write_bytes("".join(lines).encode() + raw)
        _assert_paths_agree(path)

    @pytest.mark.parametrize("text", [
        "", "\n", " \t\r\n", "# only a comment", "0 1", "0 1 2\n", "0\n1\n", "0 1 2 3\n",
        "0 1\r2 3\n", "# c\r0 1\n", "0 1\n# late comment\n", "0 1\n\n\n2 3",
        "-5 -6\n5 -0\n", "- 1\n", "1 -\n", "1 2-\n", "+1 2\n", "1_0 2\n", "01 1\n",
        f"{2**63 - 1} {-2**63}\n", f"{2**63} 1\n", "9" * 19 + " 1\n", "0" * 19 + "1 1\n",
        "1" * 18 + " -" + "1" * 18 + "\n", "1\t\t2\r\n3 \t4\t\r\n",
    ])
    def test_edge_cases_agree(self, tmp_path, text):
        _assert_paths_agree(_write(tmp_path, text))

    @pytest.mark.parametrize("text", [
        "0 1 2\n", "0 1\r2 3\n", "+1 2\n", "1_0 2\n", "9" * 19 + " 1\n", "0 1\n# c\n",
        "\u0663 1\n",
    ])
    def test_unusual_files_fall_back(self, tmp_path, text):
        assert graph_module._vectorized_ids(_write(tmp_path, text).read_bytes()) is None

    @pytest.mark.parametrize("body,tokens", [
        (b"", 0), (b" \t\r\n\n", 0), (b"1 2", 2), (b"-1\t-22 \r\n\n 3 4\n", 4),
        (b"5-3 1\n", None), (b"1 --2\n", None), (b"1 2-\n", None), (b"1 -\n", None),
        (b"1\n2\n", None), (b"1 2 3\n", None), (b"1 2 3 4\n", None), (b"1 2\n3\n", None),
        (b"1" * 19 + b" 2\n", None), (b"-" + b"1" * 18 + b" 2\n", 2),
    ])
    def test_shape_check(self, body, tokens):
        assert graph_module._plain_pair_tokens(np.frombuffer(body, dtype=np.uint8)) == tokens

    def test_weighted_files_use_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(data):
            raise AssertionError("weighted input reached the vectorized path")
        monkeypatch.setattr(graph_module, "_vectorized_ids", refuse)
        g = load_edge_list(_write(tmp_path, "0 1 2.5\n1 2\n"), weighted=True)
        assert g.weights.tolist() == [2.5, 1.0]


class TestBenchmarkInputsTakeVectorizedPath:
    """The benchmark's input files must never fall back to the per-line
    parser: it is several times slower."""

    @pytest.fixture(autouse=True)
    def refuse_line_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fell back to the per-line parser")
        monkeypatch.setattr(graph_module, "_parse_lines", refuse)

    @pytest.mark.parametrize("g", [
        gnp(300, 0.05, seed=301),
        book(1000),
        Graph.build(5, [0, 0, 1, 2, 3], [1, 2, 2, 3, 4],
                    labels=[-7, 12, -10**17, 0, 10**18 - 1]),
    ], ids=["gnp", "book", "labelled"])
    def test_written_edge_lists(self, tmp_path, g):
        path = tmp_path / "g.txt"
        write_edge_list(path, g)
        assert labelled_edges(load_edge_list(path)) == labelled_edges(g)

    def test_snap_style_file(self, tmp_path):
        text = ("# Directed graph (each unordered pair of nodes is saved once): g.txt\n"
                "# Nodes: 4 Edges: 4\n"
                "# FromNodeId\tToNodeId\n"
                "10\t20\n20\t30\n30\t10\n30\t40\n")
        g = load_edge_list(_write(tmp_path, text))
        assert g.labels.tolist() == [10, 20, 30, 40]
        assert labelled_edges(g) == {(10, 20), (20, 30), (10, 30), (30, 40)}


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
        assert {"edge_u", "edge_v", "fptr", "fidx", "fpos", "degrees", "edge_keys",
                "screen", "weights", "labels"} <= arrays.keys()
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


_ARRAYS = ("edge_u", "edge_v", "fptr", "fidx", "fpos", "degrees", "edge_keys", "screen")


@st.composite
def _raw_edges(draw):
    """Graph.build input with duplicate and reversed edges and self-loops,
    on n up to 3000 so that keys run past int32; n = 0 and m = 0 included."""
    n = draw(st.integers(0, 3000))
    ends = st.integers(0, n - 1) | st.integers(max(0, n - 3), n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=120)) if n else []
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in
             zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))]
    return n, [u for u, _ in pairs], [v for _, v in pairs]


class TestBuildDedupe:
    @given(raw=_raw_edges())
    @settings(max_examples=150, deadline=None)
    def test_matches_first_occurrence(self, raw):
        # unweighted input dedupes by a sort; weighted input keeps the
        # stable first-occurrence path, and both give the same topology
        n, us, vs = raw
        g = Graph.build(n, us, vs)
        lo, hi = np.minimum(us, vs).astype(np.int64), np.maximum(us, vs).astype(np.int64)
        lo, hi = lo[lo != hi], hi[lo != hi]
        uniq, first = np.unique(lo * n + hi, return_index=True)
        for got, want in ((g.edge_u, lo[first]), (g.edge_v, hi[first]), (g.edge_keys, uniq)):
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        weighted = Graph.build(n, us, vs, weights=np.arange(1, len(us) + 1, dtype=float))
        for name in _ARRAYS:
            np.testing.assert_array_equal(getattr(g, name), getattr(weighted, name))
            assert getattr(g, name).dtype == getattr(weighted, name).dtype

    def test_weighted_keeps_the_first_weight(self):
        g = Graph.build(3, [2, 0, 1, 0, 1], [1, 1, 2, 1, 0], weights=[5.0, 4.0, 3.0, 2.0, 1.0])
        assert edge_weight(g, 0, 1) == 4.0 and edge_weight(g, 1, 2) == 5.0

    @pytest.mark.parametrize("n,us,vs", [(0, [], []), (1, [0], [0]), (4, [], [])])
    def test_no_edges_no_warning(self, n, us, vs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = Graph.build(n, us, vs)
        assert g.m == 0 and g.edge_u.dtype == g.edge_v.dtype == np.int64


class TestForwardLayout:
    @given(g=raw_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g):
        _assert_forward_layout(g)

    @pytest.mark.parametrize("g", [
        Graph.build(0, [], []), Graph.build(6, [], []), Graph.build(3, [1, 2], [1, 2]),
        complete(7), book(30), star(12), gnp(80, 0.2, 4), weighted_book(5, 3.0),
        with_isolated(book(6), 3, 20), gnp(300, 0.05, 4), book(70000),
    ], ids=["null", "empty", "self-loops-only", "complete", "book", "star", "gnp",
            "weighted-book", "book-isolated", "gnp-uint16", "book-uint32"])
    def test_shapes(self, g):
        # the forward sort narrows the ids to uint8, uint16 or uint32 by n
        _assert_forward_layout(g)


def _positions_by_searchsorted(g, us, vs) -> np.ndarray:
    """Reference for ``Graph.edge_positions``: binary search of the keys
    worked out from the canonical edge arrays."""
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    keys = g.edge_u * np.int64(g.n) + g.edge_v
    probe = np.minimum(us, vs) * np.int64(g.n) + np.maximum(us, vs)
    if g.m == 0:
        return np.full(probe.shape, -1, dtype=np.int64)
    pos = np.searchsorted(keys, probe)
    return np.where(keys[np.minimum(pos, g.m - 1)] == probe, pos, -1)


def _assert_positions(g, us, vs):
    want = _positions_by_searchsorted(g, us, vs)
    for a, b in ((us, vs), (vs, us)):
        got = g.edge_positions(a, b)
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(g.has_edges(a, b), want >= 0)


@st.composite
def _colliding_probes(draw):
    """A graph with few edges among ids spread over [0, n), and probes
    whose keys share a slot of its screen with an edge's key: each is
    an edge key plus a multiple of the screen size. n^2 far exceeds
    the slots, so most of them pass the screen and are no edge."""
    n = draw(st.integers(2, 5000))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=12))
    g = Graph.build(n, [u for u, _ in pairs], [v for _, v in pairs])
    shifts = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8))
    keys = (g.edge_keys[:, None] + g.screen.size * np.array(shifts)).ravel()
    u, v = np.divmod(keys[(keys >= 0) & (keys < n * n)], n)
    return g, u, v


class TestEdgePositions:
    """Positions of probed pairs through the graph's screen and keys,
    against a plain binary search."""

    @given(g=raw_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, g, data):
        ids = st.integers(0, max(g.n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=30)) if g.n else []
        pairs += list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        _assert_positions(g, [u for u, _ in pairs], [v for _, v in pairs])

    @given(case=_colliding_probes())
    @settings(max_examples=100, deadline=None)
    def test_keys_sharing_a_slot(self, case):
        g, u, v = case
        # every probe passes the screen, so the key compare alone decides
        assert g.screen[(u * g.n + v) & (g.screen.size - 1)].all()
        _assert_positions(g, u, v)

    def test_slot_shared_by_edges_and_non_edges(self):
        g = Graph.build(5000, [0, 0, 0], [32, 64, 96])
        assert g.screen.size == 32
        u, v = np.divmod(np.arange(0, 50 * 32, 32), 5000)
        _assert_positions(g, u, v)
        np.testing.assert_array_equal(g.edge_positions(u, v)[:4], [-1, 0, 1, 2])

    @pytest.mark.parametrize("g", [Graph.build(0, [], []), Graph.build(1, [], []),
                                   Graph.build(6, [], [])], ids=["n0", "n1", "m0"])
    def test_no_edges(self, g):
        _assert_positions(g, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if g.n:
            ids = np.arange(g.n)
            _assert_positions(g, np.repeat(ids, g.n), np.tile(ids, g.n))
            assert g.edge_positions(0, g.n - 1).shape == ()

    def test_input_shapes(self):
        g = book(6)
        assert g.edge_positions(0, 1).shape == () and int(g.edge_positions(1, 0)) == 0
        assert int(g.edge_positions(3, 4)) == -1
        us = np.array([[0, 1, 2], [3, 7, 0]])
        vs = np.array([[1, 0, 3], [4, 1, 7]])
        _assert_positions(g, us, vs)
        assert g.edge_positions(us, vs).shape == (2, 3)
        _assert_positions(g, np.int64(2), np.int64(0))


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

    @pytest.mark.parametrize("block", [1, 7, 100, generators._GNP_BLOCK])
    @pytest.mark.parametrize("n,q,seed", [
        (1, 0.5, 0), (2, 1.0, 0), (9, 0.0, 1), (9, 1.0, 1), (40, 0.3, 2), (61, 0.05, 3),
    ])
    def test_gnp_matches_row_by_row_draws(self, monkeypatch, block, n, q, seed):
        monkeypatch.setattr(generators, "_GNP_BLOCK", block)
        g = gnp(n, q, seed)
        us, vs = gnp_by_rows(n, q, seed)
        assert np.array_equal(g.edge_u, us)
        assert np.array_equal(g.edge_v, vs)

    def test_gnp_across_a_full_block_boundary(self):
        # C(3000, 2) = 4498500 pairs: many whole blocks of draws and a partial one
        assert 3000 * 2999 // 2 % generators._GNP_BLOCK
        assert 3000 * 2999 // 2 > 2 * generators._GNP_BLOCK
        g = gnp(3000, 0.05, seed=301)
        us, vs = gnp_by_rows(3000, 0.05, seed=301)
        assert np.array_equal(g.edge_u, us)
        assert np.array_equal(g.edge_v, vs)

    def test_gnp_keeps_its_triangle_count(self):
        assert count_triangles(gnp(2000, 0.05, seed=3)) == 163156

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
