import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Unreachable, edge_pairs, edge_weight, forward_csr, gnp_by_rows,
                     labelled_edges, load_perfbench, star, with_isolated)
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
from trisparse.graph import _MAX_INT32, BitTable, SlotScreen, key_dtype


BENCH_WORKLOADS = load_perfbench("workloads")


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

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan", "heavy"])
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
    def test_shape_check(self, body, tokens, monkeypatch):
        # whole lines a block at a time, down to one line a block
        for block in (1, 3, graph_module._TOKEN_BLOCK):
            monkeypatch.setattr(graph_module, "_TOKEN_BLOCK", block)
            assert graph_module._plain_pair_tokens(body) == tokens

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


class TestBenchmarkInputsTakeIntendedIndex:
    """The benchmark's gnp inputs must get the bit table, whose probes
    need no search, and its book the screen: book(300000)'s table would
    take 16 GiB."""

    @pytest.mark.parametrize("name,kind", [
        ("count-gnp1m", BitTable), ("bench-gnp", BitTable), ("search-book", SlotScreen)])
    def test_workload_graphs(self, name, kind):
        g = generate(BENCH_WORKLOADS.WORKLOADS[name].spec, seed=5)
        assert isinstance(g.index, kind)


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
        # four edges fit the bit table on 4 vertices, not on 400
        for n, kind in ((4, BitTable), (400, SlotScreen)):
            g = Graph.build(n, [0, 0, 1, 2], [1, 2, 2, 3], weights=[1.0, 2.0, 3.0, 4.0],
                            labels=list(range(n, 0, -1)))
            assert isinstance(g.index, kind)
            arrays = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)
                      if isinstance(getattr(g, f.name), np.ndarray)}
            assert {"fptr", "fidx", "fpos", "degrees", "edge_keys",
                    "weights", "labels"} <= arrays.keys()
            index = _index_arrays(g)
            assert len(index) == 2
            # the decoded endpoints are read-only too
            for arr in [*arrays.values(), *index.values(), g.edge_u, g.edge_v]:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 3

    def test_build_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            Graph.build(2, [0], [5])

    @pytest.mark.parametrize("n,kwargs,message", [
        (-1, {}, "vertex count must be nonnegative, got -1"),
        (3, {"weights": [1.0]}, "weights array does not match edge count"),
        (3, {"labels": [5, 6]}, "labels array must have one entry per vertex"),
    ], ids=["negative-n", "weights", "labels"])
    def test_build_rejects_mismatched_input(self, n, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Graph.build(n, [0, 1], [1, 2], **kwargs)

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

    def test_write_edge_list_keeps_masked_edges(self, tmp_path):
        g = Graph.build(3, [0, 1, 0], [1, 2, 2], weights=[0.1, 2.0, 1 / 3],
                        labels=[-7, 40, 2**62])
        path = tmp_path / "g.txt"
        write_edge_list(path, g, np.array([True, False, True]))
        assert path.read_bytes() == b"-7 40 0.1\n40 4611686018427387904 2.0\n"

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
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
    assert g.degrees.dtype == np.int32
    assert np.array_equal(
        g.degrees, np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n))
    assert np.array_equal(np.sort(g.fpos), np.arange(g.m))
    # entry k joins the endpoints of canonical edge fpos[k]
    src = np.repeat(np.arange(g.n), np.diff(g.fptr))
    assert np.array_equal(np.minimum(src, g.fidx), g.edge_u[g.fpos])
    assert np.array_equal(np.maximum(src, g.fidx), g.edge_v[g.fpos])


_ARRAYS = ("edge_u", "edge_v", "fptr", "fidx", "fpos", "degrees", "edge_keys")


def _index_arrays(g) -> dict:
    """The arrays of g's membership index by name, under its kind's name."""
    kind = type(g.index).__name__
    return {f"{kind}.{f.name}": getattr(g.index, f.name) for f in dataclasses.fields(g.index)}


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
        # n <= 3000, so n^2 < 2^31 and the keys are int32
        for got, want, dtype in ((g.edge_u, lo[first], np.int64), (g.edge_v, hi[first], np.int64),
                                 (g.edge_keys, uniq, np.int32)):
            assert got.dtype == dtype and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        weighted = Graph.build(n, us, vs, weights=np.arange(1, len(us) + 1, dtype=float))
        got = {name: getattr(g, name) for name in _ARRAYS} | _index_arrays(g)
        want = {name: getattr(weighted, name) for name in _ARRAYS} | _index_arrays(weighted)
        assert got.keys() == want.keys()
        for name, arr in got.items():
            np.testing.assert_array_equal(arr, want[name])
            assert arr.dtype == want[name].dtype

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
    # from n = 64 on, 12 edges are too few for the bit table
    n = draw(st.integers(64, 5000))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=12))
    g = Graph.build(n, [u for u, _ in pairs], [v for _, v in pairs])
    assert isinstance(g.index, SlotScreen)
    shifts = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8))
    keys = (g.edge_keys[:, None] + g.index.slots.size * np.array(shifts)).ravel()
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
        slots = g.index.slots
        assert slots[(u * g.n + v) & (slots.size - 1)].all()
        _assert_positions(g, u, v)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "every-64th-ascending"])
    def test_probe_order(self, order):
        # the screen searches its candidates in ascending order, sorting
        # them unless every 64th ascends; positions never depend on it
        g = Graph.build(20000, *np.random.default_rng(3).integers(0, 20000, (2, 3000)))
        assert isinstance(g.index, SlotScreen)
        keys = np.concatenate([g.edge_keys, g.edge_keys + 1, g.edge_keys[:500] * 7 % 20000**2])
        keys = np.sort(keys)
        if order == "descending":
            keys = keys[::-1]
        elif order == "shuffled":
            keys = np.random.default_rng(4).permutation(keys)
        elif order == "every-64th-ascending":
            keys = keys.reshape(-1, 2)[:, ::-1].ravel()
            assert (keys[::64][1:] >= keys[::64][:-1]).all() and (np.diff(keys) < 0).any()
        u, v = np.divmod(keys, g.n)
        _assert_positions(g, u, v)

    def test_slot_shared_by_edges_and_non_edges(self):
        g = Graph.build(5000, [0, 0, 0], [32, 64, 96])
        assert g.index.slots.size == 32
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


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    ids = np.arange(n)
    return np.repeat(ids, n), np.tile(ids, n)


def _table_words(n: int) -> int:
    """64-bit words of the bit table on n vertices, one bit per pair u <= v."""
    return -(-(n * (n + 1) // 2) // 64)


def _table_bits(g) -> np.ndarray:
    """The table bit of each canonical edge (u, v), u*n - u(u+1)/2 + v,
    worked out in Python ints."""
    n = g.n
    return np.array([u * n - u * (u + 1) // 2 + v
                     for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())], dtype=np.int64)


def _assert_rank_directory(g) -> None:
    """g's bit table holds exactly its edges' bits, so none of the
    diagonal's, and each rank counts the edges in the words before it."""
    words, rank = g.index.words, g.index.rank
    assert words.size == _table_words(g.n) and rank.dtype == np.int32
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    want = _table_bits(g)
    np.testing.assert_array_equal(np.flatnonzero(bits), want)
    per_word = np.bincount(want >> 6, minlength=words.size)
    np.testing.assert_array_equal(rank, np.cumsum(per_word) - per_word)


class TestBitTable:
    """The exact bit table and rank directory, the index of every graph
    whose 3n(n+1)/32 bytes fit ``_TABLE_BYTES_PER_EDGE`` per edge."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 63, 64, 65, 100, 127, 128, 129])
    def test_complete_graphs(self, n):
        # C(n+1, 2) bits are a whole number of words only at n = 127 and 128
        g = complete(n)
        assert isinstance(g.index, BitTable)
        _assert_rank_directory(g)
        _assert_positions(g, *_all_pairs(n))
        np.testing.assert_array_equal(g.edge_positions(g.edge_u, g.edge_v), np.arange(g.m))

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_last_edge_in_a_partial_last_word(self, n):
        # the last edge, (n - 2, n - 1), whose bit is the last but the
        # diagonal's (n - 1, n - 1), in the last word, which holds fewer
        # than 64 bits; at n = 11 it holds those two alone
        g = Graph.build(n, [0, n - 2], [1, n - 1])
        bits = n * (n + 1) // 2
        assert isinstance(g.index, BitTable) and bits % 64
        assert _table_bits(g)[-1] == bits - 2
        assert (bits - 2) >> 6 == g.index.words.size - 1
        _assert_rank_directory(g)
        _assert_positions(g, *_all_pairs(n))
        assert int(g.edge_positions(n - 1, n - 2)) == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 11, 15])
    def test_edgeless(self, n):
        # an edgeless graph counts as one edge, so up to two words fit:
        # C(16, 2) = 120 bits, and C(17, 2) = 136 take three
        g = Graph.build(n, [], [])
        assert isinstance(g.index, BitTable)
        _assert_rank_directory(g)
        _assert_positions(g, *_all_pairs(n))
        assert count_triangles(g) == 0
        assert isinstance(Graph.build(16, [], []).index, SlotScreen)

    def test_both_sides_of_the_budget(self):
        # 64 vertices take C(65, 2) = 2080 bits, 33 words of 12 bytes: the
        # table from 13 edges on
        n, budget = 64, graph_module._TABLE_BYTES_PER_EDGE
        fit = -(-12 * _table_words(n) // budget)
        assert fit == 13
        pairs = np.random.default_rng(7).permutation(
            np.array([(u, v) for u in range(n) for v in range(u + 1, n)]))[:fit]
        below = Graph.build(n, pairs[:-1, 0], pairs[:-1, 1])
        at = Graph.build(n, pairs[:, 0], pairs[:, 1])
        assert isinstance(below.index, SlotScreen) and isinstance(at.index, BitTable)
        _assert_rank_directory(at)
        for g in (below, at):
            _assert_positions(g, *_all_pairs(n))

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_build_in_blocks(self, chunk, monkeypatch):
        want = complete(40).index
        monkeypatch.setattr(graph_module, "_TABLE_BUILD_CHUNK", chunk)
        got = complete(40).index
        np.testing.assert_array_equal(got.words, want.words)
        np.testing.assert_array_equal(got.rank, want.rank)

    def test_ranks_fit_int32(self, monkeypatch):
        # 2^31 keys would overflow an int32 rank: the screen, whatever n
        monkeypatch.setattr(graph_module, "bit_table", lambda keys, n: "table")
        monkeypatch.setattr(graph_module, "slot_table", lambda keys, n: "screen")
        for m, kind in ((2**31 - 1, "table"), (2**31, "screen")):
            assert graph_module.edge_index(np.broadcast_to(np.int64(0), (m,)), 2**16) == kind

    @given(g=raw_graphs())
    @settings(max_examples=100, deadline=None)
    def test_rank_directory(self, g):
        if isinstance(g.index, BitTable):
            _assert_rank_directory(g)
        else:
            # 12 bytes per 64-bit word of the table
            assert 12 * _table_words(g.n) > graph_module._TABLE_BYTES_PER_EDGE * max(g.m, 1)


class TestKeyArithmetic:
    """u*n+v edge keys, degree-then-id ranks and the int32 cap at the
    largest accepted n and m, checked on the numbers alone: a graph that
    size cannot be built."""

    def test_largest_rank_and_key_fit_in_int64(self):
        n = _MAX_INT32
        top_rank = (n - 1) * n + (n - 1)   # degree n-1, id n-1
        top_key = (n - 2) * n + (n - 1)    # canonical edge (n-2, n-1)
        assert top_rank <= 2**63 - 1 and top_key <= top_rank
        # ids, degrees and the sum of two ids, which the trials take in int64
        assert n - 1 <= np.iinfo(np.int32).max < 2 * (n - 1) <= np.iinfo(np.int64).max
        assert key_dtype(n) == np.int64
        deg = np.array([n - 1], dtype=np.int32)
        ids = np.array([n - 1], dtype=np.int32)
        assert int((deg * np.int64(n) + ids)[0]) == top_rank

    @pytest.mark.parametrize("n", [46340, 46341, _MAX_INT32])
    def test_index_bases_at_the_dtype_edges(self, n):
        # the probes of rows up to n - 1 from int32 ids, as the scan makes
        # them, against Python ints, on the numbers alone
        us = np.array([0, 1, n // 2, n - 2, n - 1], dtype=np.int32)
        for kind, want in ((BitTable, lambda u, v: u * n - u * (u + 1) // 2 + v),
                           (SlotScreen, lambda u, v: u * n + v)):
            base = kind.base(us, n)
            assert base.dtype == key_dtype(n)
            # each row's diagonal and its last pair, (u, n - 1)
            for vs in (us, np.full_like(us, n - 1)):
                got = base + vs
                assert got.tolist() == [want(u, v) for u, v in zip(us.tolist(), vs.tolist())]
        # the table's last row holds only the diagonal: the bit of
        # (n - 1, n - 1) is its last, C(n+1, 2) - 1, and fits the dtype
        last = BitTable.base(us[-1:], n) + us[-1:]
        assert last.tolist() == [n * (n + 1) // 2 - 1]
        assert n * (n + 1) // 2 - 1 <= np.iinfo(key_dtype(n)).max

    def test_key_dtype_boundary(self):
        # int32 keys exactly while n^2 < 2^31
        assert 46340**2 < 2**31 < 46341**2
        assert key_dtype(0) == key_dtype(46340) == np.int32
        assert key_dtype(46341) == np.int64
        assert Graph.build(46340, [0], [46339]).edge_keys.dtype == np.int32
        assert Graph.build(46341, [0], [46340]).edge_keys.dtype == np.int64

    def test_divmod_recovers_endpoints(self):
        n = _MAX_INT32
        us = np.array([0, 0, n - 2, n // 2, 1], dtype=np.int64)
        vs = np.array([1, n - 1, n - 1, n // 2 + 1, n - 1], dtype=np.int64)
        keys = np.multiply(us.astype(np.int32), n, dtype=key_dtype(n))
        keys += vs
        assert [int(k) for k in keys] == [u * n + v for u, v in zip(us.tolist(), vs.tolist())]
        a, b = np.divmod(keys, n, dtype=np.int64)
        assert np.array_equal(a, us) and np.array_equal(b, vs)

    def test_build_above_the_limit_raises_before_allocating(self):
        # 2^31 vertices, or 2^31 endpoint pairs: neither fits int32. The
        # pairs are broadcast, so they take no memory either
        many = np.broadcast_to(np.int32(0), (2**31,))
        tracemalloc.start()
        try:
            for args in ((_MAX_INT32 + 1, [], []), (4, many, many), (4, many, many[:-1])):
                with pytest.raises(ValueError, match="too large for int32"):
                    Graph.build(*args)
            # 2^31 - 1 pairs pass the cap, to fail the next check
            with pytest.raises(ValueError, match="differ in length"):
                Graph.build(4, many[:-1], many[:-2])
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

    @pytest.mark.parametrize("spec,n,m", [
        ("complete:70000", 70000, 70000 * 69999 // 2),
        ("book:1200000000", 1200000002, 2400000001),
        ("weighted_book:1200000000:5", 1200000002, 2400000001),
        ("gnp:3000000000:0", 3000000000, 0),
        ("gnp:100000:0.5", 100000, 100000 * 99999 // 4),
    ])
    def test_oversize_specs_fail_before_allocating(self, monkeypatch, spec, n, m):
        # Graph.build's own bound and message, checked before any array is made
        monkeypatch.setattr(generators, "np", Unreachable("numpy"))
        with pytest.raises(ValueError) as exc:
            generate(spec)
        assert str(exc.value) == f"graph too large for int32 vertex ids and positions: n={n}, m={m}"


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
