import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import Unreachable, labelled_edges
import trisparse
from trisparse import Graph, SparsifyParams, load_edge_list, sparsify, write_edge_list
from trisparse.adaptive import trial_seed
from trisparse import baselines, cli, generators
from trisparse.cli import main


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gen(tmp_path, spec, name="g.txt", seed=0):
    path = tmp_path / name
    assert main(["gen", spec, "-o", str(path), "--seed", str(seed)]) == 0
    return path


class TestGen:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        path = _gen(tmp_path, "complete:4")
        g = load_edge_list(path)
        assert (g.n, g.m) == (4, 6)
        assert "complete:4" in capsys.readouterr().out

    def test_unknown_model_fails(self, tmp_path, capsys):
        assert main(["gen", "mystery:4", "-o", str(tmp_path / "x.txt")]) == 1
        assert capsys.readouterr().err == ("error: unknown graph model 'mystery' "
                                           "(expected book, weighted_book, gnp or complete)\n")

    def test_oversize_model_fails_before_allocating(self, tmp_path, capsys, monkeypatch):
        # C(70000, 2) pairs would take tens of GB; the stub fails the test
        # if the generator reaches numpy before its size check
        monkeypatch.setattr(generators, "np", Unreachable("numpy"))
        assert main(["gen", "complete:70000", "-o", str(tmp_path / "x.txt")]) == 1
        assert capsys.readouterr().err == ("error: graph too large for int32 vertex ids and "
                                           "positions: n=70000, m=2449965000\n")
        assert not (tmp_path / "x.txt").exists()

    def test_json_report(self, tmp_path):
        report = tmp_path / "gen.json"
        assert main(["gen", "book:5", "-o", str(tmp_path / "b.txt"),
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["graph"]["n"] == 7
        assert payload["summary"]["stats"]["m"] == 11


class TestCount:
    def test_complete4(self, tmp_path, capsys):
        path = _gen(tmp_path, "complete:4")
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        payload = _read_report(report)
        assert payload["summary"]["t"] == 4
        assert "4" in out

    def test_non_utf8_input_fails_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1 2\xff\n")
        assert main(["count", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}:2: not UTF-8 text: invalid start byte 0xff\n"

    def test_census_identities_in_json(self, tmp_path):
        path = _gen(tmp_path, "gnp:30:0.3", seed=5)
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--census", "--json", str(report)]) == 0
        payload = _read_report(report)
        c = payload["summary"]["census"]
        n, m = payload["graph"]["n"], payload["graph"]["m"]
        from math import comb
        assert c["t0"] + c["t1"] + c["t2"] + c["t3"] == comb(n, 3)
        assert m * (n - 2) == c["t1"] + 2 * c["t2"] + 3 * c["t3"]

    def test_algos_agree(self, tmp_path):
        path = _gen(tmp_path, "gnp:25:0.3", seed=2)
        results = {}
        for algo in ("node", "edge", "brute"):
            report = tmp_path / f"{algo}.json"
            assert main(["count", str(path), "--algo", algo, "--json", str(report)]) == 0
            results[algo] = _read_report(report)["summary"]["t"]
        assert len(set(results.values())) == 1

    def test_brute_counts_once(self, tmp_path, monkeypatch):
        path = _gen(tmp_path, "gnp:25:0.3", seed=2)
        reports = [tmp_path / "node.json", tmp_path / "brute.json"]
        assert main(["count", str(path), "--algo", "node", "--census",
                     "--json", str(reports[0])]) == 0

        def no_count(g):
            raise AssertionError("count --algo brute counted twice")
        # transitivity comes from brute force's own t, not a second count
        monkeypatch.setattr(cli.exact, "count_triangles", no_count)
        assert main(["count", str(path), "--algo", "brute", "--census",
                     "--json", str(reports[1])]) == 0
        node, brute = (_read_report(r)["summary"] for r in reports)
        assert brute["algo"] == "brute" and brute["delta_max"] is None
        for key in ("t", "transitivity", "census"):
            assert brute[key] == node[key]
        assert brute["transitivity"] > 0

    def test_delta_flag(self, tmp_path):
        path = _gen(tmp_path, "book:3")
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--delta", "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["summary"]["delta_per_edge"]["0-1"] == 3

    def test_weighted_total(self, tmp_path):
        path = _gen(tmp_path, "weighted_book:3:10")
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--weighted", "--json", str(report)]) == 0
        # one heavy triangle (10*10) plus two unit triangles
        assert _read_report(report)["summary"]["weighted_triangle_total"] == 102.0

    def test_missing_file(self, tmp_path):
        assert main(["count", str(tmp_path / "nope.txt")]) == 1


class TestEstimate:
    def test_p_one_ratio_is_exactly_one(self, tmp_path):
        path = _gen(tmp_path, "gnp:40:0.3", seed=1)
        report = tmp_path / "r.json"
        assert main(["estimate", str(path), "--p", "1", "--seed", "0",
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["records"][0]["ratio"] == 1.0
        assert payload["summary"]["mean_ratio"] == 1.0

    def test_reproducible_estimates(self, tmp_path):
        path = _gen(tmp_path, "gnp:100:0.2", seed=3)
        reports = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            assert main(["estimate", str(path), "--p", "0.4", "--seed", "11",
                         "--runs", "4", "--json", str(report)]) == 0
            reports.append(_read_report(report))
        ests = [[r["estimate"] for r in p["records"]] for p in reports]
        assert ests[0] == ests[1]

    def test_stdout_agrees_with_json(self, tmp_path, capsys):
        path = _gen(tmp_path, "gnp:60:0.3", seed=4)
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["estimate", str(path), "--p", "0.5", "--seed", "2",
                     "--runs", "3", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        payload = _read_report(report)
        for rec in payload["records"]:
            for value in (rec["estimate"], rec["ratio"], rec["parameters"]["t_prime"]):
                if value is not None:
                    rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
                    assert rendered in out
        assert f"{payload['summary']['exact_t']}" in out

    def test_save_sparsified_subset(self, tmp_path):
        path = _gen(tmp_path, "gnp:80:0.3", seed=5)
        sparse_path = tmp_path / "sparse.txt"
        assert main(["estimate", str(path), "--p", "0.3", "--seed", "1",
                     "--save-sparsified", str(sparse_path)]) == 0
        g = load_edge_list(path)
        gp = load_edge_list(sparse_path)
        assert labelled_edges(gp) <= labelled_edges(g)
        assert gp.m < g.m

    def test_save_sparsified_bytes(self, tmp_path, monkeypatch):
        # the first trial's surviving edges, through the file's own ids, in
        # the bytes of the sparsified Graph written out; only the load
        # builds a Graph
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{3 * u + 7} {-v}\n" for u in range(40)
                                for v in range(u % 7, 60, 3)))
        g = load_edge_list(path)
        want = tmp_path / "want.txt"
        write_edge_list(want, sparsify(g, SparsifyParams(0.4, trial_seed(9, 0, 0))))
        builds = []
        build = Graph.build
        monkeypatch.setattr(Graph, "build", lambda *a, **k: builds.append(1) or build(*a, **k))
        got = tmp_path / "got.txt"
        assert main(["estimate", str(path), "--p", "0.4", "--seed", "9", "--runs", "2",
                     "--save-sparsified", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes() and 0 < len(want.read_bytes())
        assert len(builds) == 1

    def test_bad_p(self, tmp_path):
        path = _gen(tmp_path, "complete:4")
        assert main(["estimate", str(path), "--p", "0", "--seed", "0"]) == 1

    def test_zero_runs_rejected(self, tmp_path):
        path = _gen(tmp_path, "complete:4")
        assert main(["estimate", str(path), "--p", "0.5", "--seed", "0",
                     "--runs", "0"]) == 1


class TestAdaptive:
    def test_small_graph_report(self, tmp_path):
        path = _gen(tmp_path, "gnp:300:0.1", seed=6)
        report = tmp_path / "r.json"
        assert main(["adaptive", str(path), "--p0", "0.2", "--seed", "4",
                     "--threads", "1", "--json", str(report)]) == 0
        payload = _read_report(report)
        summary = payload["summary"]["adaptive"]
        assert summary["p_star"] <= 1.0
        assert summary["trace"][0]["p"] == 0.2
        rec = payload["records"][0]
        assert rec["method"] == "adaptive"
        assert rec["ratio"] is not None
        assert payload["summary"]["speedups"]["xfaster2"] <= \
            payload["summary"]["speedups"]["xfaster1"]

    def test_skip_exact_drops_ratio(self, tmp_path):
        path = _gen(tmp_path, "gnp:200:0.1", seed=7)
        report = tmp_path / "r.json"
        assert main(["adaptive", str(path), "--p0", "0.5", "--seed", "0",
                     "--skip-exact", "--threads", "1", "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["records"][0]["exact_t"] is None
        assert payload["records"][0]["ratio"] is None

    def test_triangle_rich_graph_full_protocol(self, tmp_path):
        # concentration well below p=1, accurate estimate, and a measured
        # speedup in the (wide) factor-4 band around 1/p*^2
        path = _gen(tmp_path, "gnp:2000:0.05", seed=3)
        report = tmp_path / "r.json"
        assert main(["adaptive", str(path), "--seed", "1", "--threads", "1",
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        p_star = payload["summary"]["adaptive"]["p_star"]
        assert p_star < 1.0
        assert abs(payload["records"][0]["ratio"] - 1.0) <= 0.1
        xf1 = payload["summary"]["speedups"]["xfaster1"]
        expected = 1.0 / p_star**2
        assert expected / 4 <= xf1 <= expected * 4


class TestBaseline:
    def test_naive_fixed_r(self, tmp_path):
        path = _gen(tmp_path, "complete:5")
        report = tmp_path / "r.json"
        assert main(["baseline", str(path), "--method", "naive", "--r", "50",
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["records"][0]["estimate"] == 10.0
        assert payload["records"][0]["ratio"] == 1.0

    def test_budget_derived_r(self, tmp_path):
        path = _gen(tmp_path, "complete:6")
        report = tmp_path / "r.json"
        assert main(["baseline", str(path), "--method", "buriol",
                     "--epsilon", "0.5", "--delta", "0.5", "--json", str(report)]) == 0
        payload = _read_report(report)
        assert payload["summary"]["budget"]["r"] == payload["records"][0]["parameters"]["r"]

    def test_budget_over_cap_reports_without_running(self, tmp_path):
        path = _gen(tmp_path, "gnp:200:0.05", seed=8)
        report = tmp_path / "r.json"
        code = main(["baseline", str(path), "--method", "naive",
                     "--epsilon", "0.01", "--delta", "0.01",
                     "--max-r", "1000", "--json", str(report)])
        assert code == 0
        payload = _read_report(report)
        assert payload["summary"]["ran"] is False
        assert payload["summary"]["budget"]["r"] > 1000
        assert payload["records"] == []

    def test_requires_r_or_epsilon(self, tmp_path):
        path = _gen(tmp_path, "complete:4")
        assert main(["baseline", str(path), "--method", "naive"]) == 2

    @pytest.mark.parametrize("argv,want", [
        (["baseline", "--method", "naive", "--r", "50"], ["naive_sample"]),
        (["baseline", "--method", "buriol", "--r", "50"], ["buriol_sample"]),
        (["bench", "--threads", "1", "--baseline-r", "50"], ["naive_sample", "buriol_sample"]),
    ], ids=["naive", "buriol", "bench"])
    def test_runs_the_samplers_patched_on_the_module(self, tmp_path, monkeypatch, argv, want):
        # perfbench times the samplers by patching baselines' attributes
        path = _gen(tmp_path, "complete:6")
        called = []
        for name in ("naive_sample", "buriol_sample"):
            def spy(*args, _name=name, _real=getattr(baselines, name), **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(baselines, name, spy)
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert called == want

    def test_epsilon_requires_delta(self, tmp_path, capsys):
        path = _gen(tmp_path, "complete:4")
        capsys.readouterr()
        assert main(["baseline", str(path), "--method", "naive", "--epsilon", "0.1"]) == 2
        assert capsys.readouterr().err == "error: --epsilon requires --delta\n"


class TestBench:
    def test_full_run(self, tmp_path, capsys):
        path = _gen(tmp_path, "gnp:150:0.15", seed=9)
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["bench", str(path), "--seed", "0",
                     "--threads", "1", "--baseline-r", "5000",
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        methods = {r["method"] for r in payload["records"]}
        assert {"exact_node", "exact_edge", "adaptive", "doulion"} <= methods
        exact = [r for r in payload["records"] if r["method"] == "exact_node"][0]
        assert exact["ratio"] == 1.0
        edge = [r for r in payload["records"] if r["method"] == "exact_edge"][0]
        assert edge["estimate"] == exact["estimate"]
        out = capsys.readouterr().out
        assert "exact_node" in out and "doulion" in out

    def _baselines(self, tmp_path, edges):
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        report = tmp_path / "r.json"
        assert main(["bench", str(path), "--threads", "1", "--baseline-r", "300",
                     "--json", str(report)]) == 0
        payload = _read_report(report)
        return payload["summary"]["budgets"], {
            r["method"]: r["parameters"]["r"] for r in payload["records"]
            if r["method"] in ("naive", "buriol")}

    def test_triangle_free_graph_runs_baselines_at_the_cap(self, tmp_path):
        # a star has no triangles, so no budget: both baselines run at --baseline-r
        budgets, runs = self._baselines(tmp_path, [(0, leaf) for leaf in range(1, 6)])
        assert budgets == {"naive": None, "buriol": None}
        assert runs == {"naive": 300, "buriol": 300}

    def test_two_vertices_run_no_baseline(self, tmp_path):
        # neither sampler can draw a triple from two vertices
        budgets, runs = self._baselines(tmp_path, [(0, 1)])
        assert budgets == {"naive": None, "buriol": None}
        assert runs == {}


def _without_timings(payload):
    """Report records and p* with every wall-clock field dropped."""
    return ([{k: v for k, v in rec.items() if k != "timings"} for rec in payload["records"]],
            payload["summary"].get("p_star"))


class TestThreadIndependence:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--p", "0.4", "--seed", "11", "--runs", "4"],
        ["bench", "--seed", "0", "--baseline-r", "2000"],
    ], ids=["estimate", "bench"])
    def test_same_estimates_under_1_and_4_threads(self, tmp_path, argv):
        path = _gen(tmp_path, "gnp:400:0.3", seed=2)
        payloads = []
        for threads in ("1", "4"):
            report = tmp_path / f"r{threads}.json"
            assert main([argv[0], str(path), *argv[1:], "--threads", threads,
                         "--json", str(report)]) == 0
            payloads.append(_without_timings(_read_report(report)))
        assert payloads[0] == payloads[1]
        records = payloads[0][0]
        # sampled records, not only exact ones, are compared
        assert any(rec["method"] == "doulion" and rec["ratio"] != 1.0 for rec in records)

    @pytest.mark.parametrize("spec,argv", [
        ("gnp:400:0.3", ["--census", "--delta"]),
        ("weighted_book:300:50", ["--weighted"]),
    ], ids=["census-delta", "weighted"])
    def test_same_count_report_under_1_and_4_threads(self, tmp_path, spec, argv):
        path = _gen(tmp_path, spec, seed=2)
        payloads = []
        for threads in ("1", "4"):
            report = tmp_path / f"r{threads}.json"
            assert main(["count", str(path), *argv, "--threads", threads,
                         "--json", str(report)]) == 0
            payload = _read_report(report)
            del payload["graph"]["load_time"]
            for key in ("count_time", "load_time"):
                payload["summary"].pop(key, None)
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        summary = payloads[0]["summary"]
        # the compared reports carry the per-edge counts or the weighted total
        assert summary.get("delta_per_edge") or summary.get("weighted_triangle_total")


class TestTrialSeeds:
    def test_estimate_and_bench_doulion_seeds(self, tmp_path):
        path = _gen(tmp_path, "gnp:150:0.15", seed=9)
        for argv, batch in ((["estimate", "--p", "0.5", "--runs", "3"], 0),
                            (["bench", "--baseline-r", "500"], 10_000)):
            report = tmp_path / f"{argv[0]}.json"
            assert main([argv[0], str(path), *argv[1:], "--seed", "21", "--threads", "2",
                         "--json", str(report)]) == 0
            seeds = [r["seed"] for r in _read_report(report)["records"]
                     if r["method"] == "doulion"]
            assert len(seeds) >= 3
            assert seeds == [trial_seed(21, batch, k) for k in range(len(seeds))]


def _keys(obj):
    """Recursive key structure of a JSON value: a dict maps each key to the
    structure of its value, a list to the distinct structures of its items
    in order of first appearance, and a scalar to None."""
    if isinstance(obj, dict):
        return {k: _keys(v) for k, v in obj.items()}
    if isinstance(obj, list):
        out = []
        for item in map(_keys, obj):
            if item not in out:
                out.append(item)
        return out
    return None


GRAPH = dict.fromkeys(["id", "n", "m", "weighted", "load_time"])
CENSUS = dict.fromkeys(["t0", "t1", "t2", "t3"])
SPEEDUPS = dict.fromkeys(["xfaster1", "xfaster2"])
BUDGET = dict.fromkeys(["epsilon", "delta", "r"])
COUNT = dict.fromkeys(["t", "algo", "transitivity", "delta_max", "count_time", "load_time"])


def _record_keys(*parameters):
    return {"graph_id": None, "method": None, "parameters": dict.fromkeys(parameters),
            "estimate": None, "exact_t": None, "ratio": None, "seed": None,
            "timings": dict.fromkeys(["load", "sparsify", "count", "total"])}


def _report_keys(records, summary, graph=GRAPH):
    return {"schema_version": None, "command": None, "graph": graph,
            "records": records, "summary": summary}


SCHEMAS = {
    "gen": ("complete:4", ["gen"], _report_keys(
        [], {"seed": None, "output": None,
             "stats": {"n": None, "m": None, "max_degree": None,
                       "degree_histogram": [None], "isolated": None}},
        graph=dict.fromkeys(["id", "n", "m", "weighted"]))),
    "count": ("complete:4", ["count"], _report_keys([], COUNT)),
    "count-census": ("complete:4", ["count", "--census"],
                     _report_keys([], {**COUNT, "census": CENSUS})),
    "count-delta": ("complete:4", ["count", "--delta"], _report_keys(
        [], {**COUNT, "delta_per_edge": dict.fromkeys(
            ["0-1", "0-2", "0-3", "1-2", "1-3", "2-3"])})),
    "count-weighted": ("weighted_book:3:5", ["count", "--weighted"], _report_keys(
        [], dict.fromkeys(["weighted_triangle_total", "convention", "count_time"]))),
    "estimate": ("gnp:150:0.15", ["estimate", "--p", "0.5", "--seed", "1", "--runs", "2",
                                  "--threads", "1"], _report_keys(
        [_record_keys("p", "counter", "surviving_edges", "t_prime")],
        {**dict.fromkeys(["p", "master_seed", "runs", "exact_t", "exact_time",
                          "mean_estimate", "mean_ratio", "spread", "expected_speedup"]),
         "speedups": SPEEDUPS})),
    "adaptive": ("gnp:150:0.15", ["adaptive", "--threads", "1"], _report_keys(
        [_record_keys("p0", "p_star", "trials_per_p", "spread_threshold", "counter")],
        {"adaptive": {
            **dict.fromkeys(["p_star", "final_estimate", "p0", "trials_per_p",
                             "spread_threshold", "counter", "seed", "total_trials",
                             "total_time", "total_sparsify_time", "total_count_time"]),
            "trace": [{"p": None, "estimates": [None], "spread": None, "concentrated": None,
                       "sparsify_time": None, "count_time": None}]},
         "exact_t": None, "exact_time": None, "expected_speedup": None,
         "speedups": SPEEDUPS})),
    "baseline": ("complete:6", ["baseline", "--method", "buriol",
                                "--epsilon", "0.5", "--delta", "0.5"], _report_keys(
        [_record_keys("r", "epsilon", "delta")],
        {"method": None, "r": None, "exact_t": None, "exact_time": None,
         "census": CENSUS, "ran": None, "budget": BUDGET})),
    "baseline-over-cap": ("complete:6", ["baseline", "--method", "naive", "--epsilon", "0.01",
                                         "--delta", "0.01", "--max-r", "10"], _report_keys(
        [], {"method": None, "budget": BUDGET, "census": CENSUS, "exact_t": None,
             "ran": None})),
    "bench": ("gnp:150:0.15", ["bench", "--baseline-r", "500", "--threads", "1"], _report_keys(
        [_record_keys("delta_max", "transitivity"), _record_keys(),
         _record_keys("p0", "p_star", "trials_per_p"), _record_keys("p", "t_prime"),
         _record_keys("r", "epsilon", "delta")],
        {"exact_t": None, "p_star": None, "expected_speedup": None, "speedups": SPEEDUPS,
         "budgets": {"naive": BUDGET, "buriol": BUDGET}, "census": CENSUS})),
}


class TestReportSchema:
    @pytest.mark.parametrize("name", SCHEMAS)
    def test_report_key_structure(self, tmp_path, name):
        spec, argv, expected = SCHEMAS[name]
        report = tmp_path / "r.json"
        if argv[0] == "gen":
            assert main(["gen", spec, "-o", str(tmp_path / "g.txt"),
                         "--json", str(report)]) == 0
        else:
            path = _gen(tmp_path, spec, seed=9)
            assert main([argv[0], str(path), *argv[1:], "--json", str(report)]) == 0
        assert _keys(_read_report(report)) == expected


class TestArgumentErrors:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_nonzero(self, tmp_path):
        path = _gen(tmp_path, "complete:4")
        with pytest.raises(SystemExit) as exc:
            main(["count", str(path), "--frazzle"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["estimate", "--p", "0.5", "--seed", "1"], ["adaptive"], ["bench"], ["count"],
    ], ids=["estimate", "adaptive", "bench", "count"])
    def test_thread_count_below_one_fails(self, tmp_path, capsys, argv, threads):
        path = _gen(tmp_path, "complete:5")
        capsys.readouterr()
        assert main([argv[0], str(path), *argv[1:], "--threads", threads]) == 1
        assert capsys.readouterr().err == \
            f"error: thread count must be at least 1, got {threads}\n"

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--p", "1.5", "--seed", "0"],
         "retention probability must lie in (0, 1], got 1.5"),
        (["estimate", "--p", "0.5", "--seed", "0", "--runs", "0"],
         "--runs must be at least 1, got 0"),
        (["estimate", "--p", "0.5", "--seed", "0", "--threads", "0"],
         "thread count must be at least 1, got 0"),
        (["adaptive", "--p0", "1.5"], "starting rate must lie in (0, 1], got 1.5"),
        (["adaptive", "--runs", "1"], "need at least 2 trials per rate, got 1"),
        (["adaptive", "--threshold", "0"], "spread threshold must be positive, got 0.0"),
        (["adaptive", "--threads", "0"], "thread count must be at least 1, got 0"),
        (["bench", "--threads", "-1"], "thread count must be at least 1, got -1"),
        (["count", "--threads", "0"], "thread count must be at least 1, got 0"),
        (["bench", "--epsilon", "-1", "--delta", "5"], "epsilon must be positive, got -1.0"),
        (["bench", "--delta", "5"], "delta must lie in (0, 1), got 5.0"),
        (["bench", "--baseline-r", "0"], "--baseline-r must be at least 1, got 0"),
        (["baseline", "--method", "naive", "--r", "100", "--epsilon", "-1"],
         "epsilon must be positive, got -1.0"),
        (["baseline", "--method", "buriol", "--epsilon", "0.1", "--delta", "1"],
         "delta must lie in (0, 1), got 1.0"),
        (["baseline", "--method", "naive", "--r", "0"], "--r must be at least 1, got 0"),
    ], ids=["estimate-p", "estimate-runs", "estimate-threads", "adaptive-p0", "adaptive-runs",
            "adaptive-threshold", "adaptive-threads", "bench-threads", "count-threads",
            "bench-epsilon", "bench-delta", "bench-baseline-r", "baseline-epsilon",
            "baseline-delta", "baseline-r"])
    def test_bad_arguments_fail_before_loading(self, monkeypatch, capsys, argv, message):
        def no_load(*args, **kwargs):
            raise AssertionError("the graph was loaded")
        monkeypatch.setattr(cli, "load_edge_list", no_load)
        assert main([argv[0], "graph.txt", *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# Run with only the standard library, so that its own small RSS is all that
# a child spawned from it starts from: Linux starts a child's ru_maxrss at
# the RSS of the process that spawned it, here far below the child's own.
_PEAK_SPAWNER = """
import os, subprocess, sys
child = ("import resource, sys, trisparse.cli; "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.stdout.flush(); "
         "sys.exit(trisparse.cli.main(sys.argv[1:]))")
proc = subprocess.Popen([sys.executable, "-c", child, *sys.argv[1:]], stdout=subprocess.PIPE)
imported = int(proc.stdout.readline())
proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), imported, usage.ru_maxrss)
"""

# Most bytes, as a multiple of those in the Graph's own arrays and index,
# that `count --algo node --census` may add to its RSS after the imports.
# The Graph stores its edges as keys alone, but the denominator still
# counts the int64 endpoints that edge_u and edge_v decode, 16 bytes per
# edge, so the budget means what it did when they were stored. On
# gnp(6000, 0.02) it adds 1.26-1.29 times; with the endpoints stored,
# 1.65; with int64 arrays and the temporaries of the build and the token
# check held, 1.98.
_COUNT_PEAK_PER_GRAPH_BYTE = 1.8


class TestCountMemory:
    def test_peak_within_a_multiple_of_the_graph(self, tmp_path):
        path = _gen(tmp_path, "gnp:6000:0.02", seed=3)
        g = load_edge_list(path)
        arrays = [g.edge_u, g.edge_v, g.fptr, g.fidx, g.fpos, g.degrees, g.edge_keys, g.labels,
                  *(getattr(g.index, f.name) for f in dataclasses.fields(g.index))]
        graph_bytes = sum(a.nbytes for a in arrays)
        del g, arrays
        src = Path(trisparse.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_SPAWNER, "count", str(path), "--algo", "node", "--census"],
            env=env, capture_output=True, text=True, check=True).stdout
        code, imported, peak = map(int, out.split())
        assert code == 0
        ratio = (peak - imported) * 1024 / graph_bytes
        print(f"count peak {peak / 1024:.1f} MiB, {imported / 1024:.1f} MiB after the imports, "
              f"graph {graph_bytes / 2**20:.1f} MiB: {ratio:.2f} times the graph's bytes")
        assert ratio <= _COUNT_PEAK_PER_GRAPH_BYTE
