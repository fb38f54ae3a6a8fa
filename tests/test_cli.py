import json

import pytest

from trisparse import load_edge_list
from trisparse.bench import load_json_report
from trisparse.cli import main


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

    def test_unknown_model_fails(self, tmp_path):
        assert main(["gen", "mystery:4", "-o", str(tmp_path / "x.txt")]) == 1

    def test_json_report(self, tmp_path):
        report = tmp_path / "gen.json"
        assert main(["gen", "book:5", "-o", str(tmp_path / "b.txt"),
                     "--json", str(report)]) == 0
        payload = load_json_report(report)
        assert payload["graph"]["n"] == 7
        assert payload["summary"]["stats"]["m"] == 11


class TestCount:
    def test_complete4(self, tmp_path, capsys):
        path = _gen(tmp_path, "complete:4")
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        payload = load_json_report(report)
        assert payload["summary"]["t"] == 4
        assert "4" in out

    def test_census_identities_in_json(self, tmp_path):
        path = _gen(tmp_path, "gnp:30:0.3", seed=5)
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--census", "--json", str(report)]) == 0
        payload = load_json_report(report)
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
            results[algo] = load_json_report(report)["summary"]["t"]
        assert len(set(results.values())) == 1

    def test_delta_flag(self, tmp_path):
        path = _gen(tmp_path, "book:3")
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--delta", "--json", str(report)]) == 0
        payload = load_json_report(report)
        assert payload["summary"]["delta_per_edge"]["0-1"] == 3

    def test_weighted_total(self, tmp_path):
        path = _gen(tmp_path, "weighted_book:3:10")
        report = tmp_path / "r.json"
        assert main(["count", str(path), "--weighted", "--json", str(report)]) == 0
        # one heavy triangle (10*10) plus two unit triangles
        assert load_json_report(report)["summary"]["weighted_triangle_total"] == 102.0

    def test_missing_file(self, tmp_path):
        assert main(["count", str(tmp_path / "nope.txt")]) == 1


class TestEstimate:
    def test_p_one_ratio_is_exactly_one(self, tmp_path):
        path = _gen(tmp_path, "gnp:40:0.3", seed=1)
        report = tmp_path / "r.json"
        assert main(["estimate", str(path), "--p", "1", "--seed", "0",
                     "--json", str(report)]) == 0
        payload = load_json_report(report)
        assert payload["records"][0]["ratio"] == 1.0
        assert payload["summary"]["mean_ratio"] == 1.0

    def test_reproducible_estimates(self, tmp_path):
        path = _gen(tmp_path, "gnp:100:0.2", seed=3)
        reports = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            assert main(["estimate", str(path), "--p", "0.4", "--seed", "11",
                         "--runs", "4", "--json", str(report)]) == 0
            reports.append(load_json_report(report))
        ests = [[r["estimate"] for r in p["records"]] for p in reports]
        assert ests[0] == ests[1]

    def test_stdout_agrees_with_json(self, tmp_path, capsys):
        path = _gen(tmp_path, "gnp:60:0.3", seed=4)
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["estimate", str(path), "--p", "0.5", "--seed", "2",
                     "--runs", "3", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        payload = load_json_report(report)
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
        assert gp.edges_as_labels() <= g.edges_as_labels()
        assert gp.m < g.m

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
        payload = load_json_report(report)
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
        payload = load_json_report(report)
        assert payload["records"][0]["exact_t"] is None
        assert payload["records"][0]["ratio"] is None

    def test_triangle_rich_graph_full_protocol(self, tmp_path):
        # concentration well below p=1, accurate estimate, and a measured
        # speedup in the (wide) factor-4 band around 1/p*^2
        path = _gen(tmp_path, "gnp:2000:0.05", seed=3)
        report = tmp_path / "r.json"
        assert main(["adaptive", str(path), "--seed", "1", "--threads", "1",
                     "--json", str(report)]) == 0
        payload = load_json_report(report)
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
        payload = load_json_report(report)
        assert payload["records"][0]["estimate"] == 10.0
        assert payload["records"][0]["ratio"] == 1.0

    def test_budget_derived_r(self, tmp_path):
        path = _gen(tmp_path, "complete:6")
        report = tmp_path / "r.json"
        assert main(["baseline", str(path), "--method", "buriol",
                     "--epsilon", "0.5", "--delta", "0.5", "--json", str(report)]) == 0
        payload = load_json_report(report)
        assert payload["summary"]["budget"]["r"] == payload["records"][0]["parameters"]["r"]

    def test_budget_over_cap_reports_without_running(self, tmp_path):
        path = _gen(tmp_path, "gnp:200:0.05", seed=8)
        report = tmp_path / "r.json"
        code = main(["baseline", str(path), "--method", "naive",
                     "--epsilon", "0.01", "--delta", "0.01",
                     "--max-r", "1000", "--json", str(report)])
        assert code == 0
        payload = load_json_report(report)
        assert payload["summary"]["ran"] is False
        assert payload["summary"]["budget"]["r"] > 1000
        assert payload["records"] == []

    def test_requires_r_or_epsilon(self, tmp_path):
        path = _gen(tmp_path, "complete:4")
        assert main(["baseline", str(path), "--method", "naive"]) == 2


class TestBench:
    def test_full_run(self, tmp_path, capsys):
        path = _gen(tmp_path, "gnp:150:0.15", seed=9)
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["bench", str(path), "--full", "--seed", "0",
                     "--threads", "1", "--baseline-r", "5000",
                     "--json", str(report)]) == 0
        payload = load_json_report(report)
        methods = {r["method"] for r in payload["records"]}
        assert {"exact_node", "exact_edge", "adaptive", "doulion"} <= methods
        exact = [r for r in payload["records"] if r["method"] == "exact_node"][0]
        assert exact["ratio"] == 1.0
        edge = [r for r in payload["records"] if r["method"] == "exact_edge"][0]
        assert edge["estimate"] == exact["estimate"]
        out = capsys.readouterr().out
        assert "exact_node" in out and "doulion" in out


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
            payloads.append(_without_timings(load_json_report(report)))
        assert payloads[0] == payloads[1]
        records = payloads[0][0]
        # sampled records, not only exact ones, are compared
        assert any(rec["method"] == "doulion" and rec["ratio"] != 1.0 for rec in records)


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
