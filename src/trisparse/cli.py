"""Command-line benchmark harness: generate graphs, count exactly,
estimate by sparsification, run the doubling search and the sampling
baselines, and emit table + JSON reports."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from . import adaptive as ad
from . import baselines as bl
from . import bench
from . import exact
from . import generators
from .graph import Graph, load_edge_list, stats, write_edge_list
from .sparsify import SparsifyParams, count_weighted_triangles, survival_mask


def _graph_info(graph_id: str, g: Graph, load_time: float | None = None) -> dict:
    info = {"id": graph_id, "n": g.n, "m": g.m, "weighted": g.is_weighted}
    if load_time is not None:
        info["load_time"] = load_time
    return info


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in seconds."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def _load(args, weighted: bool = False) -> tuple[Graph, dict]:
    """The graph at ``args.graph`` and its report entry, load time included."""
    g, load_time = _timed(load_edge_list, args.graph, weighted)
    return g, _graph_info(Path(args.graph).name, g, load_time)


def _record(info: dict, method: str, parameters: dict, estimate, exact_t,
            sparsify_time: float, count_time: float, total_time: float | None = None,
            seed: int | None = None) -> bench.ExperimentRecord:
    """One report row on the graph ``info`` describes; the total time
    defaults to sparsify + count."""
    if total_time is None:
        total_time = sparsify_time + count_time
    return bench.ExperimentRecord(
        graph_id=info["id"], method=method, parameters=parameters,
        estimate=estimate, exact_t=exact_t,
        timings={"load": info["load_time"], "sparsify": sparsify_time,
                 "count": count_time, "total": total_time},
        seed=seed)


def _emit(args, graph_info: dict, records: list[bench.ExperimentRecord],
          summary: dict) -> int:
    """Write the command's JSON report if one was asked for; exit code 0."""
    if getattr(args, "json", None):
        bench.write_json_report(args.json, bench.make_payload(
            args.command, graph_info, records, summary=summary))
        print(f"json report written to {args.json}")
    return 0


def _print_records(records: list[bench.ExperimentRecord], columns: list[str]) -> None:
    headers = ["method"] + columns
    rows = []
    for r in records:
        row = [r.method]
        for c in columns:
            if c in r.parameters:
                row.append(r.parameters[c])
            elif c in r.timings:
                row.append(r.timings[c])
            else:
                row.append(getattr(r, c, None))
        rows.append(row)
    print(bench.format_table(headers, rows))


def cmd_gen(args) -> int:
    g = generators.generate(args.model, args.seed)
    write_edge_list(args.output, g)
    st = stats(g)
    print(bench.format_table(
        ["model", "n", "m", "max_degree", "isolated", "weighted", "output"],
        [[args.model, st.n, st.m, st.max_degree, st.isolated, g.is_weighted, str(args.output)]]))
    return _emit(args, _graph_info(args.model, g), [],
                 {"stats": asdict(st), "seed": args.seed, "output": str(args.output)})


def cmd_count(args) -> int:
    ad.check_threads(args.threads)
    g, info = _load(args, weighted=args.weighted)

    if args.weighted:
        value, count_time = _timed(count_weighted_triangles, g, args.threads)
        print(bench.format_table(
            ["graph", "n", "m", "weighted_triangle_total", "convention", "count_time"],
            [[info["id"], g.n, g.m, value, "product", count_time]]))
        return _emit(args, info, [], {"weighted_triangle_total": value,
                                      "convention": "product",
                                      "count_time": count_time})

    start = perf_counter()
    if args.algo == "brute":
        t = exact.count_brute_force(g)
        delta_max = None
        trans = exact.transitivity(g, t)
        per_edge = None
    else:
        if args.algo == "node":
            ts = exact.count_node_iterator(g, edge_deltas=args.delta, threads=args.threads)
        else:
            ts = exact.count_edge_iterator(g, edge_deltas=args.delta)
        t, delta_max, trans, per_edge = ts.t, ts.delta_max, ts.transitivity, ts.delta_per_edge
    count_time = perf_counter() - start

    summary = {"t": t, "algo": args.algo, "transitivity": trans,
               "delta_max": delta_max, "count_time": count_time,
               "load_time": info["load_time"]}
    headers = ["graph", "n", "m", "algo", "t", "transitivity", "delta_max", "count_time"]
    row = [info["id"], g.n, g.m, args.algo, t, trans, delta_max, count_time]
    if args.census:
        census = exact.triple_census(g, t=t)
        summary["census"] = asdict(census)
        headers += ["t0", "t1", "t2", "t3"]
        row += [census.t0, census.t1, census.t2, census.t3]
    if per_edge is not None:
        summary["delta_per_edge"] = {f"{u}-{v}": d for (u, v), d in per_edge.items()}
    print(bench.format_table(headers, [row]))
    return _emit(args, info, [], summary)


def cmd_estimate(args) -> int:
    SparsifyParams(args.p)  # rejects a bad --p before the load
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    ad.check_threads(args.threads)
    g, info = _load(args)
    exact_t, exact_time = _timed(exact.count_triangles, g)

    trials = ad.run_trials(g, args.p, args.seed, 0, args.runs, args.threads)
    records = [_record(info, "doulion",
                       {"p": args.p, "counter": "node",
                        "surviving_edges": est.surviving_edges, "t_prime": est.t_prime},
                       est.estimate, exact_t, est.sparsify_time, est.count_time,
                       seed=est.params.seed)
               for est in trials]
    if args.save_sparsified:
        # the first trial's surviving edges, written without building their Graph
        write_edge_list(args.save_sparsified, g, survival_mask(g.m, trials[0].params))

    estimates = [est.estimate for est in trials]
    mean_est = sum(estimates) / len(estimates)
    speedups = bench.SpeedupSummary.measure(
        exact_time, sum(est.count_time for est in trials) / len(trials),
        sum(r.timings["total"] for r in records))
    summary = {
        "p": args.p,
        "master_seed": args.seed,
        "runs": args.runs,
        "exact_t": exact_t,
        "exact_time": exact_time,
        "mean_estimate": mean_est,
        "mean_ratio": (mean_est / exact_t) if exact_t else None,
        "spread": ad.batch_spread(estimates),
        "expected_speedup": bench.expected_speedup(args.p),
        "speedups": asdict(speedups),
    }
    _print_records(records, ["p", "estimate", "ratio", "t_prime", "sparsify", "count"])
    print(bench.format_table(
        ["exact_t", "mean_estimate", "mean_ratio", "spread", "xfaster1", "expected_speedup"],
        [[exact_t, mean_est, summary["mean_ratio"], summary["spread"],
          speedups.xfaster1, summary["expected_speedup"]]]))
    return _emit(args, info, records, summary)


def cmd_adaptive(args) -> int:
    ad.check_search(args.p0, args.runs, args.threshold)
    ad.check_threads(args.threads)
    g, info = _load(args)
    exact_t = exact_time = None
    if not args.skip_exact:
        exact_t, exact_time = _timed(exact.count_triangles, g)

    report = ad.doubling_search(g, p0=args.p0, trials_per_p=args.runs,
                                spread_threshold=args.threshold,
                                seed=args.seed, threads=args.threads)

    print(bench.format_table(
        ["p", "trials", "mean_estimate", "spread", "concentrated", "sparsify_time", "count_time"],
        [[b.p, len(b.estimates), sum(b.estimates) / len(b.estimates), b.spread,
          b.concentrated, b.sparsify_time, b.count_time] for b in report.trace]))

    record = _record(info, "adaptive",
                     {"p0": report.p0, "p_star": report.p_star,
                      "trials_per_p": report.trials_per_p,
                      "spread_threshold": report.spread_threshold,
                      "counter": report.counter},
                     report.final_estimate, exact_t, report.total_sparsify_time,
                     report.total_count_time, report.total_time, args.seed)
    summary = {"adaptive": asdict(report),
               "exact_t": exact_t, "exact_time": exact_time,
               "expected_speedup": bench.expected_speedup(report.p_star)}
    if exact_time is not None:
        summary["speedups"] = asdict(bench.SpeedupSummary.of_search(exact_time, report))
    print(bench.format_table(
        ["p_star", "final_estimate", "ratio", "total_trials", "total_time", "xfaster1", "xfaster2"],
        [[report.p_star, report.final_estimate, record.ratio, report.total_trials,
          report.total_time,
          summary.get("speedups", {}).get("xfaster1"),
          summary.get("speedups", {}).get("xfaster2")]]))
    return _emit(args, info, [record], summary)


def cmd_baseline(args) -> int:
    if args.r is None and args.epsilon is None:
        print("error: provide --r or both --epsilon and --delta", file=sys.stderr)
        return 2
    if args.r is None and args.delta is None:
        print("error: --epsilon requires --delta", file=sys.stderr)
        return 2
    if args.r is not None and args.r < 1:
        raise ValueError(f"--r must be at least 1, got {args.r}")
    bl.check_budget_args(args.epsilon, args.delta)

    g, info = _load(args)
    exact_t, exact_time = _timed(exact.count_triangles, g)
    census = exact.triple_census(g, t=exact_t)

    budget = None
    r = args.r
    if r is None:
        maker = bl.naive_budget if args.method == "naive" else bl.buriol_budget
        budget = maker(census, args.epsilon, args.delta)
        r = budget.r
        if r > args.max_r:
            print(bench.format_table(
                ["method", "epsilon", "delta", "required_r", "max_r", "ran"],
                [[args.method, args.epsilon, args.delta, r, args.max_r, False]]))
            print(f"required sample size {r} exceeds --max-r {args.max_r}; not running "
                  "(the budget itself is the finding: triple sampling is impractical here)")
            return _emit(args, info, [],
                         {"method": args.method, "budget": asdict(budget),
                          "census": asdict(census), "exact_t": exact_t, "ran": False})

    sampler = bl.naive_sample if args.method == "naive" else bl.buriol_sample
    estimate, sample_time = _timed(sampler, g, r, seed=args.seed)
    record = _record(info, args.method, {"r": r, "epsilon": args.epsilon, "delta": args.delta},
                     estimate, exact_t, 0.0, sample_time, seed=args.seed)
    summary = {"method": args.method, "r": r, "exact_t": exact_t,
               "exact_time": exact_time, "census": asdict(census), "ran": True}
    if budget is not None:
        summary["budget"] = asdict(budget)
    _print_records([record], ["r", "estimate", "ratio", "count"])
    return _emit(args, info, [record], summary)


def cmd_bench(args) -> int:
    ad.check_threads(args.threads)
    bl.check_budget_args(args.epsilon, args.delta)
    if args.baseline_r < 1:
        raise ValueError(f"--baseline-r must be at least 1, got {args.baseline_r}")
    g, info = _load(args)
    node_stats, node_time = _timed(exact.count_node_iterator, g)
    exact_t = node_stats.t
    edge_stats, edge_time = _timed(exact.count_edge_iterator, g)
    report = ad.doubling_search(g, seed=args.seed, threads=args.threads)
    trials = ad.run_trials(g, report.p_star, args.seed, 10_000, report.trials_per_p,
                           threads=args.threads)

    records = [
        _record(info, "exact_node", {"delta_max": node_stats.delta_max,
                                     "transitivity": node_stats.transitivity},
                float(exact_t), exact_t, 0.0, node_time),
        _record(info, "exact_edge", {}, float(edge_stats.t), exact_t, 0.0, edge_time),
        _record(info, "adaptive", {"p0": report.p0, "p_star": report.p_star,
                                   "trials_per_p": report.trials_per_p},
                report.final_estimate, exact_t, report.total_sparsify_time,
                report.total_count_time, report.total_time, args.seed),
    ]
    records += [_record(info, "doulion", {"p": report.p_star, "t_prime": est.t_prime},
                        est.estimate, exact_t, est.sparsify_time, est.count_time,
                        seed=est.params.seed)
                for est in trials]

    census = exact.triple_census(g, t=exact_t)
    budgets = {}
    for method, maker, sampler in (("naive", bl.naive_budget, bl.naive_sample),
                                   ("buriol", bl.buriol_budget, bl.buriol_sample)):
        if census.t3:
            budget = maker(census, args.epsilon, args.delta)
            budgets[method] = asdict(budget)
            r = min(budget.r, args.baseline_r)
        else:
            budgets[method] = None
            r = args.baseline_r
        try:
            estimate, sample_time = _timed(sampler, g, r, seed=args.seed)
        except ValueError:
            continue
        records.append(_record(info, method,
                               {"r": r, "epsilon": args.epsilon, "delta": args.delta},
                               estimate, exact_t, 0.0, sample_time, seed=args.seed))

    speedups = bench.SpeedupSummary.of_search(node_time, report)
    summary = {
        "exact_t": exact_t,
        "p_star": report.p_star,
        "expected_speedup": bench.expected_speedup(report.p_star),
        "speedups": asdict(speedups),
        "budgets": budgets,
        "census": asdict(census),
    }
    _print_records(records, ["estimate", "ratio", "sparsify", "count", "total"])
    print(bench.format_table(
        ["p_star", "expected_speedup", "xfaster1", "xfaster2"],
        [[report.p_star, summary["expected_speedup"], speedups.xfaster1, speedups.xfaster2]]))
    return _emit(args, info, records, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisparse",
        description="Triangle counting: exact, sparsified estimation, adaptive rate search, "
                    "and sampling baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic graph and write it as an edge list")
    p.add_argument("model", help="model spec, e.g. book:1000, gnp:2000:0.05, "
                                 "weighted_book:1000:50, complete:4")
    p.add_argument("-o", "--output", required=True, help="edge-list output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="count triangles exactly")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--algo", choices=("node", "edge", "brute"), default="node")
    p.add_argument("--census", action="store_true", help="include the triple census")
    p.add_argument("--delta", action="store_true", help="include per-edge triangle counts")
    p.add_argument("--weighted", action="store_true",
                   help="load edge weights and report the weighted triangle total")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="workers for the node scan of --algo node and --weighted")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("estimate", help="sparsify-and-count estimates at a fixed rate")
    p.add_argument("graph")
    p.add_argument("--p", type=float, required=True, help="retention probability in (0, 1]")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--save-sparsified", default=None,
                   help="write the first run's sparsified graph to this edge-list path")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("adaptive", help="doubling search for the smallest reliable rate")
    p.add_argument("graph")
    p.add_argument("--p0", type=float, default=None,
                   help="starting rate (default max(n^-1/2, 0.001))")
    p.add_argument("--runs", type=int, default=ad.DEFAULT_TRIALS_PER_P,
                   help="trials per rate")
    p.add_argument("--threshold", type=float, default=ad.DEFAULT_SPREAD_THRESHOLD,
                   help="relative-range concentration threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--skip-exact", action="store_true",
                   help="skip the exact count (no accuracy ratio in the report)")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("baseline", help="run a sampling baseline")
    p.add_argument("graph")
    p.add_argument("--method", choices=("naive", "buriol"), required=True)
    p.add_argument("--r", type=int, default=None, help="number of trials")
    p.add_argument("--epsilon", type=float, default=None,
                   help="relative error target (derives r from the census)")
    p.add_argument("--delta", type=float, default=None, help="failure probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-r", type=int, default=1_000_000,
                   help="refuse to run derived budgets above this size")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="full comparison: exact counters, adaptive search, baselines")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--baseline-r", type=int, default=100_000,
                   help="cap on baseline sample sizes")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
