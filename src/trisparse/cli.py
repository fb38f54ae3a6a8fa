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


def _graph_info(graph_id: str, g: Graph) -> dict:
    return {"id": graph_id, "n": g.n, "m": g.m, "weighted": g.is_weighted}


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in seconds."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def _load(args, weighted: bool = False) -> tuple[Graph, dict]:
    """The graph at ``args.graph`` and its report entry, load time included."""
    g, load_time = _timed(load_edge_list, args.graph, weighted)
    return g, {**_graph_info(Path(args.graph).name, g), "load_time": load_time}


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


def _emit(args, graph_info: dict, records: list[bench.ExperimentRecord], summary: dict) -> int:
    """Write the command's JSON report if one was asked for; exit code 0."""
    if args.json:
        bench.write_json_report(args.json, bench.make_payload(
            args.command, graph_info, records, summary=summary))
        print(f"json report written to {args.json}")
    return 0


def _print_records(records: list[bench.ExperimentRecord], columns: list[str]) -> None:
    # each column's cell is a parameter, else a timing, else a field of the record
    cells = [{**vars(r), **r.timings, **r.parameters} for r in records]
    print(bench.format_table(["method", *columns],
                             [[c["method"], *map(c.get, columns)] for c in cells]))


def _print_row(**columns) -> None:
    """A one-row table of ``columns``, in their order."""
    print(bench.format_table(list(columns), [list(columns.values())]))


def _baseline(args, g: Graph, info: dict, method: str, r: int, exact_t) -> bench.ExperimentRecord:
    """The report record of baseline ``method`` run for r trials, timed.
    The sampler is looked up by name at each call, so a patched
    ``baselines`` attribute is the one that runs."""
    estimate, sample_time = _timed(getattr(bl, f"{method}_sample"), g, r, seed=args.seed)
    return _record(info, method, {"r": r, "epsilon": args.epsilon, "delta": args.delta},
                   estimate, exact_t, 0.0, sample_time, seed=args.seed)


def cmd_gen(args) -> int:
    g = generators.generate(args.model, args.seed)
    write_edge_list(args.output, g)
    st = stats(g)
    _print_row(model=args.model, n=st.n, m=st.m, max_degree=st.max_degree, isolated=st.isolated,
               weighted=g.is_weighted, output=str(args.output))
    return _emit(args, _graph_info(args.model, g), [],
                 {"stats": asdict(st), "seed": args.seed, "output": str(args.output)})


def cmd_count(args) -> int:
    ad.check_threads(args.threads)
    g, info = _load(args, weighted=args.weighted)

    if args.weighted:
        value, count_time = _timed(count_weighted_triangles, g, args.threads)
        summary = {"weighted_triangle_total": value, "convention": "product",
                   "count_time": count_time}
        _print_row(graph=info["id"], n=g.n, m=g.m, **summary)
        return _emit(args, info, [], summary)

    start = perf_counter()
    if args.algo == "brute":
        t = exact.count_brute_force(g)
        ts = exact.TriangleStats(t=t, delta_max=None, transitivity=exact.transitivity(g, t))
    elif args.algo == "node":
        ts = exact.count_node_iterator(g, edge_deltas=args.delta, threads=args.threads)
    else:
        ts = exact.count_edge_iterator(g, edge_deltas=args.delta)
    count_time = perf_counter() - start

    summary = {"algo": args.algo, "t": ts.t, "transitivity": ts.transitivity,
               "delta_max": ts.delta_max, "count_time": count_time}
    columns = {"graph": info["id"], "n": g.n, "m": g.m, **summary}
    summary["load_time"] = info["load_time"]
    if args.census:
        summary["census"] = asdict(exact.triple_census(g, t=ts.t))
        columns.update(summary["census"])
    if ts.delta_per_edge is not None:
        summary["delta_per_edge"] = {f"{u}-{v}": d for (u, v), d in ts.delta_per_edge.items()}
    _print_row(**columns)
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
    _print_row(exact_t=exact_t, mean_estimate=mean_est, mean_ratio=summary["mean_ratio"],
               spread=summary["spread"], xfaster1=speedups.xfaster1,
               expected_speedup=summary["expected_speedup"])
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
    speedups = summary.get("speedups", {})
    _print_row(p_star=report.p_star, final_estimate=report.final_estimate, ratio=record.ratio,
               total_trials=report.total_trials, total_time=report.total_time,
               xfaster1=speedups.get("xfaster1"), xfaster2=speedups.get("xfaster2"))
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
        budget = getattr(bl, f"{args.method}_budget")(census, args.epsilon, args.delta)
        r = budget.r
        if r > args.max_r:
            _print_row(method=args.method, epsilon=args.epsilon, delta=args.delta,
                       required_r=r, max_r=args.max_r, ran=False)
            print(f"required sample size {r} exceeds --max-r {args.max_r}; not running "
                  "(the budget itself is the finding: triple sampling is impractical here)")
            return _emit(args, info, [],
                         {"method": args.method, "budget": asdict(budget),
                          "census": asdict(census), "exact_t": exact_t, "ran": False})

    record = _baseline(args, g, info, args.method, r, exact_t)
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
    for method in ("naive", "buriol"):
        r = args.baseline_r
        budgets[method] = None
        if census.t3:
            budget = getattr(bl, f"{method}_budget")(census, args.epsilon, args.delta)
            budgets[method] = asdict(budget)
            r = min(budget.r, r)
        try:
            records.append(_baseline(args, g, info, method, r, exact_t))
        except ValueError:  # the sampler cannot draw from g
            pass

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
    _print_row(p_star=report.p_star, expected_speedup=summary["expected_speedup"],
               xfaster1=speedups.xfaster1, xfaster2=speedups.xfaster2)
    return _emit(args, info, records, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisparse",
        description="Triangle counting: exact, sparsified estimation, adaptive rate search, "
                    "and sampling baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    # parents that declare each shared option once, for every subcommand taking it
    graph, seed, threads, json_ = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    graph.add_argument("graph", help="edge-list file")
    seed.add_argument("--seed", type=int, default=0)
    threads.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                         help="worker threads (default: the number of cores); results do not "
                              "depend on them")
    json_.add_argument("--json", default=None, help="also write a JSON report here")

    p = sub.add_parser("gen", parents=[seed, json_],
                       help="generate a synthetic graph and write it as an edge list")
    p.add_argument("model", help="model spec, e.g. book:1000, gnp:2000:0.05, "
                                 "weighted_book:1000:50, complete:4")
    p.add_argument("-o", "--output", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", parents=[graph, threads, json_], help="count triangles exactly")
    p.add_argument("--algo", choices=("node", "edge", "brute"), default="node")
    p.add_argument("--census", action="store_true", help="include the triple census")
    p.add_argument("--delta", action="store_true", help="include per-edge triangle counts")
    p.add_argument("--weighted", action="store_true",
                   help="load edge weights and report the weighted triangle total")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("estimate", parents=[graph, threads, json_],
                       help="sparsify-and-count estimates at a fixed rate")
    p.add_argument("--p", type=float, required=True, help="retention probability in (0, 1]")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--save-sparsified", default=None,
                   help="write the first run's sparsified graph to this edge-list path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("adaptive", parents=[graph, seed, threads, json_],
                       help="doubling search for the smallest reliable rate")
    p.add_argument("--p0", type=float, default=None,
                   help="starting rate (default max(n^-1/2, 0.001))")
    p.add_argument("--runs", type=int, default=ad.DEFAULT_TRIALS_PER_P,
                   help="trials per rate")
    p.add_argument("--threshold", type=float, default=ad.DEFAULT_SPREAD_THRESHOLD,
                   help="relative-range concentration threshold")
    p.add_argument("--skip-exact", action="store_true",
                   help="skip the exact count (no accuracy ratio in the report)")
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("baseline", parents=[graph, seed, json_], help="run a sampling baseline")
    p.add_argument("--method", choices=("naive", "buriol"), required=True)
    p.add_argument("--r", type=int, default=None, help="number of trials")
    p.add_argument("--epsilon", type=float, default=None,
                   help="relative error target (derives r from the census)")
    p.add_argument("--delta", type=float, default=None, help="failure probability")
    p.add_argument("--max-r", type=int, default=1_000_000,
                   help="refuse to run derived budgets above this size")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", parents=[graph, seed, threads, json_],
                       help="full comparison: exact counters, adaptive search, baselines")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--baseline-r", type=int, default=100_000,
                   help="cap on baseline sample sizes")
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
