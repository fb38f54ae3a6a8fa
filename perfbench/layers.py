"""The traced run: one in-process ``trisparse.cli.main(argv)`` under the span
tracer, turned into per-layer metrics.

Counters marked "computed" are derived by the benchmark from the graph's
public arrays and the reports, not read from the program.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import statistics

import numpy as np

# name -> unit, in the order of the printed table
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.edges_per_s": "1/s",
    "graph.build_s": "s",
    "graph.build_calls": "count",
    "exact.node_s": "s",
    "exact.wedges": "count",
    "exact.wedges_per_s": "1/s",
    "exact.hit_ratio": "ratio",
    "exact.edge_keys_bytes": "bytes",
    "exact.sample_count_s": "s",
    "exact.sample_count_tail_s": "s",
    "exact.edge_iter_s": "s",
    "exact.census_s": "s",
    "sparsify.mask_s": "s",
    "sparsify.sample_s": "s",
    "sparsify.surviving_frac": "ratio",
    "adaptive.search_s": "s",
    "adaptive.self_s": "s",
    "adaptive.rungs": "count",
    "adaptive.trials": "count",
    "adaptive.trials_per_s": "1/s",
    "adaptive.thread_util": "ratio",
    "adaptive.xfaster1": "x",
    "adaptive.xfaster2": "x",
    "adaptive.ideal_speedup": "x",
    "adaptive.exact_time_s": "s",
    "adaptive.pstar_count_s": "s",
    "adaptive.total_time_s": "s",
    "adaptive.threads": "count",
    "baselines.naive_s": "s",
    "baselines.buriol_s": "s",
    "baselines.samples_per_s": "1/s",
    "baselines.hit_ratio": "ratio",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "bench.report_write_s": "s",
    "bench.report_bytes": "bytes",
    "generators.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


# counters the benchmark derives from the graph's public arrays and the
# returned results rather than reading them from the program
COMPUTED = {"exact.wedges", "exact.hit_ratio", "exact.edge_keys_bytes",
            "sparsify.surviving_frac", "baselines.hit_ratio"}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def forward_wedges(g) -> int:
    """Computed: wedges the node iterator generates, sum of C(f, 2) over
    forward degrees f, with each edge oriented from its lower endpoint in
    degree-then-id order."""
    deg = g.degrees
    du, dv = deg[g.edge_u], deg[g.edge_v]
    forward = (du < dv) | ((du == dv) & (g.edge_u < g.edge_v))
    f = np.bincount(np.where(forward, g.edge_u, g.edge_v), minlength=g.n)
    return int((f * (f - 1) // 2).sum())


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def traced_run(argv: list[str]):
    """Run the CLI once in this process under the tracer; returns
    (exit code, tracer, main span)."""
    # import_module: the package's own ``sparsify`` attribute is the function
    adaptive, baselines, bench, cli, exact, sparsify = (
        importlib.import_module(f"trisparse.{name}")
        for name in ("adaptive", "baselines", "bench", "cli", "exact", "sparsify"))
    from trisparse.graph import Graph

    from tracer import Tracer

    with Tracer() as tracer:
        tracer.patch(cli, "load_edge_list", "graph.load",
                     lambda a, k, r: {"m": r.m})
        tracer.patch(Graph, "build", "graph.build")
        tracer.patch(sparsify, "sparsify", "sparsify.sparsify",
                     lambda a, k, r: {"m_in": a[0].m, "m_out": r.m})
        tracer.patch(sparsify, "survival_mask", "sparsify.survival_mask")
        tracer.patch(sparsify, "count_triangles", "exact.sample_count")
        tracer.patch(adaptive, "estimate_triangles", "adaptive.trial")
        tracer.patch(adaptive, "doubling_search", "adaptive.search",
                     lambda a, k, r: {"report": r, "threads": k.get("threads", 1)})
        full = lambda a, k, r: {"graph": a[0], "t": r if isinstance(r, int) else r.t}  # noqa: E731
        tracer.patch(exact, "count_node_iterator", "exact.node", full)
        tracer.patch(exact, "count_triangles", "exact.node", full)
        tracer.patch(exact, "count_edge_iterator", "exact.edge_iter")
        tracer.patch(exact, "triple_census", "exact.census")
        sampled = lambda a, k, r: {"g": a[0], "r": _arg(a, k, 1, "r"), "estimate": r}  # noqa: E731
        tracer.patch(baselines, "naive_sample", "baselines.naive", sampled)
        tracer.patch(baselines, "buriol_sample", "baselines.buriol", sampled)
        tracer.patch(bench, "write_json_report", "bench.write_report",
                     lambda a, k, r: {"bytes": os.path.getsize(a[0])})
        main = tracer.wrap("cli.main", cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, tracer, tracer.named("cli.main")[0]


def layer_metrics(tracer, main_span, startup_s: float, untraced_wall_s: float,
                  generate_s: float) -> dict[str, float]:
    """Every PER_LAYER metric; layers the command does not use read 0."""
    out = dict.fromkeys(PER_LAYER, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    loads = tracer.named("graph.load")
    out["graph.parse_s"] = tracer.self_total("graph.load")
    out["graph.edges_per_s"] = ratio(sum(s.note["m"] for s in loads), out["graph.parse_s"])
    out["graph.build_s"] = tracer.total("graph.build")
    out["graph.build_calls"] = len(tracer.named("graph.build"))

    nodes = tracer.named("exact.node")
    out["exact.node_s"] = tracer.total("exact.node")
    out["exact.wedges"] = sum(forward_wedges(s.note["graph"]) for s in nodes)
    out["exact.wedges_per_s"] = ratio(out["exact.wedges"], out["exact.node_s"])
    out["exact.hit_ratio"] = ratio(sum(s.note["t"] for s in nodes), out["exact.wedges"])
    # computed: edge_keys holds one int64 per edge of the loaded graph
    out["exact.edge_keys_bytes"] = 8 * max((s.note["m"] for s in loads), default=0)
    sample_counts = [s.duration for s in tracer.named("exact.sample_count")]
    if sample_counts:
        out["exact.sample_count_s"] = statistics.median(sample_counts)
        out["exact.sample_count_tail_s"] = tail(sample_counts)[0]
    out["exact.edge_iter_s"] = tracer.total("exact.edge_iter")
    out["exact.census_s"] = tracer.total("exact.census")

    samples = tracer.named("sparsify.sparsify")
    out["sparsify.mask_s"] = tracer.total("sparsify.survival_mask")
    out["sparsify.sample_s"] = tracer.total("sparsify.sparsify") - out["sparsify.mask_s"]
    out["sparsify.surviving_frac"] = ratio(sum(s.note["m_out"] for s in samples),
                                           sum(s.note["m_in"] for s in samples))

    searches = tracer.named("adaptive.search")
    if searches:
        search = searches[0]
        report, threads = search.note["report"], search.note["threads"]
        star = report.trace[-1]
        out["adaptive.search_s"] = search.duration
        out["adaptive.self_s"] = tracer.self_time(search)
        out["adaptive.rungs"] = len(report.trace)
        out["adaptive.trials"] = report.total_trials
        out["adaptive.trials_per_s"] = ratio(report.total_trials, search.duration)
        trial_s = sum(s.duration for s in tracer.named("adaptive.trial"))
        out["adaptive.thread_util"] = ratio(trial_s, threads * search.duration)
        # xfaster1/xfaster2 as the program defines them (exact count time over
        # the mean count time at p*, and over the whole search), with bases
        exact_s = nodes[0].duration if nodes else 0.0
        out["adaptive.exact_time_s"] = exact_s
        out["adaptive.pstar_count_s"] = star.count_time / len(star.estimates)
        out["adaptive.total_time_s"] = report.total_time
        out["adaptive.threads"] = threads
        out["adaptive.xfaster1"] = ratio(exact_s, out["adaptive.pstar_count_s"])
        out["adaptive.xfaster2"] = ratio(exact_s, report.total_time)
        out["adaptive.ideal_speedup"] = 1.0 / report.p_star ** 2

    draws = hits = 0.0
    for name in ("naive", "buriol"):
        for s in tracer.named(f"baselines.{name}"):
            g, r, est = s.note["g"], s.note["r"], s.note["estimate"]
            draws += r
            # computed: invert the estimator's scaling to recover the hit count
            if name == "naive":
                hits += est * r / math.comb(g.n, 3)
            else:
                hits += est * r * 3.0 / (g.m * (g.n - 2))
        out[f"baselines.{name}_s"] = tracer.total(f"baselines.{name}")
    out["baselines.samples_per_s"] = ratio(draws, out["baselines.naive_s"] + out["baselines.buriol_s"])
    out["baselines.hit_ratio"] = ratio(hits, draws)

    out["cli.startup_s"] = startup_s
    out["cli.self_s"] = tracer.self_time(main_span)
    out["bench.report_write_s"] = tracer.total("bench.write_report")
    out["bench.report_bytes"] = sum(s.note["bytes"] for s in tracer.named("bench.write_report"))
    out["generators.generate_s"] = generate_s
    out["trace.wall_s"] = startup_s + main_span.duration
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
    return out
