"""The benchmark's workloads: which CLI command each runs on which generated
graph, how its inputs and reference answers are prepared, and the checks
every report must pass."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# Worker threads for every threaded subcommand; the benchmark machine has
# two cores.
THREADS = 2
# every child is killed at this age, keeping a run well inside three minutes
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str                 # model spec for trisparse.generators.generate
    command: str              # CLI subcommand
    options: tuple[str, ...]  # fixed options after the graph path
    threaded: bool            # takes --seed and --threads

    def argv(self, graph: Path, report: Path, seed: int,
             threads: int = THREADS) -> list[str]:
        argv = [self.command, str(graph), *self.options, "--json", str(report)]
        if self.threaded:
            argv += ["--seed", str(seed), "--threads", str(threads)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("count-gnp1m", "gnp:10000:0.02", "count", ("--algo", "node", "--census"),
             threaded=False),
    # At the default --threshold 0.1 the search stops at p = 512/sqrt(n) =
    # 0.935 whenever all six trials there keep the hub edge (probability
    # 0.935^6 = 0.67), reporting k/p, 7% high: the book defeats the stopping
    # rule. A threshold no sampled batch can meet makes every seed climb all
    # 11 rungs to the exact batch at p = 1, so every run does the same work.
    Workload("search-book", "book:300000", "adaptive", ("--threshold", "1e-9"), threaded=True),
    Workload("bench-gnp", "gnp:3000:0.05", "bench", (), threaded=True),
)}


def reference_t(spec: str, g) -> int:
    """Triangle count from a route independent of the program's kernels.

    book(k) has exactly k triangles by construction. Any other graph is
    counted here the edge-iterator way, sum over edges of
    |N(u) & N(v)| = 3t, on bit-packed adjacency rows (n^2/8 bytes; 12.5 MB
    at n = 10000). count_edge_iterator computes the same sum but takes
    14 s on the 1M-edge workload, which every run with a new seed would pay.
    """
    name, *params = spec.split(":")
    if name == "book":
        return int(params[0])
    bits = np.zeros((g.n, (g.n + 7) // 8), dtype=np.uint8)
    for a, b in ((g.edge_u, g.edge_v), (g.edge_v, g.edge_u)):
        np.bitwise_or.at(bits, (a, b >> 3), (128 >> (b & 7)).astype(np.uint8))
    total = 0
    for start in range(0, g.m, 4096):
        u, v = g.edge_u[start:start + 4096], g.edge_v[start:start + 4096]
        total += int(np.bitwise_count(bits[u] & bits[v]).sum(dtype=np.int64))
    if total % 3:
        raise RuntimeError("reference count: per-edge sum not divisible by 3")
    return total // 3


def headline(report: dict) -> float:
    """The command's headline answer: t for count, the search's final
    estimate for adaptive, the adaptive record's estimate for bench."""
    summary = report["summary"]
    if report["command"] == "count":
        return summary["t"]
    if report["command"] == "adaptive":
        return summary["adaptive"]["final_estimate"]
    return next(r["estimate"] for r in report["records"] if r["method"] == "adaptive")


def estimates(report: dict) -> list:
    """Every estimate the report carries, in report order; used to check
    that results do not depend on the thread count."""
    summary = report["summary"]
    if report["command"] == "adaptive":
        search = summary["adaptive"]
        return [e for b in search["trace"] for e in b["estimates"]] + [search["final_estimate"]]
    if report["command"] == "bench":
        return [[r["method"], r["estimate"]] for r in report["records"]]
    return [summary["t"]]


def check(w: Workload, report: dict, ref: dict) -> list[str]:
    """Problems found in one report; empty when it is correct."""
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    expect(report.get("schema_version") == 1,
           f"schema_version {report.get('schema_version')!r}, expected 1")
    expect(report.get("command") == w.command, f"command {report.get('command')!r}")
    if problems:
        return problems
    graph, summary = report["graph"], report["summary"]
    expect(graph["n"] == ref["n"] and graph["m"] == ref["m"],
           f"graph n={graph['n']} m={graph['m']}, expected n={ref['n']} m={ref['m']}")
    if w.command == "count":
        census = summary["census"]
        expect(summary["t"] == ref["t"], f"t={summary['t']}, reference {ref['t']}")
        expect(census["t3"] == ref["t"], f"census t3={census['t3']}, reference {ref['t']}")
        expect(sum(census.values()) == comb(graph["n"], 3), "census does not sum to C(n,3)")
    elif w.command == "adaptive":
        search = summary["adaptive"]
        expect(search["p_star"] == 1.0, f"p_star={search['p_star']}, expected 1")
        expect(search["final_estimate"] == ref["t"],
               f"estimate {search['final_estimate']!r}, expected exactly {ref['t']}")
    elif w.command == "bench":
        exact = {r["method"]: r["estimate"] for r in report["records"]
                 if r["method"].startswith("exact_")}
        expect(exact == {"exact_node": ref["t"], "exact_edge": ref["t"]},
               f"exact counts {exact}, reference {ref['t']}")
        expect(summary["exact_t"] == ref["t"], f"exact_t={summary['exact_t']}")
    if "estimates" in ref:
        expect(estimates(report) == ref["estimates"],
               "estimates differ from the --threads 1 run")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path):
    """Run ``python -m trisparse.cli argv`` to exit; returns (wall seconds
    from spawn to exit, the child's resource usage, exit code).

    Linux carries the spawning process's peak RSS into the child's
    ru_maxrss, so the process that calls this must stay smaller than the
    children it measures.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "trisparse.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def input_dir(w: Workload, seed: int) -> Path:
    return WORK / "inputs" / f"{w.spec.replace(':', '_')}-seed{seed}"


def prepare(w: Workload, seed: int) -> None:
    """Write the input file and ref.json for (spec, seed) to input_dir.

    ref.json holds the input's n and m as the loader will see them, the
    triangle count from ``reference_t``, the generation time, and for
    threaded commands every estimate of a ``--threads 1`` run.
    """
    from trisparse.generators import generate
    from trisparse.graph import write_edge_list

    folder = input_dir(w, seed)
    folder.mkdir(parents=True, exist_ok=True)
    graph_path = folder / "graph.txt"
    start = perf_counter()
    g = generate(w.spec, seed)
    generate_s = perf_counter() - start
    write_edge_list(graph_path, g)
    ref = {"spec": w.spec, "seed": seed, "generate_s": generate_s,
           # isolated vertices are not written, so the loader never sees them
           "n": int(np.unique(np.concatenate([g.edge_u, g.edge_v])).size),
           "m": g.m, "t": reference_t(w.spec, g)}
    del g
    if w.threaded:
        report_path = folder / "threads1.json"
        code = spawn(w.argv(graph_path, report_path, seed, threads=1), folder / "stderr.txt")[2]
        if code != 0:
            raise RuntimeError(f"--threads 1 reference run exited with {code}")
        with open(report_path, encoding="utf-8") as fh:
            ref["estimates"] = estimates(json.load(fh))
        report_path.unlink()
    tmp = folder / "ref.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    os.replace(tmp, folder / "ref.json")


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED: prepare one input
    sys.path.insert(0, str(SRC))
    prepare(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
