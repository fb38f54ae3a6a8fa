"""trisparse benchmark: runs the real CLI on one workload and prints its
metrics, checking every report.

    python3 perfbench/run.py --workload count-gnp1m --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed with trisparse.generators and cached with
their reference answers under .bench_build/perfbench/. The CLI then runs as
a child process (``python -m trisparse.cli``) one invocation at a time, a
closed loop with one client, until --seconds have passed. End-to-end metrics
come from those untraced invocations. With --trace 1 one more invocation
runs in this process under the span tracer and the per-layer metrics are
reported instead. The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import (SRC, THREADS, WORK, WORKLOADS, check, child_env, headline, input_dir,
                       spawn)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "accuracy": "ratio",
}


@dataclass
class Invocation:
    wall_s: float
    rss_mib: float
    cpu_s: float
    code: int
    problems: list[str]
    report: dict | None = None


def invoke(workload, graph: Path, seed: int, ref: dict) -> Invocation:
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    stderr_path = WORK / "stderr.txt"
    wall, usage, code = spawn(workload.argv(graph, report_path, seed), stderr_path)
    inv = Invocation(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, code, [])
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        inv.problems.append(f"exit status {code}: {' '.join(tail)}")
        return inv
    with open(report_path, encoding="utf-8") as fh:
        inv.report = json.load(fh)
    inv.problems = check(workload, inv.report, ref)
    return inv


def cli_startup_s() -> float:
    """Median time to start the interpreter and import trisparse.cli; the
    first call also leaves the bytecode cache warm for the timed runs."""
    times = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import trisparse.cli"], env=child_env(),
                       check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def machine_record() -> dict:
    import numpy

    def cache_size(level: int) -> str | None:
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level) and \
                        (index / "type").read_text().strip() != "Instruction":
                    return (index / "size").read_text().strip()
            except OSError:
                return None
        return None

    return {"nproc": os.cpu_count(),
            "mem_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            "l2": cache_size(2), "l3": cache_size(3),
            "python": platform.python_version(), "numpy": numpy.__version__}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trisparse" / "cli.py").is_file():
        print(f"perfbench: no trisparse sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import COMPUTED, PER_LAYER, layer_metrics, tail, traced_run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    folder = input_dir(w, args.seed)
    if not (folder / "ref.json").is_file():
        # prepared in a child, so that this process stays smaller than the
        # CLI runs whose peak RSS it measures
        subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                        w.name, str(args.seed)], check=True)
    with open(folder / "ref.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    graph = folder / "graph.txt"
    print(f"perfbench {w.name}: trisparse {w.command} on {w.spec}, seed {args.seed}, "
          f"--threads {THREADS if w.threaded else '-'}; closed loop, one client")
    machine = {**machine_record(), "threads": THREADS}
    print("machine:", json.dumps(machine))
    print(f"input: n={ref['n']} m={ref['m']} reference t={ref['t']} "
          f"generate_s={fmt(ref['generate_s'])}")

    startup_s = cli_startup_s()
    invocations: list[Invocation] = []
    start = perf_counter()
    while not invocations or perf_counter() - start < args.seconds:
        inv = invoke(w, graph, args.seed, ref)
        invocations.append(inv)
        status = "ok" if not inv.problems else "FAILED: " + "; ".join(inv.problems)
        setup = fmt(inv.report["graph"]["load_time"]) if inv.report else "-"
        print(f"  invocation {len(invocations)}: wall {fmt(inv.wall_s)} s, setup {setup} s, "
              f"cpu {fmt(inv.cpu_s)} s, rss {inv.rss_mib:.1f} MiB, {status}")

    good = [inv for inv in invocations if not inv.problems]
    failed = len(invocations) - len(good)
    if not good:
        print("perfbench: every invocation failed", file=sys.stderr)
        return 1
    walls = [inv.wall_s for inv in good]
    rel_err = abs(headline(good[0].report) / ref["t"] - 1.0)
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(inv.report["graph"]["load_time"] for inv in good),
        "peak_rss_mib": statistics.median(inv.rss_mib for inv in good),
        # 1 - rel_err: a gated metric must never read 0, and rel_err is 0
        # for exact answers
        "accuracy": 1.0 - rel_err,
    }
    wall_tail, pct = tail(walls)
    print(f"end to end ({len(good)} checked invocations, untraced):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {fmt(e2e[name]):>12} {unit}")
    print(f"  {'wall_tail_s':<14} {fmt(wall_tail):>12} s      p{pct:.0f} of {len(walls)}")
    print(f"  {'rel_err':<14} {fmt(rel_err):>12} ratio")
    print(f"  {'failed_frac':<14} {fmt(failed / len(invocations)):>12} ratio  "
          f"{failed} of {len(invocations)}")

    attempted = len(invocations)
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        report_path = WORK / "report.json"
        report_path.unlink(missing_ok=True)
        code, tracer, main_span = traced_run(w.argv(graph, report_path, args.seed))
        problems = [f"exit status {code}"] if code != 0 else []
        if not problems:
            with open(report_path, encoding="utf-8") as fh:
                problems = check(w, json.load(fh), ref)
        attempted += 1
        if problems:
            failed += 1
            print("  traced invocation FAILED: " + "; ".join(problems))
        layers = layer_metrics(tracer, main_span, startup_s, e2e["wall_s"], ref["generate_s"])
        caches = {k: v for k, v in machine.items() if k in ("l2", "l3")}
        print("per layer (one traced invocation in this process):")
        for name, unit in PER_LAYER.items():
            note = "  computed" if name in COMPUTED else ""
            if name == "exact.edge_keys_bytes":
                note += f", caches {caches}"
            print(f"  {name:<26} {fmt(layers[name]):>12} {unit}{note}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
