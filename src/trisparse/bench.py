"""Experiment records, speedup accounting and report serialization for
the benchmark CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1

METHODS = ("exact_node", "exact_edge", "doulion", "adaptive", "naive", "buriol")


def expected_speedup(p: float) -> float:
    """Expected counting speedup 1/p^2 when a sample at rate p replaces
    the full graph under a simple exact counter."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"sampling rate must lie in (0, 1], got {p}")
    return 1.0 / (p * p)


@dataclass(frozen=True)
class SpeedupSummary:
    """xfaster1: exact count time over sample count time (sparsification
    excluded). xfaster2: exact count time over the whole adaptive
    procedure (every batch's sparsify + count). xfaster2 <= xfaster1 for
    the same run set since the full procedure only adds work."""

    xfaster1: float
    xfaster2: float

    @classmethod
    def measure(cls, exact_time: float, count_time: float, total_time: float) -> "SpeedupSummary":
        """exact_time over count_time and over total_time; a time of 0 gives inf."""
        def over(t: float) -> float:
            return exact_time / t if t > 0 else float("inf")
        return cls(xfaster1=over(count_time), xfaster2=over(total_time))


@dataclass
class ExperimentRecord:
    """One benchmark row; ratio is present exactly when exact_t is."""

    graph_id: str
    method: str
    parameters: dict = field(default_factory=dict)
    estimate: float | None = None
    exact_t: int | None = None
    ratio: float | None = None
    timings: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.ratio is None and self.exact_t is not None and self.estimate is not None:
            if self.exact_t > 0:
                self.ratio = self.estimate / self.exact_t


def make_payload(command: str, graph_info: dict, records: list[ExperimentRecord],
                 summary: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "graph": dict(graph_info),
        "records": [asdict(r) for r in records],
    }
    if summary is not None:
        payload["summary"] = dict(summary)
    return payload


def write_json_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table; numbers are rendered with %.6g so stdout
    and the JSON report agree on every figure."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
