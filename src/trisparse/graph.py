"""Immutable undirected simple graphs stored in CSR adjacency form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# u*n+v edge keys must fit in int64
_MAX_VERTICES = 3_037_000_499
# original vertex ids are kept as int64 labels
_MIN_ID, _MAX_ID = -2**63, 2**63 - 1


class EdgeListFormatError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    max_degree: int
    degree_histogram: tuple[int, ...]
    isolated: int


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with optional positive edge weights.

    Edges are stored canonically (u < v) and sorted lexicographically;
    neighbor lists are strictly ascending. All arrays are read-only, so
    instances are safe to share across threads after construction.
    ``labels`` maps compact vertex ids back to the ids found in the input
    file; it is None for generated graphs.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.edge_u.size)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys u*n+v, one per canonical edge."""
        return self.edge_u * np.int64(self.n) + self.edge_v

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_positions(self, us, vs) -> np.ndarray:
        """Positions of the (us[i], vs[i]) edges in the canonical edge
        arrays, or -1 where the edge is absent. Vectorized."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo * np.int64(self.n) + hi
        pos = np.searchsorted(self.edge_keys, keys)
        if self.m == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.minimum(pos, self.m - 1)
        return np.where(self.edge_keys[pos] == keys, pos, -1)

    def has_edges(self, us, vs) -> np.ndarray:
        return self.edge_positions(us, vs) >= 0

    @staticmethod
    def build(n: int, edge_u, edge_v, weights=None, labels=None) -> "Graph":
        """Assemble a Graph from raw edge endpoint arrays.

        Self-loops are dropped, parallel edges collapse to the first
        occurrence (its weight wins for weighted input), and vertex ids
        must already lie in [0, n).
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > _MAX_VERTICES:
            raise ValueError(f"graph too large for int64 edge keys: n={n}")
        eu = np.asarray(edge_u, dtype=np.int64).ravel()
        ev = np.asarray(edge_v, dtype=np.int64).ravel()
        if eu.size != ev.size:
            raise ValueError("edge endpoint arrays differ in length")
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.size != eu.size:
                raise ValueError("weights array does not match edge count")
        if eu.size and (eu.min() < 0 or ev.min() < 0 or max(eu.max(), ev.max()) >= n):
            raise ValueError("vertex id out of range")

        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if w is not None:
            w = w[keep]

        keys = lo * np.int64(n) + hi
        uniq, first = np.unique(keys, return_index=True)
        edge_u_f = lo[first]
        edge_v_f = hi[first]
        if w is not None:
            w = w[first]
            if not np.all((w > 0) & (w < np.inf)):
                raise ValueError("edge weights must be positive and finite")

        m = edge_u_f.size
        src = np.concatenate([edge_u_f, edge_v_f])
        dst = np.concatenate([edge_v_f, edge_u_f])
        # unique keys give the lexicographic order; stable sorts the sorted first half fastest
        order = np.argsort(src * np.int64(n) + dst, kind="stable")
        indices = dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if m:
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

        lab = None
        if labels is not None:
            lab = np.asarray(labels, dtype=np.int64).ravel()
            if lab.size != n:
                raise ValueError("labels array must have one entry per vertex")

        for arr in (edge_u_f, edge_v_f, indices, indptr, w, lab):
            if arr is not None:
                arr.setflags(write=False)
        return Graph(n=n, edge_u=edge_u_f, edge_v=edge_v_f, indptr=indptr,
                     indices=indices, weights=w, labels=lab)


def load_edge_list(path, weighted: bool = False) -> Graph:
    """Load a whitespace-separated edge list.

    Lines starting with '#' or '%' are ignored, which accepts both
    SNAP-style and MatrixMarket-body-style files. Direction is dropped,
    self-loops are removed, duplicate edges collapse (first weight seen
    wins), and vertex ids are compacted to 0..n-1 in first-appearance
    order; the original ids are kept as ``labels``. In unweighted mode
    any tokens after the two vertex ids are ignored; in weighted mode a
    third token is read as a positive, finite edge weight (defaults to 1.0
    when absent). Vertex ids must fit in int64.
    """
    path = Path(path)
    compact: dict[int, int] = {}
    labels: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped[0] in "#%":
                continue
            tokens = stripped.split()
            if len(tokens) < 2:
                raise EdgeListFormatError(path, line_no,
                                          "expected two vertex ids per line")
            try:
                u = int(tokens[0])
                v = int(tokens[1])
            except ValueError:
                raise EdgeListFormatError(
                    path, line_no,
                    f"vertex ids must be integers, got {tokens[0]!r} {tokens[1]!r}") from None
            w = 1.0
            if weighted and len(tokens) >= 3:
                try:
                    w = float(tokens[2])
                except ValueError:
                    raise EdgeListFormatError(
                        path, line_no, f"weight must be numeric, got {tokens[2]!r}") from None
                if not 0.0 < w < math.inf:
                    raise EdgeListFormatError(
                        path, line_no, f"edge weight must be positive and finite, got {tokens[2]!r}")
            for x in (u, v):
                if x not in compact:
                    if not _MIN_ID <= x <= _MAX_ID:
                        raise EdgeListFormatError(path, line_no, f"vertex id {x} does not fit in int64")
                    compact[x] = len(labels)
                    labels.append(x)
            us.append(compact[u])
            vs.append(compact[v])
            ws.append(w)

    n = len(labels)
    return Graph.build(
        n,
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        weights=np.array(ws, dtype=np.float64) if weighted else None,
        labels=np.array(labels, dtype=np.int64),
    )


def write_edge_list(path, g: Graph) -> None:
    """Write the canonical edge set, using original labels when present.

    Isolated vertices are not representable in this format and are lost
    on reload.
    """
    us, vs = g.edge_u, g.edge_v
    if g.labels is not None:
        us, vs = g.labels[us], g.labels[vs]
    columns = [us.tolist(), vs.tolist()]
    if g.is_weighted:
        columns.append(g.weights.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(str, row)) + "\n" for row in zip(*columns))


def stats(g: Graph) -> GraphStats:
    """Basic size and degree statistics used in dataset tables."""
    if g.n == 0:
        return GraphStats(0, 0, 0, (), 0)
    deg = g.degrees
    hist = np.bincount(deg)
    return GraphStats(
        n=g.n,
        m=g.m,
        max_degree=int(deg.max()),
        degree_histogram=tuple(int(c) for c in hist),
        isolated=int(np.count_nonzero(deg == 0)),
    )
