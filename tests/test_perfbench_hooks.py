"""perfbench times the program by patching module attributes by name
(``tracer.patch(module, "attr", ...)`` in ``perfbench/layers.py``). A
refactor that drops or renames one of them would break the traced run or
silently drop a layer, so every patched attribute must still exist, and
so must every attribute perfbench reads off a graph. The counters
perfbench computes itself must also agree with the program."""

import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import load_perfbench
from trisparse import count_triangles, generate
from trisparse.graph import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def _patched_attributes() -> list[tuple[str, str]]:
    """(owner name, attribute) of every ``tracer.patch`` call in layers.py."""
    found = []
    for node in ast.walk(ast.parse(LAYERS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracer"):
            owner, attr = node.args[:2]
            assert isinstance(owner, ast.Name) and isinstance(attr, ast.Constant)
            found.append((owner.id, attr.value))
    return found


PATCHED = _patched_attributes()


def test_layers_patch_many_attributes():
    # guards the parse itself: an empty list would make the test below vacuous
    assert len(PATCHED) >= 10


@pytest.mark.parametrize("owner,attr", PATCHED, ids=[f"{o}.{a}" for o, a in PATCHED])
def test_patched_attribute_exists(owner, attr):
    target = Graph if owner == "Graph" else importlib.import_module(f"trisparse.{owner}")
    # the tracer reads the attribute from the owner's own namespace
    assert attr in vars(target)
    assert callable(getattr(target, attr))


def _graph_reads() -> list[str]:
    """Every attribute perfbench reads off a graph, which it always names
    ``g``, in any of its files."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "g"):
                found.add(node.attr)
    return sorted(found)


GRAPH_READS = _graph_reads()


def test_graph_reads_found():
    # guards the walk itself: these are the reads perfbench makes today
    assert {"edge_u", "edge_v", "degrees", "n", "m"} <= set(GRAPH_READS)


# int32 keys, and int64 keys past n = 46340
@pytest.mark.parametrize("g", [Graph.build(5, [0, 1, 3], [1, 4, 2]),
                               Graph.build(46341, [0, 46340, 7], [46340, 3, 9])],
                         ids=["int32-keys", "int64-keys"])
@pytest.mark.parametrize("attr", GRAPH_READS)
def test_graph_answers_perfbench_reads(g, attr):
    assert getattr(g, attr) is not None


BENCH_LAYERS = load_perfbench("layers")
BENCH_WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("spec", ["gnp:300:0.1", "gnp:60:0.5", "book:40", "complete:9"])
def test_benchmark_counters_agree_with_the_program(spec):
    # perfbench derives exact.wedges and exact.hit_ratio from its own
    # orientation, and checks reports against its own reference count
    g = generate(spec, seed=3)
    f = np.diff(g.fptr)
    assert BENCH_LAYERS.forward_wedges(g) == int((f * (f - 1) // 2).sum())
    assert BENCH_WORKLOADS.reference_t(spec, g) == count_triangles(g)


def test_workload_inputs_prepared(tmp_path, monkeypatch):
    # prepare writes the input file and its ref.json from the generated
    # graph's endpoints; an unthreaded workload spawns no reference run
    monkeypatch.setattr(BENCH_WORKLOADS, "WORK", tmp_path)
    w = BENCH_WORKLOADS.Workload("tiny", "gnp:60:0.3", "count", ("--census",), threaded=False)
    BENCH_WORKLOADS.prepare(w, 4)
    with open(BENCH_WORKLOADS.input_dir(w, 4) / "ref.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    g = generate("gnp:60:0.3", seed=4)
    assert (ref["n"], ref["m"], ref["t"]) == (np.count_nonzero(g.degrees), g.m, count_triangles(g))
