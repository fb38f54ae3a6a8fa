"""perfbench times the program by patching module attributes by name
(``tracer.patch(module, "attr", ...)`` in ``perfbench/layers.py``). A
refactor that drops or renames one of them would break the traced run or
silently drop a layer, so every patched attribute must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

from trisparse.graph import Graph

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
