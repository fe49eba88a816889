"""The public names: what the package exports and what the benchmark calls."""

import ast
import inspect
import re
import typing
from pathlib import Path

import gcsloc
import gcsloc.cli  # perfbench reaches the CLI as gcsloc.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(gcsloc.__file__).resolve().parent


def _resolves(dotted):
    obj = gcsloc
    for attr in dotted.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_exported_name_resolves():
    assert [name for name in gcsloc.__all__ if not hasattr(gcsloc, name)] == []


def _annotated(obj):
    """obj itself and, for a class, its methods and property getters."""
    yield obj
    if inspect.isclass(obj):
        for attr in vars(obj).values():
            attr = attr.fget if isinstance(attr, property) else attr
            if inspect.isfunction(attr):
                yield attr


def test_every_exported_annotation_resolves():
    unresolved = []
    for name in gcsloc.__all__:
        for obj in _annotated(getattr(gcsloc, name)):
            try:
                typing.get_type_hints(obj)
            except NameError as err:
                unresolved.append(f"{obj.__qualname__}: {err}")
    assert unresolved == []


def test_every_name_perfbench_references_exists():
    refs = set()
    for path in PERFBENCH.glob("*.py"):
        refs.update(re.findall(r"\bgcsloc(?:\.[A-Za-z_]\w*)+", path.read_text()))
    assert "gcsloc.simulate_trajectory" in refs  # the scan sees the benchmark's calls
    assert sorted(d for d in refs if not _resolves(d)) == []


def _package_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_modules_import_one_way():
    # algebra <- dynamics <- observables <- cartan <- cli
    allowed = {
        "algebra": set(),
        "dynamics": {"algebra"},
        "observables": {"algebra", "dynamics"},
        "cartan": {"algebra", "observables"},
    }
    assert {m: _package_imports(m) - ok for m, ok in allowed.items()} == {m: set() for m in allowed}
