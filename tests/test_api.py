"""The public names: what the package exports and what the benchmark calls."""

import ast
import inspect
import re
import shlex
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


def test_package_exports_exactly_its_modules_public_names():
    modules = (gcsloc.algebra, gcsloc.cartan, gcsloc.dynamics, gcsloc.observables)
    assert gcsloc.__all__ == sorted(name for module in modules for name in module.__all__)


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


def test_ensembles_take_no_block_size():
    for run in (gcsloc.ensemble_average, gcsloc.ensemble_observables):
        assert list(inspect.signature(run).parameters) == [
            "initial", "h", "rep", "cfg", "n_traj", "record_stride",
        ]


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


README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_quick_tour_runs(capsys):
    (tour,) = _fenced("python")
    exec(compile(tour, "README.md", "exec"), {})
    t_end, uncertainty = map(float, capsys.readouterr().out.split())
    assert t_end == 50.0 and abs(uncertainty - 2.0) < 0.1


def test_readme_commands_parse(tmp_path):
    """Every ``gcsloc`` command of the README parses, with the config file
    its block writes; none is run."""
    commands = 0
    for block in _fenced("sh"):
        block = block.replace("\\\n", " ")
        for name, body in re.findall(r"^cat > (\S+) <<'CFG'\n(.*?)^CFG$", block, re.M | re.S):
            (tmp_path / name).write_text(body)
        for line in re.findall(r"^gcsloc .*$", block, re.M):
            argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in shlex.split(line)[1:]]
            argv[1:1] = gcsloc.cli._config_tokens(argv)
            args = gcsloc.cli.build_parser().parse_args(argv)
            assert args.command == argv[0] and args.algebra
            commands += 1
    assert commands == 5
