"""The runtime dependency stays numpy only: every import in the package is
from the standard library, numpy, or the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

import qsm

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or package-relative
            for name in names:
                if name.split(".")[0] not in ALLOWED:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in deps] == ["numpy"]


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_has_no_unused_imports():
    """Every name a module imports is used in it; names in ``__all__`` count as used."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def _referenced_names(tree: ast.Module) -> set:
    """Names a module refers to, outside the definition bearing each name and ``__all__``.

    A reference is a name, an attribute, an imported name or a string equal to
    the name (the bench tracer looks functions up by their string names).
    """
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        if isinstance(top, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
        ):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_public_name_has_a_caller_outside_tests():
    """No public top-level function or class in ``src/qsm`` is there only for tests."""
    package = Path(qsm.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sources = sorted(package.glob("*.py"))
    assert sources
    callers = sorted(bench.rglob("*.py"))
    assert callers
    referenced = set()
    for path in sources + callers:
        referenced |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    offenders = []
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_") and node.name not in referenced:
                    offenders.append(f"{path.name}:{node.lineno}: {node.name}")
    assert offenders == []
