"""The runtime dependency stays numpy only: every import in the package is
from the standard library, numpy, or the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

import qsm
from qsm.statespace import CATALOG_NAMES

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


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def test_package_reads_no_environment():
    """No module of the package refers to ``os.environ``, ``os.environb`` or
    ``os.getenv``, as an attribute or imported by name: a run's report
    depends on its inputs alone."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [
                    f"{path.name}:{node.lineno}: from os import {alias.name}"
                    for alias in node.names
                    if alias.name in ENVIRONMENT_READERS
                ]
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


def _private_definitions(tree: ast.Module):
    """``(lineno, name)`` of each private top-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_name_has_a_caller_in_the_package():
    """No private top-level function, class or assigned name in ``src/qsm`` is
    left behind once its last caller in the package is gone."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    referenced = set()
    for tree in trees.values():
        referenced |= _referenced_names(tree)
    offenders = [
        f"{path.name}:{lineno}: {name}"
        for path, tree in trees.items()
        for lineno, name in _private_definitions(tree)
        if name not in referenced
    ]
    assert offenders == []


def test_only_statespace_spells_the_complex_encoding():
    """The string literal ``"imag"`` appears only in ``statespace.py``, home of
    ``encode_complex``, the one JSON encoding of complex arrays."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "statespace.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == "imag"
    ]
    assert offenders == []


def test_only_statespace_lists_catalog_states():
    """No tuple or list literal outside ``statespace.py`` holds two or more
    distinct catalog names, nested literals included: the catalog is the one
    list of example states, and ``qsm verify-corpus`` reads it from there.  A
    single name, as in ``catalog("qutrit_choi")``, is allowed."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "statespace.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Tuple, ast.List))
        and len({
            leaf.value
            for leaf in ast.walk(node)
            if isinstance(leaf, ast.Constant) and leaf.value in CATALOG_NAMES
        }) >= 2
    ]
    assert offenders == []
