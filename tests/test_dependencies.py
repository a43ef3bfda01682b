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


def _top_level_definitions(tree: ast.Module):
    """``(lineno, name)`` of each top-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield node.lineno, name


# Paper results that no command or bench op reaches yet, each with the ROADMAP
# item that wires it into a command.  A name leaves the set once it has a
# caller, so the set only shrinks.
AWAITING_A_COMMAND = {
    "qubit_optimal_merge": "item 12",
    "qutrit_counterexample_report": "item 12",
    "check_ensemble_certificate": "item 15 stage 2",
}


def public_surface_offenders(sources, callers, awaiting) -> list:
    """Offences against "public means reached" in a package.

    ``sources`` are the package's module files and ``callers`` the other files
    whose references count (the bench).  A public name is a top-level
    function, class or assigned name without a leading underscore in a module
    other than ``__init__.py``; its callers are ``callers`` and the package's
    modules other than ``__init__.py``, whose re-exports reach nothing.  An
    offence is a public name without a caller that is not in ``awaiting``, a
    name in ``awaiting`` that has a caller, and a name in ``awaiting`` that
    the package does not define.
    """
    modules = [path for path in sources if path.name != "__init__.py"]
    referenced = set()
    for path in modules + list(callers):
        referenced |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    offenders, defined = [], set()
    for path in modules:
        for lineno, name in _top_level_definitions(ast.parse(path.read_text(), filename=str(path))):
            if name.startswith("_"):
                continue
            defined.add(name)
            if name in awaiting and name in referenced:
                offenders.append(f"{path.name}:{lineno}: {name} has a caller; drop it from the set")
            elif name not in awaiting and name not in referenced:
                offenders.append(f"{path.name}:{lineno}: {name} has no caller")
    offenders += [f"{name} is not defined; drop it from the set" for name in sorted(set(awaiting) - defined)]
    return offenders


def all_assignments(sources) -> list:
    """``file:line`` of each top-level ``__all__`` assignment outside ``__init__.py``."""
    return [
        f"{path.name}:{lineno}"
        for path in sources
        if path.name != "__init__.py"
        for lineno, name in _top_level_definitions(ast.parse(path.read_text(), filename=str(path)))
        if name == "__all__"
    ]


def test_every_public_name_has_a_caller_outside_tests():
    """No public name in ``src/qsm`` is there only for tests or for the
    ``qsm`` re-exports, apart from the paper results awaiting a command."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    callers = sorted((Path(__file__).resolve().parents[1] / "perfbench").rglob("*.py"))
    assert callers
    assert public_surface_offenders(sources, callers, AWAITING_A_COMMAND) == []


def test_only_the_package_init_assigns_all():
    """``qsm.__all__`` is the one list of the package's API: no submodule
    keeps a second one."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    assert all_assignments(sources) == []


def test_public_surface_guard_on_a_written_package(tmp_path):
    """The guard passes a package whose every public name is reached, and
    fails on a name that only ``__init__`` imports, on an awaiting name that
    gains a caller, on an awaiting name that is gone, and on a submodule
    ``__all__``."""
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    core = "LIMIT = 4\n\ndef used():\n    return LIMIT\n\ndef awaited():\n    return 0\n"
    (pkg / "core.py").write_text(core)
    (pkg / "__init__.py").write_text(
        "from .core import awaited, used\n__all__ = ['awaited', 'used']\n"
    )
    (bench / "run.py").write_text("from pkg.core import used\nused()\n")

    def offenders(awaiting=("awaited",)):
        sources = sorted(pkg.glob("*.py"))
        return public_surface_offenders(sources, [bench / "run.py"], set(awaiting))

    assert offenders() == []
    assert offenders(()) == ["core.py:6: awaited has no caller"]
    assert offenders(("awaited", "gone")) == ["gone is not defined; drop it from the set"]
    (pkg / "core.py").write_text(core + "\ndef exported():\n    return 1\n")
    (pkg / "__init__.py").write_text("from .core import awaited, exported, used\n")
    assert offenders() == ["core.py:9: exported has no caller"]
    (pkg / "core.py").write_text(core)
    (pkg / "cli.py").write_text("from .core import awaited\n")
    assert offenders() == ["core.py:6: awaited has a caller; drop it from the set"]
    assert all_assignments(sorted(pkg.glob("*.py"))) == []
    (pkg / "cli.py").write_text("__all__ = ['main']\n\ndef main():\n    return 0\n")
    assert all_assignments(sorted(pkg.glob("*.py"))) == ["cli.py:1"]


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
        for lineno, name in _top_level_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
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


# Thresholds allowed outside the tolerance table of ``numerics.py``, by
# (module file, top-level name), each with the reason it stays.
THRESHOLD_EXEMPTIONS = {
    ("bounds.py", "_MinSpectralNormSolver"): "the h_max solver's iteration constants (ROADMAP item 5)",
    ("merge.py", "DEFAULT_DELTA"): "the user's default cost slack, not a tolerance",
}


def _thresholds(node) -> list:
    """``(lineno, text)`` of each float literal below 1e-3 in absolute value
    and each call of ``tolerance()`` (arithmetic on it included) under ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float) and 0 < abs(sub.value) < 1e-3:
            found.append((sub.lineno, repr(sub.value)))
        elif isinstance(sub, ast.Call) and "tolerance" in (
            getattr(sub.func, "id", None), getattr(sub.func, "attr", None)
        ):
            found.append((sub.lineno, "tolerance()"))
    return found


def threshold_offenders(sources, exemptions) -> list:
    """Thresholds written outside the tolerance table.

    The table is ``numerics.py``'s top-level assignments and its ``tolerance``
    function; a top-level definition named in ``exemptions`` may hold
    thresholds too.  An offence is a threshold (see :func:`_thresholds`)
    anywhere else, and an exemption that is not defined or holds none.
    """
    offenders, used = [], set()
    for path in sources:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            names = [getattr(top, "name", None)] + [
                t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)
            ]
            if path.name == "numerics.py" and (isinstance(top, ast.Assign) or names[0] == "tolerance"):
                continue
            exempt = [(path.name, name) for name in names if (path.name, name) in exemptions]
            found = _thresholds(top)
            if exempt and found:
                used.update(exempt)
            elif not exempt:
                offenders += [f"{path.name}:{lineno}: {text}" for lineno, text in found]
    offenders += [f"{file}: {name} holds no threshold; drop it from the exemptions"
                  for file, name in sorted(set(exemptions) - used)]
    return offenders


def test_every_threshold_is_named_in_the_tolerance_table():
    """No float literal below 1e-3 and no ``tolerance()`` call is left in
    ``src/qsm`` outside the tolerance table of ``numerics``, apart from the
    named exemptions: every threshold is one named level of that table."""
    sources = sorted(Path(qsm.__file__).resolve().parent.glob("*.py"))
    assert sources
    assert threshold_offenders(sources, THRESHOLD_EXEMPTIONS) == []


def test_threshold_guard_on_a_written_package(tmp_path):
    """The guard passes the table and an exempt definition, and names a
    literal, arithmetic on ``tolerance()``, a bare ``tolerance()`` local and
    an exemption that holds no threshold."""
    (tmp_path / "numerics.py").write_text(
        "def tolerance():\n    return 1e-9\n\nTIE = 10 * tolerance()\nCUT = 1e-12\n"
    )
    (tmp_path / "core.py").write_text(
        "from .numerics import TIE, tolerance\n\nSOLVER_STEP = 1e-4\n\n"
        "def check(x):\n    return x > TIE and x < 0.5\n"
    )
    sources = sorted(tmp_path.glob("*.py"))
    exempt = {("core.py", "SOLVER_STEP"): "why"}
    assert threshold_offenders(sources, exempt) == []
    assert threshold_offenders(sources, {}) == ["core.py:3: 0.0001"]
    (tmp_path / "core.py").write_text(
        "from .numerics import tolerance\n\ndef check(x):\n"
        "    tol = tolerance()\n    return x > 10 * tol and x - 1e-6 > -tolerance()\n"
    )
    assert threshold_offenders(sources, exempt) == [
        "core.py:4: tolerance()",
        "core.py:5: 1e-06",
        "core.py:5: tolerance()",
        "core.py: SOLVER_STEP holds no threshold; drop it from the exemptions",
    ]
