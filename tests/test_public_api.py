"""Public-API surface checks: exports resolve, stay importable, and
every export of a guarded package has a caller in program code."""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.radio",
    "repro.oscillator",
    "repro.spanningtree",
    "repro.firefly",
    "repro.discovery",
    "repro.core",
    "repro.mobility",
    "repro.analysis",
    "repro.experiments",
    "repro.protocol",
    "repro.obs",
    "repro.faults",
    "repro.shard",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    """Every name in __all__ must be an attribute of the package."""
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_and_unique(package):
    mod = importlib.import_module(package)
    names = list(mod.__all__)
    assert len(names) == len(set(names)), f"{package}.__all__ has duplicates"


def test_top_level_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_every_public_item_documented():
    """Top-level exports all carry docstrings."""
    import repro

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        assert getattr(obj, "__doc__", None), f"repro.{name} lacks a docstring"


def test_module_docstrings():
    for package in PACKAGES:
        mod = importlib.import_module(package)
        assert mod.__doc__ and mod.__doc__.strip(), f"{package} lacks a docstring"


# ----------------------------------------------------------------------
# every public name of a guarded package has a caller in program code
# ----------------------------------------------------------------------
REPO = pathlib.Path(__file__).resolve().parent.parent
#: Directories holding program code (tests are deliberately absent).
PROGRAM_DIRS = ("src", "benchmarks", "scripts", "examples", "perfbench")
GUARDED_PACKAGES = (
    "repro.core",
    "repro.obs",
    "repro.sim",
    "repro.radio",
    "repro.mobility",
    "repro.shard",
)


def _module_file(module: str) -> pathlib.Path:
    return pathlib.Path(importlib.import_module(module).__file__).resolve()


def _references(path: pathlib.Path, modules: set[str]) -> set[str]:
    """Names this file takes from any of ``modules``, found by AST.

    A name counts when it is imported from one of the modules
    (``from repro.obs import X``) or read as an attribute of one
    (``repro.obs.X``, or ``m.X`` after ``import repro.obs as m`` /
    ``from repro import obs as m``).  Comments and strings never count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if node.module in modules:
                    names.add(alias.name)
                elif f"{node.module}.{alias.name}" in modules:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in aliases or owner in modules:
                names.add(node.attr)
    return names


def _returned_names(path: pathlib.Path) -> set[str]:
    """Names in the return annotations of this file's functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        node.id
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.returns is not None
        for node in ast.walk(func.returns)
        if isinstance(node, ast.Name)
    }


def _unreferenced(package: str) -> list[str]:
    """Exports with no program caller outside their own module.

    Constants (anything not a class or a function) are skipped, and a
    result dataclass counts as used when a program function's return
    annotation names it.
    """
    pkg = importlib.import_module(package)
    program_files = [
        path.resolve()
        for directory in PROGRAM_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
    ]
    returned = set().union(*(_returned_names(path) for path in program_files))
    missing = []
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if not (inspect.isclass(obj) or inspect.isroutine(obj)):
            continue
        if dataclasses.is_dataclass(obj) and name in returned:
            continue
        home = obj.__module__
        excluded = {_module_file(package), _module_file(home)}
        modules = {package, home}
        if not any(
            name in _references(path, modules)
            for path in program_files
            if path not in excluded
        ):
            missing.append(name)
    return missing


@pytest.mark.parametrize("package", GUARDED_PACKAGES)
def test_every_export_has_a_program_caller(package):
    """A name in ``__all__`` must be used by program code outside its own
    module and the package re-export; test-only names do not belong in
    the public surface."""
    assert _unreferenced(package) == []
