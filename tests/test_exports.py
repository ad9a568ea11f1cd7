"""Every exported name resolves and every import is used, in the package,
the tests and the scripts, so a deletion cannot leave a stale export or a
stale import behind."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import lattower

MODULES = sorted(m.name for m in pkgutil.iter_modules(lattower.__path__, "lattower."))
ROOT = Path(__file__).resolve().parent.parent
# the test and script files, by their path from the repository root
SOURCE_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def test_the_package_exports_resolve():
    assert [name for name in lattower.__all__ if not hasattr(lattower, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def _imported_names(tree):
    """The names each import statement binds, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    """Every name read in the module, quoted annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                yield from _used_names(ast.parse(annotation.value, mode="eval"))


def _source(name):
    """The text of a module, by its name, or of a test or script file, by its path."""
    if name.endswith(".py"):
        return (ROOT / name).read_text()
    return Path(importlib.import_module(name).__file__).read_text()


@pytest.mark.parametrize("name", MODULES + ["lattower"] + SOURCE_FILES)
def test_every_import_is_used_or_exported(name):
    tree = ast.parse(_source(name))
    exported = () if name.endswith(".py") else getattr(importlib.import_module(name), "__all__", ())
    used = set(_used_names(tree)) | set(exported)
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("name", MODULES + ["lattower"] + SOURCE_FILES)
def test_source_lines_are_at_most_100_characters(name):
    lines = _source(name).splitlines()
    assert [(n, len(line)) for n, line in enumerate(lines, 1) if len(line) > 100] == []


# the folders whose code may call a definition of the package
CALLER_FOLDERS = ("src", "scripts", "perfbench", "tests")


def _named(tree):
    """Every name the tree reads or imports: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def _definitions():
    """(module, name, node) of every function, class and method of the package,
    nested ones included, dunders aside."""
    for name in MODULES:
        tree = ast.parse(_source(name))
        for node in ast.walk(tree):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node.name, node


def test_every_definition_is_named_outside_itself():
    named = Counter()
    for folder in CALLER_FOLDERS:
        for path in (ROOT / folder).rglob("*.py"):
            named.update(_named(ast.parse(path.read_text())))
    unnamed = [
        f"{module}.{name}"
        for module, name, node in _definitions()
        if named[name] <= list(_named(node)).count(name)
    ]
    assert unnamed == []
