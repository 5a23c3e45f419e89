"""Every module of the package uses each name it imports and each private
name it defines, and no name the package exports hides one of its modules.

`__init__.py` is exempt: it imports names only to re-export them.
"""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadseq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def unused_private_names(source: str) -> list[str]:
    """Module-level names starting with one underscore that nothing else in
    the module reads: a private name no one reads is dead code."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_checker_finds_an_unused_private_name():
    source = (
        "_LIMIT = 3\n_seen: dict = {}\n_a, _b = 1, 2\n"
        "def _helper():\n    return _LIMIT\n"
        "def _dead():\n    global _seen\n    _seen = {}\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _helper() + _a\n"
    )
    assert unused_private_names(source) == ["_Unused", "_b", "_dead", "_seen"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_reads_each_private_name_it_defines(module):
    assert unused_private_names(module.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == ["argv", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_package_attribute_shadows_a_submodule(module):
    # `import quadseq.search as S` binds whatever the package's `search` attribute is
    submodule = importlib.import_module(f"quadseq.{module.stem}")
    assert getattr(importlib.import_module("quadseq"), module.stem) is submodule
