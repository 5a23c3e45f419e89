"""Every module of the package uses each name it imports, and no name the
package exports hides one of its modules.

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
