"""The public surface: every exported or documented name resolves."""

import ast
import importlib
import pathlib
import re

import pytest

import fetv

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("dtv", "images", "mesh", "metrics", "operators", "solvers",
           "spaces")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fetv.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_are_exported():
    """Each name fetv/__init__.py imports from a submodule is in that
    module's __all__."""
    tree = ast.parse(pathlib.Path(fetv.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"fetv.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(fetv, alias.asname or alias.name) \
                is getattr(module, alias.name)


def test_readme_names_resolve():
    """Every dotted fetv.<module>.<name> and every name of a
    ``from fetv import`` block in README.md exists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    dotted = re.findall(r"\bfetv\.(\w+)\.(\w+)", text)
    assert dotted
    for module, name in dotted:
        assert hasattr(importlib.import_module(f"fetv.{module}"), name), \
            f"fetv.{module}.{name}"
    blocks = re.findall(r"from fetv import \(([^)]*)\)", text)
    assert blocks
    for block in blocks:
        for name in re.findall(r"\w+", block):
            assert hasattr(fetv, name), name
