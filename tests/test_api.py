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


def _references(path):
    """The names a source file uses: identifiers, attribute names and
    string constants (the bench hooks name their targets), leaving out
    the ``__all__`` lists; def and class statements are no references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
              for node in ast.walk(stmt)}
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_exported_names_have_a_caller():
    """Each name in a module's __all__ is used in src/fetv/ or bench/,
    beyond its definition, its __all__ entry and the package's re-export,
    so code that only tests call does not come back into the library."""
    files = [path for path in (ROOT / "src" / "fetv").glob("*.py")
             if path.name != "__init__.py"] + list((ROOT / "bench").glob("*.py"))
    used = {name for path in files for name in _references(path)}
    unused = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(f"fetv.{module}").__all__
              if name not in used]
    assert not unused


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


def test_readme_quick_start_runs(capsys):
    """README.md's ```python block runs as written and prints its two
    lines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_cli_examples_parse():
    """Every ``fetv <subcommand>`` line of README.md's shell blocks, with
    its continuation lines, is accepted by the CLI parser."""
    from fetv.cli import build_parser

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    commands = [re.sub(r"\s+#.*$", "", cmd, flags=re.M).split()
                for block in blocks
                for cmd in block.replace("\\\n", " ").splitlines()
                if cmd.startswith("fetv ")]
    assert {cmd[1] for cmd in commands} == {"denoise", "inpaint", "dtv",
                                            "make-mesh", "add-noise"}
    for cmd in commands:
        build_parser().parse_args(cmd[1:])


def test_module_imports_are_used():
    """Every module-level import of src/fetv/*.py is used in its module,
    except in a statement whose first line ends in ``# noqa: F401``; the
    package's re-exports are checked by test_package_imports_are_exported."""
    unused = []
    for path in sorted((ROOT / "src" / "fetv").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) \
                    or getattr(stmt, "module", None) == "__future__" \
                    or lines[stmt.lineno - 1].endswith("# noqa: F401"):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}: {name}")
    assert not unused
