"""The runtime dependencies in pyproject.toml are exactly the third-party
packages that src/qdlab imports, counting imports inside functions."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_packages(path: pathlib.Path) -> set[str]:
    """Top-level package of every absolute import in the module at `path`, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_src_imports_exactly_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    third_party = {
        path.name: imported_packages(path) - set(sys.stdlib_module_names) - {"qdlab"}
        for path in sorted((ROOT / "src" / "qdlab").rglob("*.py"))
    }
    undeclared = {name: pkgs - declared for name, pkgs in third_party.items() if pkgs - declared}
    assert not undeclared, f"imports missing from [project] dependencies: {undeclared}"
    assert set().union(*third_party.values()) == declared
