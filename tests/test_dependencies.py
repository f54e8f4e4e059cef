"""``src/repro`` declares exactly what it imports.

Every top-level module an import under ``src/repro`` names is in the
standard library, is ``repro`` itself, or is one of
``[project].dependencies`` in ``pyproject.toml``; and every declared
dependency is imported.  So the package runs on what it declares, and
test-only packages (scipy, hypothesis) stay in the ``dev`` extra.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def declared_dependencies(pyproject: Path) -> set[str]:
    """Names of ``[project].dependencies`` (each distribution declared here
    installs the module of its own name)."""
    project = tomllib.loads(pyproject.read_text())["project"]
    return {re.match(r"\w+", requirement).group(0) for requirement in project["dependencies"]}


def imported_modules(source: str, filename: str) -> list[tuple[str, int]]:
    """``(top-level module, line)`` of every absolute import in a file."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            found.extend((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.module.split(".")[0], node.lineno))
    return found


def third_party_imports(src: Path) -> dict[str, list[str]]:
    """Top-level module -> ``file:line`` sites, for every import under
    ``src`` that is neither the standard library nor the package itself."""
    sites: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src.parent)
        for module, line in imported_modules(path.read_text(), str(path)):
            if module in sys.stdlib_module_names or module == src.name:
                continue
            sites.setdefault(module, []).append(f"{relative}:{line}")
    return sites


def test_src_imports_only_declared_dependencies():
    declared = declared_dependencies(REPO / "pyproject.toml")
    undeclared = {
        module: where for module, where in third_party_imports(SRC).items()
        if module not in declared
    }
    assert not undeclared, (
        "src/repro imports modules missing from [project].dependencies; "
        f"declare them or drop the import: {undeclared}"
    )


def test_every_declared_dependency_is_imported():
    unused = declared_dependencies(REPO / "pyproject.toml") - set(third_party_imports(SRC))
    assert not unused, (
        f"declared but never imported under src/repro (move to an extra): {sorted(unused)}"
    )


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("import networkx as nx", ["networkx"]),
        ("def f():\n    import networkx\n", ["networkx"]),
        ("from scipy.stats import kstest", ["scipy"]),
        ("import os, json\nfrom collections import deque", []),
        ("from __future__ import annotations", []),
        ("from repro.core import sampler\nfrom . import units", []),
    ],
)
def test_scan_finds_third_party_imports(tmp_path, source, expected):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(source)
    assert sorted(third_party_imports(package)) == expected
