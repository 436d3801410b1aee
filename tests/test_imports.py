"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "incidences"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the source's imports that no other node reads.

    ``from __future__`` imports bind nothing.  A dotted ``import a.b`` binds
    ``a``.  A name counts as used when it is read as a bare name anywhere,
    annotations included.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_checker_sees_a_dead_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import isqrt, gcd as g\nx: sys.X = os.sep\n")
    assert unused_imports(source) == ["isqrt", "g"]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
