"""Every module-level import of a package module is read in that module.

No linter ships with the test environment, so this is the stdlib check of
pyflakes' unused-import rule: an import that code deletions leave behind
fails here.  ``__init__`` re-exports its imports and is not checked."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "acbott"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    expression of it reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from os import path, sep\nimport scipy.linalg\n\n"
              "x = sep + scipy.linalg.__name__\n")
    assert unused_imports(source) == ["np", "path"]
    assert len(MODULES) >= 10  # the package modules are found


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(module):
    assert unused_imports(module.read_text()) == []
