"""Stdlib checks of the package source, since no linter ships with the
test environment.

* Every module-level import of a package module is read in that module
  (pyflakes' unused-import rule); ``__init__`` re-exports its imports and
  is not checked.
* Every private module-level function, class or constant of the package
  is read somewhere in the package, so a helper that code deletions leave
  behind fails here.
* Every package file parses as Python 3.10, the oldest version the package
  supports (``ast``'s ``feature_version``, a check of syntax only)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "acbott"
FILES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]
OLDEST = (3, 10)


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


def _reads(node) -> set[str]:
    """The names that expressions under ``node`` read, by name or as an
    attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    }


def unread_private_names(sources) -> list[str]:
    """The private names (one leading underscore) that a module-level
    ``def``, ``class`` or assignment of ``sources`` binds and that no other
    module-level statement of any of them reads: a helper read only by its
    own body counts as unread."""
    bound, read = [], set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            bound += names
            read |= _reads(node) - set(names)
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_checker_finds_an_unread_private_name():
    first = ("import numpy as np\n\n_USED, _SPARE = 1, 2\n_LEFT: int = 3\n\n\n"
             "def _helper():\n    return _USED\n\n\ndef _orphan():\n    return _orphan()\n")
    second = "from . import first\n\nx = first._helper()\n"
    assert unread_private_names([first, second]) == ["_SPARE", "_LEFT", "_orphan"]


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text() for p in FILES]) == []


def test_checker_finds_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=OLDEST)


@pytest.mark.parametrize("module", FILES, ids=lambda p: p.stem)
def test_parses_as_the_oldest_python(module):
    ast.parse(module.read_text(), feature_version=OLDEST)
