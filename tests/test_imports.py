"""Every name a module under ``src/`` imports is used in that module, and every private
module-level name it defines is read somewhere in ``src/``.

A stdlib ``ast`` scan, so it needs no linter: an import left behind when
its last use goes fails here.  A name counts as used where it is read as a
name anywhere in the module, or where it is listed in ``__all__``.
``from __future__`` imports are exempt.  Likewise a private helper (``_x``,
not a dunder) whose last reader goes fails here: it counts as read where
any ``src/`` module reads it as a name, as an attribute or in an import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of a module's source that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["line 1: math"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text("utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names that the modules' sources define and none of them reads.

    ``sources`` maps a module's name to its source.  A name is defined by a
    top-level ``def``, ``class`` or assignment, and read as a loaded name,
    an attribute (``cgio._x``) or an imported name (``from .io import _x``).
    """
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in ast.walk(node)
                           if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            else:
                continue
            defined.update((name, f"{module}: {name}") for name in targets if _private(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for name, where in defined.items() if name not in read)


def test_the_scan_finds_an_unread_private_name():
    assert (unread_private_names({"a": "def _f(): pass\n_X = 1\n__all__ = []\n"})
            == ["a: _X", "a: _f"])
    assert unread_private_names({"a": "def _f(): pass\n_f()\n", "b": "from a import _g\n",
                                 "c": "_g, _h = 1, 2\nimport b\nb._h\n"}) == []
    assert unread_private_names({"a": "_X: int = 1\nclass _C:\n    _y = 1\n"}) == ["a: _C", "a: _X"]


def test_every_private_name_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text("utf-8") for p in MODULES}
    assert unread_private_names(sources) == []
