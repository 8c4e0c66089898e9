"""Every name a module under ``src/`` imports is used in that module, every private
module-level name it defines is read somewhere in ``src/``, and every public module-level
function or class it defines is read in ``src/`` or named by the README or the benchmark.

A stdlib ``ast`` scan, so it needs no linter: an import left behind when
its last use goes fails here.  A name counts as used where it is read as a
name anywhere in the module, or where it is listed in ``__all__``.
``from __future__`` imports are exempt.  Likewise a private helper (``_x``,
not a dunder) whose last reader goes fails here: it counts as read where
any ``src/`` module reads it as a name, as an attribute or in an import.  A
public helper (``def`` or ``class``) also counts as read where a ``src/``
string holds its name, as the package's lazy export table does, and where
``README.md`` or a ``bench/*.py`` file names it as a word: what a user or the
benchmark's tracer calls stays.  An ``import`` inside a function, which defers
a load from start-up to a call, must be listed in ``DEFERRED`` with its reason,
so that each deferral is a decision on the record, not an accident.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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
        read |= read_names(tree)
    return sorted(where for name, where in defined.items() if name not in read)


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: as a loaded name, an attribute or an imported name."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_finds_an_unread_private_name():
    assert (unread_private_names({"a": "def _f(): pass\n_X = 1\n__all__ = []\n"})
            == ["a: _X", "a: _f"])
    assert unread_private_names({"a": "def _f(): pass\n_f()\n", "b": "from a import _g\n",
                                 "c": "_g, _h = 1, 2\nimport b\nb._h\n"}) == []
    assert unread_private_names({"a": "_X: int = 1\nclass _C:\n    _y = 1\n"}) == ["a: _C", "a: _X"]


def test_every_private_name_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text("utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def orphaned_public_helpers(sources: dict[str, str], docs: str) -> list[str]:
    """The public module-level functions and classes of ``sources`` that no module reads
    and ``docs`` does not name.

    A helper is read as a private name is, or as a string constant; ``docs``
    names it where the name appears in it as a word.
    """
    defined: dict[str, str] = {}
    read = set(re.findall(r"\w+", docs))
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((node.name, f"{module}: {node.name}") for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        read |= read_names(tree)
        read.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return sorted(where for name, where in defined.items() if name not in read)


def test_the_scan_finds_an_orphaned_public_helper():
    sources = {"a": "def f(): pass\nclass C: pass\ndef g(): pass\ndef h(): pass\n_T = {'h': 1}\n",
               "b": "from a import g\n"}
    assert orphaned_public_helpers(sources, "") == ["a: C", "a: f"]
    assert orphaned_public_helpers(sources, "call `f(x)`; C.") == []
    assert orphaned_public_helpers({"a": "def write(): pass\n"}, "write_curve") == ["a: write"]


def test_every_public_helper_is_read_or_named():
    sources = {str(p.relative_to(SRC)): p.read_text("utf-8") for p in MODULES}
    docs = "\n".join(path.read_text("utf-8")
                     for path in [ROOT / "README.md", *sorted((ROOT / "bench").glob("*.py"))])
    assert orphaned_public_helpers(sources, docs) == []


# Each import that a ``src/`` function makes, as (module, function, imported module), and
# why it waits for the call.
DEFERRED = {
    ("cli.py", "_configure_logging", "logging"):
        "--help and usage errors return before logging loads",
    ("cli.py", "_read_artifact", "logging"):
        "--help and usage errors return before logging loads",
    **{("cli.py", "_import_layers", layer): "a command loads numpy and only the layers it runs,"
       " after the usage checks; the tracer wraps them as module globals"
       for layer in (".", ".calibration", ".core_types", ".predictor", ".metrics", ".synth")},
    ("io.py", "load_predictions", ".predictor"): "io loads no layer but core_types",
    ("io.py", "_shuffled_indices", ".rng"): "io loads no layer but core_types",
    **{("io.py", digest, "hashlib"): "simulate and evaluate --predictions compute no digest,"
       " so they skip loading OpenSSL" for digest in ("universe_digest", "file_digest")},
}


def function_imports(module: str, source: str) -> list[tuple[str, str, str]]:
    """Each import inside a function of ``source``, as (module, function, imported module).

    A relative import names its module with its leading dots; ``from . import io``
    names ``.``.  An import nested in an inner function counts for the outer one.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            functions = [n for n in node.body
                         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = [node]
        else:
            continue
        for function in functions:
            for inner in ast.walk(function):
                if isinstance(inner, ast.Import):
                    found += [(module, function.name, alias.name) for alias in inner.names]
                elif isinstance(inner, ast.ImportFrom):
                    found.append((module, function.name,
                                  "." * inner.level + (inner.module or "")))
    return found


def test_the_scan_finds_a_function_level_import():
    source = ("import os\nif os.sep:\n    import json\n"
              "def f():\n    import hashlib\n    from . import io\n"
              "class C:\n    def g(self):\n        from ..a import b\n")
    assert function_imports("m.py", source) == [
        ("m.py", "f", "hashlib"), ("m.py", "f", "."), ("m.py", "g", "..a")]


def test_every_function_level_import_is_listed_with_its_reason():
    found = [entry for path in MODULES
             for entry in function_imports(str(path.relative_to(SRC / "conformal_gate")),
                                           path.read_text("utf-8"))]
    assert [entry for entry in found if entry not in DEFERRED] == []
    assert sorted(set(DEFERRED) - set(found)) == []  # no entry outlives its import
