"""Every name a package module imports is read somewhere in that module, and
every private name a module binds at its top level is read somewhere in the
package: an import or a helper left behind by a deleted code path is dead
weight nothing else reports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "hsflow"


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that no expression
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_planted_unused_imports_are_seen():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c"]
    assert unused_imports("from . import e\ndef f():\n    return e.g\n") == []
    assert unused_imports("import a.b\na.b.f()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def private_names(source: str) -> list:
    """Private names that ``source`` binds at its top level: ``_X = ...``,
    ``def _f`` and ``class _C``; dunder names are not private."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: list) -> list:
    """The private top-level names of ``sources`` that no expression in any
    of them reads, bare (``_f``) or as an attribute (``m._f``)."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [name for source in sources for name in private_names(source) if name not in read]


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def test_planted_unread_private_names_are_seen():
    assert unread_private_names(["_BLOCK = 4 << 20\n_USED = 1\nprint(_USED)\n"]) == ["_BLOCK"]
    assert unread_private_names(["def _f():\n    pass\nclass _C:\n    pass\n",
                                 "import m\nm._C()\n"]) == ["_f"]
    assert unread_private_names(["_a, _b = 1, 2\n__all__ = []\nx = _b\n"]) == ["_a"]
    assert unread_private_names(["_x: int = 0\ndef g():\n    global _x\n    _x = 1\n"]) == ["_x"]
