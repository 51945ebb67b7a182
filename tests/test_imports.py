"""Every name a package module imports is read somewhere in that module: an
import left behind by a deleted code path is dead weight nothing else reports."""

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
