"""The oracles of tests/oracles.py are a code path of their own: agreement
with the package means something only while they import nothing from it."""

import ast
from pathlib import Path


def imported_modules(source: str) -> list:
    """Top-level names of the modules that ``source`` imports; a relative
    import reads as "." (it can only reach into a package)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." if node.level else node.module.split(".")[0])
    return names


def test_oracles_import_no_hsflow():
    names = imported_modules((Path(__file__).parent / "oracles.py").read_text())
    assert "numpy" in names
    assert "hsflow" not in names and "." not in names


def test_planted_imports_are_seen():
    for line in ("import hsflow", "import hsflow.exterior as ex",
                 "from hsflow import triple_algebra", "from hsflow.exterior import wedge_sign"):
        assert "hsflow" in imported_modules("def f():\n    " + line)
    assert "." in imported_modules("from . import exterior")
