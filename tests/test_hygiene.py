"""Source hygiene checks that need no linter: every name a module of the
package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kinduct"


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in `source` that no
    expression of the module reads (`__future__` imports excepted)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\n"
              "from x import a, b as c, d\n"
              "def f(v: a) -> None:\n    return os.path.join(c)\n")
    assert unused_imports(source) == ["d", "re"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []
