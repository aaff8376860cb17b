"""Source hygiene checks that need no linter: every name a module of the
package imports is used in that module, every function, class and
method the package defines is read somewhere, and only
`transform.check_deadline` compares the clock with a deadline."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kinduct"


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


def definitions(source: str) -> list:
    """(name, is a method) for every function and class `source` defines,
    nested ones included, dunders excepted."""
    tree = ast.parse(source)
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for m in c.body}
    return [(n.name, id(n) in methods) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def reads(sources) -> tuple:
    """The names the sources read as plain names, and as attributes."""
    names, attrs = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def unread(defined: list, names: set, attrs: set) -> list:
    """The definitions nothing reads.  A method is read only as an
    attribute; a plain name of the same spelling is another thing."""
    return sorted(name for name, method in defined
                  if name not in attrs and (method or name not in names))


def test_scan_finds_unread_definitions():
    source = ("class A:\n    def m(self): pass\n    def n(self): pass\n"
              "    def __len__(self): return 0\n"
              "def f():\n    def g(): pass\n    n = 1\n    return A().m, n\n"
              "def h(): return f()\n")
    assert unread(definitions(source), *reads([source])) == ["g", "h", "n"]


def test_every_definition_is_read():
    defined = [d for path in sorted(SRC.glob("*.py"))
               for d in definitions(path.read_text())]
    sources = [path.read_text() for top in ("src", "tests", "kbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(defined) > 300
    assert unread(defined, *reads(sources)) == []


def clock_comparisons(source: str) -> list:
    """The innermost enclosing function (None: module level) of every
    comparison in `source` that calls `monotonic`, in walk order."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):   # outer functions first: inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(n), fn.name) for n in ast.walk(fn))
    return [owner.get(id(c)) for c in ast.walk(tree) if isinstance(c, ast.Compare)
            and any(isinstance(n, ast.Call) and "monotonic" in
                    (getattr(n.func, "attr", None), getattr(n.func, "id", None))
                    for n in ast.walk(c))]


def test_scan_finds_clock_comparisons():
    source = ("import time\nfrom time import monotonic\n"
              "def f(d):\n    def g():\n        return time.monotonic() > d\n"
              "    return time.monotonic() - d\n"
              "late = monotonic() >= 5\n")
    assert clock_comparisons(source) == [None, "g"]


def test_only_check_deadline_reads_the_clock_against_a_deadline():
    found = {path.name: clock_comparisons(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == \
        {"transform.py": ["check_deadline"]}


def test_one_poll_interval():
    names = {getattr(n, "id", None) or getattr(n, "attr", None)
             for path in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert sorted(n for n in names if n.endswith("_PER_CHECK")) == []
