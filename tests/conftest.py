"""Shared fixtures: tiny programs and corpus access."""

from pathlib import Path

import pytest

from kinduct.frontend import Binary, Nondet, parse, typecheck, override_widths, walk
from kinduct.goto_ir import LoopItem, items_in, lower
from kinduct.vcgen import eval_formula

CORPUS = Path(__file__).resolve().parents[1] / "src" / "kinduct" / "corpus"
NEGATIVE = Path(__file__).resolve().parent / "negative"

FIG1 = """int main() {
  unsigned int x = *;
  while (x > 0) {
    x = x - 1;
  }
  assert(x == 0);
  return 0;
}
"""

COUNT_UP = """int main() {
  unsigned int i = 0;
  while (i < 10) {
    i = i + 1;
  }
  assert(i == 10);
  return 0;
}
"""

# A superloop: its loop has no loop variable.
SUPERLOOP = """int main() {
  unsigned int x = 0;
  for (;;) {
    assert(x == 0);
  }
  return 0;
}
"""


def compile_mc(source: str, width: int | None = None):
    """Source text -> lowered GotoProgram, optionally at a forced width."""
    prog = parse(source)
    if width is not None:
        prog = override_widths(prog, width)
    return lower(typecheck(prog))


def satisfies(f, model: dict) -> bool:
    """Does `model` give every defined name the value of its definition
    and make the goal of the encoded SsaProgram `f` true?"""
    return (all(eval_formula(expr, model) == model[name]
                for name, expr in f.definitions)
            and eval_formula(f.goal, model) != 0)


def pre_draws(g) -> list:
    """Every draw (a nondet or a division) in a loop's `pre` items.  The
    unwound copies share those items, so there must be none."""
    return [node for loop in items_in(g.tree) if isinstance(loop, LoopItem)
            for item in loop.pre for node in walk(item.instr.expr)
            if isinstance(node, Nondet)
            or isinstance(node, Binary) and node.op in ("/", "%")]


def corpus_path(name: str) -> Path:
    p = CORPUS / name
    assert p.exists(), f"missing corpus file {name}"
    return p


def corpus_entries():
    entries = []
    for line in (CORPUS / "manifest.tsv").read_text().splitlines():
        path, expected, category = line.split("\t")
        entries.append((CORPUS / path, expected, category))
    return entries


@pytest.fixture
def fig1_goto():
    return compile_mc(FIG1)


@pytest.fixture
def count_up_goto():
    return compile_mc(COUNT_UP)
