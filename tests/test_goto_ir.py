"""Lowering, do-while peeling, loop discovery."""

import pytest

from kinduct.frontend import parse, typecheck
from kinduct.goto_ir import (
    GotoProgram, LoopItem, dump_goto, free_vars,
    loop_variables, lower,
)
from kinduct.interp import RandomProvider, SequentialProvider, run_ast, run_goto
from conftest import FIG1, compile_mc, corpus_entries

FIG1_GOTO = """\
0: ASSIGN x := *
1: COND_GOTO !(x > 0) -> 4
2: ASSIGN x := x - 1
3: GOTO 1
4: ASSERT x == 0
5: ASSIGN main.ret := 0"""


def count_backjumps(g):
    return sum(1 for i, ins in enumerate(g.instructions)
               if ins.op in ("GOTO", "COND_GOTO") and ins.target < i)


def test_fig1_golden_dump(fig1_goto):
    assert dump_goto(fig1_goto) == FIG1_GOTO


def test_fig1_loop_count(fig1_goto):
    assert count_backjumps(fig1_goto) == 1
    assert len(fig1_goto.loops) == 1
    (loop,) = fig1_goto.loops
    assert loop.backjump > loop.head
    assert fig1_goto.instructions[loop.backjump].target == loop.head


def test_straightline_has_no_backjumps():
    g = compile_mc("int main() { int a = 1; int b = a + 2; assert(b == 3); return 0; }")
    assert count_backjumps(g) == 0
    assert g.loops == []


def test_three_loops_nesting_depths():
    src = """int main() {
      int i = 0;
      int j = 0;
      while (i < 2) { i = i + 1; }
      while (j < 2) {
        int t = 0;
        while (t < 2) { t = t + 1; }
        j = j + 1;
      }
      return 0;
    }
    """
    g = compile_mc(src)
    assert count_backjumps(g) == 3
    assert sorted(l.nesting_depth for l in g.loops) == [0, 0, 1]


def test_backjump_count_matches_loops_on_corpus():
    for path, _expected, _cat in corpus_entries():
        g = compile_mc(path.read_text())
        assert count_backjumps(g) == len(g.loops), path.name


def test_for_normalizes_to_while():
    as_for = compile_mc("""int main() {
      int s = 0;
      int i = 0;
      for (i = 0; i < 4; i = i + 1) { s = s + i; }
      assert(s == 6);
      return 0;
    }""")
    as_while = compile_mc("""int main() {
      int s = 0;
      int i = 0;
      i = 0;
      while (i < 4) { s = s + i; i = i + 1; }
      assert(s == 6);
      return 0;
    }""")
    assert dump_goto(as_for) == dump_goto(as_while)


def test_do_while_peels_one_iteration():
    peeled = compile_mc("int main() { int x = *; do { x = x - 1; } while (x > 0); return 0; }")
    by_hand = compile_mc("int main() { int x = *; x = x - 1; while (x > 0) { x = x - 1; } return 0; }")
    assert dump_goto(peeled) == dump_goto(by_hand)


def test_do_while_peeled_copy_gets_its_own_loop_ids():
    g = compile_mc("""int main() {
      unsigned int x = 0;
      unsigned int i = 0;
      do {
        i = 0;
        while (i < 2) { i = i + 1; }
        for (i = 0; i < 2; i = i + 1) { x = x + i; }
        x = x + 1;
      } while (x < 9);
      return 0;
    }""")
    # the peeled while and for, then the do-while holding its own two
    assert [l.nesting_depth for l in g.loops] == [0, 0, 0, 1, 1]
    assert len({l.loop_id for l in g.loops}) == 5


def test_two_loops_sharing_an_id_are_rejected():
    g = compile_mc("""int main() {
      unsigned int i = 0;
      while (i < 2) {
        unsigned int j = 0;
        while (j < 2) { j = j + 1; }
        i = i + 1;
      }
      return 0;
    }""")
    (outer,) = [item for item in g.tree if isinstance(item, LoopItem)]
    (inner,) = [item for item in outer.body if isinstance(item, LoopItem)]
    inner.loop_id = outer.loop_id
    # Only a bug in the checker can reach this, so it is not a MiniCError.
    with pytest.raises(ValueError, match="loop id"):
        GotoProgram(g.tree, g.symbols)


@pytest.mark.parametrize("x0", range(0, 11))
def test_do_while_equivalence_oracle(x0):
    do_form = "int main() { int x = %d; do { x = x - 1; } while (x > 0); return 0; }" % x0
    peeled = "int main() { int x = %d; x = x - 1; while (x > 0) { x = x - 1; } return 0; }" % x0
    runs = [
        run_ast(typecheck(parse(do_form)), SequentialProvider([])),
        run_goto(compile_mc(do_form), SequentialProvider([])),
        run_goto(compile_mc(peeled), SequentialProvider([])),
    ]
    assert all(r.status == "COMPLETED" for r in runs)
    assert len({r.store["x"] for r in runs}) == 1


def tree_loop(g):
    (loop,) = [item for item in g.tree if isinstance(item, LoopItem)]
    return loop


def test_loop_variables_fig1(fig1_goto):
    assert loop_variables(tree_loop(fig1_goto)) == {"x"}


def test_loop_variables_guard_and_body():
    g = compile_mc("""int main() {
      int c = *;
      int y = 0;
      int z = 7;
      while (c > 0) { y = z; c = c - 1; }
      return 0;
    }""")
    assert loop_variables(tree_loop(g)) == {"c", "y"}


def test_loop_variables_read_only_excluded():
    g = compile_mc("""int main() {
      int n = 3;
      int w = 9;
      int acc = 0;
      while (n > 0) { acc = acc + w; n = n - 1; }
      return 0;
    }""")
    vars_ = loop_variables(tree_loop(g))
    assert "w" not in vars_
    assert vars_ == {"n", "acc"}


def test_loop_variables_include_nested_loops():
    g = compile_mc("""int main() {
      int i = 0;
      int s = 0;
      while (i < 3) {
        int j = 0;
        while (j < i) { s = s + j; j = j + 1; }
        i = i + 1;
      }
      return 0;
    }""")
    outer = tree_loop(g)
    (inner,) = [item for item in outer.body if isinstance(item, LoopItem)]
    assert loop_variables(outer) == {"i", "j", "s"}
    assert loop_variables(inner) == {"i", "j", "s"}


def test_call_inlining_no_calls_left():
    g = compile_mc("""int add(int a, int b) { return a + b; }
    int main() { int r = add(2, add(1, 2)); assert(r == 5); return 0; }""")
    for instr in g.instructions:
        for e in (getattr(instr, "expr", None), getattr(instr, "cond", None)):
            if e is not None:
                assert "Call" not in type(e).__name__


def test_semantic_preservation_on_corpus():
    """AST and GOTO interpretations agree store-for-store.

    8-bit so every corpus loop terminates well inside the step budget;
    a run cut off mid-loop has no comparable final store.
    """
    import random
    from kinduct.frontend import override_widths
    for path, _expected, _cat in corpus_entries():
        prog = typecheck(override_widths(parse(path.read_text()), 8))
        g = lower(prog)
        for seed in (1, 2, 3):
            a = run_ast(prog, RandomProvider(random.Random(seed)))
            b = run_goto(g, RandomProvider(random.Random(seed)))
            assert a.status == b.status, path.name
            assert a.status != "STEP_LIMIT", path.name
            common = set(a.store) & set(b.store)
            for v in common:
                assert a.store[v] == b.store[v], (path.name, v)


def test_free_vars():
    g = compile_mc("int main() { int a = 1; int b = 2; int c = a + b * a; return 0; }")
    assign = [i for i in g.instructions if i.op == "ASSIGN" and i.var == "c"][0]
    assert free_vars(assign.expr) == {"a", "b"}
