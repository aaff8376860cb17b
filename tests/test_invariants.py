"""Built-in inference, comment translation, instrumentation."""

import random
from pathlib import Path

import pytest

from kinduct.driver import KInductionConfig, verify_file
from kinduct.frontend import parse, typecheck
from kinduct.goto_ir import lower
from kinduct.interp import RandomProvider, eval_expr, run_goto
from kinduct.invariants import (
    InvariantError, dump_invariants, find_comments, infer_invariants,
    instrument, rewrite_expression, scan_init_markers, synthesize_snapshots,
    translate_invariants,
)
from conftest import FIG1, compile_mc, corpus_entries


# ---------------------------------------------------------------- inference

def test_analysis_rejects_a_havoc(fig1_goto):
    # Only INDUCTIVE unwindings hold HAVOC, and nothing analyses them.
    from kinduct.transform import Phase, unwind
    with pytest.raises(ValueError, match="HAVOC"):
        infer_invariants(unwind(fig1_goto, 1, Phase.INDUCTIVE).body)


def test_bounded_counter_intervals():
    g = compile_mc("int main() { int i = 0; while (i < 10) { i = i + 1; } return 0; }")
    assert dump_invariants(g, infer_invariants(g)) == "head@1: 0 <= i, i <= 10"


def test_constant_survives_nondet_loop():
    g = compile_mc("""int main() {
      unsigned int x = *;
      unsigned int y = 5;
      while (x > 0) { x = x - 1; y = 5; }
      assert(y == 5);
      return 0;
    }""")
    assert "y == 5" in dump_invariants(g, infer_invariants(g))


def test_fig1_unsigned_lower_bound(fig1_goto):
    assert dump_invariants(fig1_goto, infer_invariants(fig1_goto)) == "head@1: 0 <= x"


def test_variable_difference_detected():
    g = compile_mc("""int main() {
      unsigned int x = *;
      unsigned int y = x;
      while (x > 0) { x = x - 1; y = y - 1; }
      assert(y == 0);
      return 0;
    }""")
    assert "x == y" in dump_invariants(g, infer_invariants(g))


def test_variable_sum_detected():
    g = compile_mc("""int main() {
      unsigned int i = 0;
      unsigned int j = 10;
      while (i < 10) { i = i + 1; j = j - 1; }
      assert(j == 0);
      return 0;
    }""")
    assert "i + j == 10" in dump_invariants(g, infer_invariants(g))


def test_inference_sound_at_8bit_by_enumeration():
    """Instrumented assumes never cut an execution: exhaustively checked."""
    from kinduct import oracle
    from kinduct.frontend import override_widths
    src = """int main() {
      unsigned char n = __VERIFIER_nondet_uchar() % 16;
      unsigned char i = 0;
      while (i < n) { i = i + 1; }
      assert(i == n);
      return 0;
    }"""
    g = lower(typecheck(override_widths(parse(src), 8)))
    gi = instrument(g, infer_invariants(g))
    res = oracle.explore(gi, k=None)
    assert res.blocked == 0
    assert not res.violated


def test_instrument_inserts_assumes(fig1_goto):
    inv = infer_invariants(fig1_goto)
    gi = instrument(fig1_goto, inv)
    assumes = [ins for ins in gi.instructions if ins.op == "ASSUME"]
    assert len(assumes) == 1
    assert len(gi.instructions) == len(fig1_goto.instructions) + 1


def test_instrument_empty_set_is_identity(fig1_goto):
    from kinduct.invariants import InvariantSet
    from kinduct.goto_ir import dump_goto
    gi = instrument(fig1_goto, InvariantSet())
    assert dump_goto(gi) == dump_goto(fig1_goto)


def test_soundness_sampling_on_corpus():
    """Random concrete runs never falsify an instrumented assume.

    A source-level assume may legitimately block, so each run is replayed
    on the plain program with the same draws; only a block introduced by
    instrumentation is a failure.
    """
    from kinduct.interp import SequentialProvider
    rng = random.Random(7)
    for path, _expected, _cat in corpus_entries():
        g = compile_mc(path.read_text(), width=8)
        gi = instrument(g, infer_invariants(g))
        for _ in range(40):
            draws = [rng.randrange(256) for _ in range(16)]
            plain = run_goto(g, SequentialProvider(draws), max_steps=100_000)
            inst = run_goto(gi, SequentialProvider(draws), max_steps=100_000)
            if plain.status != "BLOCKED":
                assert inst.status != "BLOCKED", path.name
                assert inst.status == plain.status, path.name


GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_invariants.txt"


def invariant_dump(programs) -> str:
    """dump_invariants of each (name, source) at native and 8-bit width."""
    out = []
    for name, source in programs:
        for width in (None, 8):
            g = compile_mc(source, width=width)
            out.append(f"== {name} {'native' if width is None else f'{width}-bit'}")
            text = dump_invariants(g, infer_invariants(g))
            if text:
                out.append(text)
    return "\n".join(out) + "\n"


def corpus_invariant_dump() -> str:
    return invariant_dump((path.name, path.read_text())
                          for path, _expected, _cat in corpus_entries())


def test_corpus_invariants_match_golden():
    """The analysis' results on the corpus are pinned.  A change that
    means to alter them re-records the file, from the repository root:
    PYTHONPATH=src:tests python -c "import test_invariants as t;
    t.GOLDEN.write_text(t.corpus_invariant_dump())"
    """
    assert corpus_invariant_dump() == GOLDEN.read_text()


# Loop shapes the corpus lacks, each a program on its own.
LOOP_SHAPES = {
    "if_else_step": """int main() {
      unsigned int i = 0;
      unsigned int n = *;
      while (i < 100) {
        if (n > 5) { i = i + 1; } else { i = i + 2; }
      }
      return 0;
    }""",
    "inner_entry_per_outer": """int main() {
      int i = 0;
      int j = 0;
      while (i < 5) {
        j = i;
        while (j < 5) { j++; }
        i = i + 1;
      }
      return 0;
    }""",
    "three_deep": """int main() {
      unsigned int a = 0;
      unsigned int b = 0;
      unsigned int c = 0;
      unsigned int t = 0;
      while (a < 3) {
        b = 0;
        while (b < 4) {
          c = 0;
          while (c < 2) { c = c + 1; t = t + 1; }
          b = b + 1;
        }
        a = a + 1;
      }
      return 0;
    }""",
    "assume_assert_in_body": """int main() {
      int x = *;
      int y = 0;
      while (y < 10) {
        assume(x > 0 && x < 50);
        assert(x != 0);
        x = 20;
        y = y + 1;
      }
      return 0;
    }""",
    "after_infeasible_branch": """int main() {
      unsigned int x = 3;
      unsigned int y = 0;
      if (x > 5) {
        while (y < 4) { y = y + 1; }
      }
      while (x > 0) { x = x - 1; }
      assume(x > 5);
      while (y < 2) { y = y + 1; }
      return 0;
    }""",
    "do_while_holding_while": """int main() {
      unsigned int i = 0;
      unsigned int j = 0;
      unsigned int s = 0;
      do {
        j = 0;
        while (j < i) { j = j + 1; s = s + 1; }
        i = i + 1;
      } while (i < 4);
      return 0;
    }""",
    "wrapping_char_counters": """int main() {
      unsigned char u = 250;
      signed char c = 120;
      unsigned char d = 0;
      unsigned int n = *;
      while (n > 0) { u = u + 1; c = c + 1; n = n - 1; }
      while (d != 10) { d = d - 1; }
      return 0;
    }""",
    "compound_guards": """int main() {
      int i = 0;
      int j = *;
      while (i < 10 && j != 3) { i = i + 1; }
      while (i < 20 || j > 2) { i = i + 1; j = j - 1; }
      while (i != 30) { i = i + 1; }
      return 0;
    }""",
    "while_true": """int main() {
      unsigned int x = 0;
      while (1) {
        if (x < 10) { x = x + 1; } else { x = 0; }
        assert(x <= 10);
      }
      return 0;
    }""",
    "two_in_sequence": """int main() {
      unsigned int i = 0;
      unsigned int j = 0;
      while (i < 10) { i = i + 1; }
      j = i;
      while (j > 0) { j = j - 1; }
      return 0;
    }""",
}

SHAPES_GOLDEN = GOLDEN.parent / "loop_shape_invariants.txt"


def test_loop_shape_invariants_match_golden():
    """Re-recorded, from the repository root, with
    PYTHONPATH=src:tests python -c "import test_invariants as t;
    t.SHAPES_GOLDEN.write_text(t.invariant_dump(t.LOOP_SHAPES.items()))"
    """
    assert invariant_dump(LOOP_SHAPES.items()) == SHAPES_GOLDEN.read_text()


# ------------------------------------------------- Algorithm 1: golden suite

CANON_IN = """int run(int w, int x) {
  // P(w,x) {w==0, x#init>10}
  while (x > 0) {
    x = x - 1;
  }
  assert(w == 0);
  return x;
}

int main() {
  return run(0, 20);
}
"""

CANON_OUT = """int run(int w, int x) { int x_init = x;
  __ESBMC_assume(w==0 && x_init>10);
  while (x > 0) {
    x = x - 1;
  }
  assert(w == 0);
  return x;
}

int main() {
  return run(0, 20);
}
"""


def test_golden_1_canonical_translation():
    assert translate_invariants(CANON_IN) == CANON_OUT


def test_golden_2_no_comments_is_identity():
    assert translate_invariants(FIG1) == FIG1


def test_golden_3_three_constraints_two_ands():
    src = "int f(int a) {\n  // P(a) {a>0, a<10, a!=5}\n  return a;\n}\nint main() { return f(1); }\n"
    out = translate_invariants(src)
    assert "__ESBMC_assume(a>0 && a<10 && a!=5);" in out


def test_golden_4_empty_constraints_no_statement():
    src = "int main() {\n  int x = 0;\n  // P(x) {}\n  return 0;\n}\n"
    out = translate_invariants(src)
    assert "__ESBMC_assume" not in out
    assert "P(x)" not in out


def test_golden_5_literal_adjacency_rewrite():
    src = "int f(int j, int t) {\n  // P(j,t) {2j < 5t}\n  return j + t;\n}\nint main() { return f(1, 1); }\n"
    assert "__ESBMC_assume(2*j < 5*t);" in translate_invariants(src)


def test_golden_6_two_marked_vars_order():
    src = ("int run(int a, int b) {\n"
           "  // P(a,b) {a#init<=b, b#init>=0}\n"
           "  while (a < b) { a = a + 1; }\n"
           "  return a;\n"
           "}\n\nint main() { return run(1, 5); }\n")
    out = translate_invariants(src)
    ai, bi = out.index("int a_init = a;"), out.index("int b_init = b;")
    assert ai < bi
    assert "__ESBMC_assume(a_init<=b && b_init>=0);" in out


def test_golden_7_marked_parameter_type():
    src = ("unsigned char f(unsigned char u) {\n"
           "  // P(u) {u#init<=200}\n"
           "  return u;\n"
           "}\nint main() { return f(3); }\n")
    assert "unsigned char u_init = u;" in translate_invariants(src)


def test_golden_8_repeated_marker_single_snapshot():
    src = ("int f(int x) {\n"
           "  // P(x) {x#init>0}\n"
           "  x = x - 1;\n"
           "  // P(x) {x < x#init}\n"
           "  return x;\n"
           "}\nint main() { return f(2); }\n")
    out = translate_invariants(src)
    assert out.count("int x_init = x;") == 1
    assert "__ESBMC_assume(x_init>0);" in out
    assert "__ESBMC_assume(x < x_init);" in out


def test_golden_9_malformed_comment_skipped_and_reported():
    src = "int main() {\n  int x = 0;\n  // P(x) {x==0\n  return 0;\n}\n"
    problems = []
    out = translate_invariants(src, problems)
    assert out == src
    assert problems == [(3, "malformed invariant comment: // P(x) {x==0")]


def test_golden_10_unknown_marked_variable_errors():
    src = "int main() {\n  int x = 0;\n  // P(q) {q#init>0}\n  return 0;\n}\n"
    with pytest.raises(InvariantError) as exc:
        translate_invariants(src)
    assert "q" in str(exc.value) and "3" in str(exc.value)


LOCAL_INIT = """int main() {
  int x = 5;
  // P(x) {x#init == 5}
  while (x < 8) {
    x = x + 1;
  }
  assert(x == 8);
  return 0;
}
"""


def test_init_marker_on_a_local_follows_its_declaration(tmp_path):
    out = translate_invariants(LOCAL_INIT)
    assert out.splitlines()[1] == "  int x = 5; int x_init = x;"
    assert out.count("\n") == LOCAL_INIT.count("\n")
    f = tmp_path / "local.mc"
    f.write_text(LOCAL_INIT)
    verdicts = {(v.status, v.decided_by, v.k_at_decision) for v in (
        verify_file(str(f), KInductionConfig(invariants_mode=mode))
        for mode in ("none", "comments"))}
    assert verdicts == {("TRUE", "FORWARD", 3)}


def test_init_marker_on_a_local_declared_below_errors():
    src = ("int main() {\n  // P(x) {x#init == 5}\n  int x = 5;\n"
           "  return 0;\n}\n")
    with pytest.raises(InvariantError, match="line 2 .* line 3"):
        translate_invariants(src)


def test_init_marker_on_a_for_header_variable_errors():
    # The snapshot would land inside the header, after its first ';'.
    src = ("int main() {\n  for (int i = 0; i < 3; i++) {\n"
           "    // P(i) {i#init == 0}\n  }\n  return 0;\n}\n")
    with pytest.raises(InvariantError, match="line 3 .* for header on line 2"):
        translate_invariants(src)


def test_golden_11_idempotent():
    once = translate_invariants(CANON_IN)
    assert translate_invariants(once) == once


def test_golden_12_two_functions_independent():
    src = ("int f(int u) {\n  // P(u) {u#init>0}\n  return u;\n}\n"
           "int g(int v) {\n  // P(v) {v#init<0}\n  return v;\n}\n"
           "int main() { return f(1) + g(-1); }\n")
    out = translate_invariants(src)
    assert "int u_init = u;" in out and "int v_init = v;" in out
    assert "__ESBMC_assume(u_init>0);" in out
    assert "__ESBMC_assume(v_init<0);" in out


# ------------------------------------------------------------ sub-operations

def test_scan_init_markers_paper_pattern():
    src = "int f(int w, int x) {\n  int t = 0;\n  t = w;\n  t = t + 1;\n  t = t + 2;\n  t = t + 3;\n  // P(w,x) {w==0, x#init>10}\n  return t;\n}\nint main() { return f(0, 11); }\n"
    assert scan_init_markers(src) == {7: ["x"]}


def test_scan_init_markers_empty():
    assert scan_init_markers("int main() { return 0; }\n") == {}


def test_scan_init_markers_two_vars():
    src = "// P(a,b) {a#init<=b, b#init>=0}\n"
    assert scan_init_markers(src) == {1: ["a", "b"]}


@pytest.mark.parametrize("raw,expect", [
    ("2j < 5t", "2*j < 5*t"),
    ("w==0", "w==0"),
    ("x#init>10", "x_init>10"),
    ("3a+2b <= 7c", "3*a+2*b <= 7*c"),
    ("10 < 2", "10 < 2"),
])
def test_rewrite_expression(raw, expect):
    assert rewrite_expression(raw) == expect


def test_rewrite_is_fixpoint_on_valid_c():
    for s in ("a*b + 3", "x_init>10", "2*j < 5*t", "a && b || !c"):
        assert rewrite_expression(s) == s


def test_rewrite_output_reparses():
    from kinduct.frontend import lex
    for raw in ("2j < 5t", "x#init>10", "3a+2b <= 7c"):
        lex(rewrite_expression(raw))   # must tokenize cleanly


def test_synthesize_snapshots_identity_without_markers():
    assert synthesize_snapshots(CANON_IN, {}) == CANON_IN


def test_find_comments():
    (c,) = find_comments(CANON_IN)
    assert c.line == 2
    assert "P(w,x)" in c.raw and "x#init>10" in c.raw


def test_translated_source_feeds_the_pipeline():
    """Comment-mode output must parse, typecheck and lower."""
    g = lower(typecheck(parse(translate_invariants(CANON_IN))))
    assumes = [i for i in g.instructions if i.op == "ASSUME"]
    assert assumes
