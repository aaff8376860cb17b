"""SSA conversion and per-phase formula shapes."""

import time

import pytest

from kinduct import oracle
from kinduct.driver import FALSE, KInductionConfig, load_program, verify_file
from kinduct.frontend import Var, pp_expr
from kinduct.solver import SAT, UNSAT, bitblast, solve
from kinduct.transform import DeadlineExceeded, Phase, unwind
from kinduct.vcgen import dump_ssa, encode, to_ssa
from conftest import (
    COUNT_UP, FIG1, compile_mc, corpus_entries, corpus_path, satisfies,
)


def check(source, k, phase, width=8):
    g = compile_mc(source, width=width)
    f = encode(to_ssa(unwind(g, k, phase)), phase)
    return solve(bitblast(f)), f


def test_fig1_ssa_chain_golden(fig1_goto):
    s = to_ssa(unwind(fig1_goto, 2, Phase.BASE))
    lines = dump_ssa(s).splitlines()
    assert lines[0] == "x!0 = nd0"
    assert lines[1] == "x!1 = x!0 > 0 ? x!0 - 1 : x!0"
    # the freshest guard conjunct comes first
    assert lines[2] == "x!2 = x!1 > 0 && x!0 > 0 ? x!1 - 1 : x!1"


def test_draw_names_carry_context():
    top = compile_mc("int main() { int v = __VERIFIER_nondet_char(); return 0; }")
    s = to_ssa(unwind(top, 1, Phase.BASE))
    assert sorted(s.draw_symbols) == ["nd0"]

    looped = compile_mc("""int main() {
      int i = 0;
      while (i < 2) {
        int v = __VERIFIER_nondet_char();
        i = i + 1;
      }
      return 0;
    }""")
    s = to_ssa(unwind(looped, 2, Phase.BASE))
    assert sorted(s.draw_symbols) == ["nd0@1", "nd0@2"]


def test_definitions_carry_over_and_goal_negates_property(count_up_goto):
    fs = {ph: encode(to_ssa(unwind(count_up_goto, 1, ph)), ph) for ph in Phase}
    for f in fs.values():
        # the initial value is a definition in every phase
        assert [(n, pp_expr(e)) for n, e in f.definitions[:1]] == [("i!0", "0")]
        assert f.goal.op == "!"
    base_defs = {n for n, _ in fs[Phase.BASE].definitions}
    ind_defs = {n for n, _ in fs[Phase.INDUCTIVE].definitions}
    assert "i!1" in base_defs
    assert "i!1" not in ind_defs and "i!1" in fs[Phase.INDUCTIVE].symbols
    # FORWARD negates sigma and phi together, BASE negates phi alone
    assert fs[Phase.FORWARD].goal.operand.op == "&&"
    assert fs[Phase.BASE].goal.operand.op == "||"


def test_assert_false_is_sat():
    out, f = check("int main() { assert(0); return 0; }", 1, Phase.BASE)
    assert out.status == SAT
    assert satisfies(f, out.model)


def test_assert_true_is_unsat():
    out, _ = check("int main() { assert(1); return 0; }", 1, Phase.BASE)
    assert out.status == UNSAT


def test_assume_shields_later_assert_only():
    shielded = """int main() {
      unsigned char x = *;
      __VERIFIER_assume(x < 5);
      assert(x < 10);
      return 0;
    }"""
    out, _ = check(shielded, 1, Phase.BASE)
    assert out.status == UNSAT

    too_late = """int main() {
      unsigned char x = *;
      assert(x < 10);
      __VERIFIER_assume(x < 5);
      return 0;
    }"""
    out, f = check(too_late, 1, Phase.BASE)
    assert out.status == SAT
    # the witness ignores the trailing assume entirely
    assert any(v >= 10 for s, v in out.model.items() if s.startswith("x!"))


def test_in_loop_assert_found_at_matching_depth():
    src = """int main() {
      int i = 0;
      while (i < 10) {
        assert(i != 3);
        i = i + 1;
      }
      return 0;
    }"""
    out3, _ = check(src, 3, Phase.BASE)
    assert out3.status == UNSAT
    out4, f4 = check(src, 4, Phase.BASE)
    assert out4.status == SAT
    assert out4.model["i!3"] == 3


def test_fig1_inductive_k1_unsat(fig1_goto):
    f = encode(to_ssa(unwind(fig1_goto, 1, Phase.INDUCTIVE)), Phase.INDUCTIVE)
    assert solve(bitblast(f)).status == UNSAT


def test_forward_includes_sigma_in_property(fig1_goto):
    f = encode(to_ssa(unwind(fig1_goto, 1, Phase.FORWARD)), Phase.FORWARD)
    assert solve(bitblast(f)).status == SAT    # one copy never exhausts x = *
    fb = encode(to_ssa(unwind(fig1_goto, 1, Phase.BASE)), Phase.BASE)
    assert solve(bitblast(fb)).status == UNSAT


@pytest.mark.parametrize("name", [
    "fig1_bug.mc", "assert_inside.mc", "wrap_bug.mc", "count_up.mc",
])
def test_base_equisatisfiable_with_oracle(name):
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    g = load_program(str(corpus_path(name)), cfg)
    ex = oracle.explore(g, 5)
    for k in range(1, 6):
        f = encode(to_ssa(unwind(g, k, Phase.BASE)), Phase.BASE)
        out = solve(bitblast(f))
        assert (out.status == SAT) == (not ex.base_holds(k)), (name, k)


def test_to_ssa_rejects_backjumps(fig1_goto):
    # a tree that still holds its loop cannot be converted
    u = unwind(fig1_goto, 1, Phase.BASE)
    u.tree = fig1_goto.tree
    with pytest.raises(TypeError, match="loop-free"):
        to_ssa(u)


def test_obligations_keep_source_locations(fig1_goto):
    s = to_ssa(unwind(fig1_goto, 1, Phase.BASE))
    (_, loc) = s.obligations[0]
    assert loc.line == 6


def test_eval_formula_matches_solver_verdict():
    out, f = check(
        "int main() { unsigned char a = *; assert(a + 1 != 7); return 0; }",
        1, Phase.BASE)
    assert out.status == SAT
    assert satisfies(f, out.model)
    draws = [v for s, v in out.model.items() if s.startswith("nd")]
    assert any((v + 1) & 0xFF == 7 for v in draws)


def test_stutter_shadows_alias_the_current_version():
    """A shadow gets no free fallback version: its one definition is the
    loop variable's version current at the store."""
    for path, _expected, _cat in corpus_entries():
        s = to_ssa(unwind(compile_mc(path.read_text()), 3, Phase.INDUCTIVE))
        defined = dict(s.definitions)
        assert not [n for n in s.symbols
                    if "__pre_" in n and n not in defined], path.name
        order = list(s.symbols)
        for name, rhs in s.definitions:
            if "__pre_" not in name:
                continue
            var = name.split("__pre_")[0]
            versions = [n for n in order[:order.index(name)]
                        if n.rsplit("!", 1)[0] == var]
            assert isinstance(rhs, Var) and rhs.name == versions[-1], (
                path.name, name, pp_expr(rhs))


@pytest.mark.parametrize("expr,draws", [
    ("x % 8", False), ("x / 2", False), ("x / 0", True), ("x / d", True),
])
def test_divide_by_zero_draw_only_for_a_divisor_that_can_be_zero(expr, draws):
    s = to_ssa(unwind(compile_mc(f"""int main() {{
      unsigned int x = *;
      unsigned int d = *;
      unsigned int q = {expr};
      return 0;
    }}"""), 1, Phase.BASE))
    assert any(n.startswith("dz") for n in s.draw_symbols) == draws


def test_nondet_divisor_by_zero_replays():
    v = verify_file(str(corpus_path("div_bug.mc")))
    assert (v.status, v.decided_by) == (FALSE, "BASE")
    assert v.counterexample.violated is not None


def ssa_text(s):
    """Everything a consumer reads of an SsaProgram, as comparable text."""
    return (dump_ssa(s), list(s.symbols.items()), list(s.draw_symbols.items()),
            [name for name, _ in s.definitions], pp_expr(s.prop))


@pytest.mark.parametrize("mode", ["none", "builtin"])
def test_resumed_conversion_equals_a_fresh_one(mode):
    # The driver's query order, then a re-check jump, a shallower query
    # (converted in full) and a deeper one after it.
    order = [(Phase.BASE, 1)]
    for k in range(2, 6):
        order += [(Phase.FORWARD, k), (Phase.INDUCTIVE, k), (Phase.BASE, k)]
    order += [(Phase.BASE, 10), (Phase.FORWARD, 3), (Phase.INDUCTIVE, 12),
              (Phase.BASE, 11)]
    resumed = 0
    for path, _, _ in corpus_entries():
        g = load_program(str(path), KInductionConfig(invariants_mode=mode))
        snapshots = {False: None, True: None}   # per phase family
        for phase, k in order:
            family = phase is Phase.INDUCTIVE
            s = to_ssa(unwind(g, k, phase), None, snapshots[family])
            fresh = to_ssa(unwind(g, k, phase))
            assert ssa_text(s) == ssa_text(fresh), (path.name, phase, k)
            assert pp_expr(encode(s, phase).goal) == pp_expr(encode(fresh, phase).goal)
            if s.resumed is not None:
                resumed += 1
                assert s.resumed.k <= k
                assert s.definitions[:len(s.resumed.ssa.definitions)] \
                    == s.resumed.ssa.definitions
            if s.captured is not None:
                assert s.captured.k == k
                snapshots[family] = s.captured
        assert (snapshots[False] is None) == \
            (unwind(g, 1, Phase.BASE).layout is None)
    assert resumed > 100


def test_copy_layout_needs_a_first_loop_without_inner_loops():
    def layout(name, phase=Phase.BASE, k=3):
        g = load_program(str(corpus_path(name)),
                         KInductionConfig(invariants_mode="none"))
        return unwind(g, k, phase).layout
    assert layout("nested_sum.mc") is None        # an inner loop
    assert layout("straightline_safe.mc") is None  # no loop
    # two_loops: a, b initialised, then the first loop; a copy is its body
    assert layout("two_loops.mc") == (2, 1) == layout("two_loops.mc", k=1)
    # INDUCTIVE: one havoc before copy 1, a shadow and a stutter per copy
    assert layout("two_loops.mc", Phase.INDUCTIVE) == (3, 3)
    g = compile_mc("""int main() { unsigned int x = 0; unsigned int c = *;
      if (c) { while (x < 2) { x = x + 1; } }
      while (x < 3) { x = x + 1; }
      assert(x <= 3); return 0; }""")
    assert unwind(g, 3, Phase.BASE).layout is None   # a loop before it
    g = compile_mc("""int main() { unsigned int x = 0; unsigned int c = *;
      if (c) { while (x < 2) { x = x + 1; } }
      assert(x <= 2); return 0; }""")
    assert unwind(g, 3, Phase.BASE).layout is None   # the loop is in an if


def test_checkpoint_serves_one_program_and_phase_family():
    g = compile_mc(FIG1)
    snap = to_ssa(unwind(g, 2, Phase.BASE)).captured
    assert snap.k == 2
    assert to_ssa(unwind(g, 3, Phase.FORWARD), None, snap).resumed is snap
    with pytest.raises(ValueError):
        to_ssa(unwind(g, 3, Phase.INDUCTIVE), None, snap)
    # a second compile of the same source is another program, though
    # the two compare equal
    other = compile_mc(FIG1)
    assert other == g
    with pytest.raises(ValueError):
        to_ssa(unwind(other, 3, Phase.BASE), None, snap)


def test_expired_deadline_stops_a_resumed_conversion():
    g = compile_mc(FIG1)
    snap = to_ssa(unwind(g, 2, Phase.BASE)).captured
    u = unwind(g, 400, Phase.BASE)
    assert to_ssa(u, None, snap).resumed is snap
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        to_ssa(u, time.monotonic() - 1.0, snap)
    assert time.monotonic() - start < 0.5
