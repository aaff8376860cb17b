"""Per-phase unwinding and the inductive havoc/store/remove rewrite."""

import pytest

from kinduct import oracle
from kinduct.frontend import pp_expr
from kinduct.goto_ir import (
    IfItem, LoopItem, OpItem, free_vars, items_in, loop_variables,
)
from kinduct.interp import COMPLETED, SequentialProvider, run_goto
from kinduct.invariants import infer_invariants, instrument
from kinduct.transform import (
    Phase, TransformError, dump_unwound, unwind,
)
from conftest import FIG1, compile_mc, corpus_entries, pre_draws


def tags(u):
    return [i.tag for i in u.body.instructions if i.tag]


def test_unwound_has_no_backjumps_across_phases(fig1_goto, count_up_goto):
    for g in (fig1_goto, count_up_goto):
        for phase in Phase:
            for k in (1, 2, 3):
                u = unwind(g, k, phase)
                assert all(ins.target > i
                           for i, ins in enumerate(u.body.instructions)
                           if ins.target is not None)
                assert u.k == k and u.phase == phase
                assert u.origin is g


def test_terminator_kind_matches_phase(fig1_goto):
    for phase, op, tag in [
        (Phase.BASE, "ASSUME", "unwind_assumption"),
        (Phase.FORWARD, "ASSERT", "unwind_assertion"),
        (Phase.INDUCTIVE, "ASSUME", "unwind_assumption"),
    ]:
        u = unwind(fig1_goto, 2, phase)
        terms = [i for i in u.body.instructions if i.tag == tag]
        assert len(terms) == 1
        assert terms[0].op == op
        assert pp_expr(terms[0].expr) == "!(x > 0)"


def test_fig1_forward_k2_shape(fig1_goto):
    u = unwind(fig1_goto, 2, Phase.FORWARD)
    ops = [i.op for i in u.body.instructions]
    # nondet init, two guarded copies, unwinding assertion, property, ret
    decs = [i for i in u.body.instructions
            if i.op == "ASSIGN" and i.var == "x" and "- 1" in pp_expr(i.expr)]
    assert len(decs) == 2
    asserts = [i for i in u.body.instructions if i.op == "ASSERT"]
    assert len(asserts) == 2
    assert pp_expr(asserts[0].expr) == "!(x > 0)"
    assert pp_expr(asserts[1].expr) == "x == 0"
    assert ops.count("COND_GOTO") == 2


def test_loop_free_program_unchanged_any_k():
    g = compile_mc("int main() { int a = 2; assert(a == 2); return 0; }")
    for k in (1, 4):
        u = unwind(g, k, Phase.FORWARD)
        assert len(u.body.instructions) == len(g.instructions)
        assert tags(u) == []


def test_base_terminator_concretely_satisfiable():
    g = compile_mc("int main() { int i = 0; while (i < 3) { i = i + 1; } return 0; }")
    u = unwind(g, 3, Phase.BASE)
    res = run_goto(u.body, SequentialProvider([]))
    assert res.status == COMPLETED      # assume !(i < 3) passes with i == 3
    assert res.store["i"] == 3


def test_unwinding_rejects_k_below_one(fig1_goto):
    with pytest.raises(TransformError):
        unwind(fig1_goto, 0, Phase.BASE)


def test_inductive_rewrite_blocks(fig1_goto):
    u = unwind(fig1_goto, 1, Phase.INDUCTIVE)
    body = u.body.instructions
    # A havocs every loop variable once, before copy 1
    (havoc,) = [i for i in body if i.op == "HAVOC"]
    assert (havoc.var, havoc.tag, havoc.ctx) == ("x", "havoc", ())
    # S snapshots every loop variable once per copy
    (store,) = [i for i in body if i.tag == "shadow"]
    assert store.op == "ASSIGN" and store.var == "x__pre_0"
    assert pp_expr(store.expr) == "x"
    assert u.body.symbols[store.var] == u.body.symbols["x"]
    # R is one stutter-elimination assume per copy
    (stutter,) = [i for i in body if i.tag == "stutter"]
    assert stutter.op == "ASSUME"
    assert pp_expr(stutter.expr) == f"x != {store.var}"
    assert body.index(havoc) < body.index(store) < body.index(stutter)


def test_inductive_shadow_count_grows_with_k(fig1_goto):
    u = unwind(fig1_goto, 3, Phase.INDUCTIVE)
    assert [tags(u).count(t) for t in ("havoc", "shadow", "stutter")] == [1, 3, 3]


def item_lists(items):
    """`items` and every item list nested in it."""
    yield items
    for item in items:
        if isinstance(item, IfItem):
            yield from item_lists(item.then)
            yield from item_lists(item.els)


def test_shadow_stores_are_siblings_of_their_stutter_assume():
    """A copy's shadow stores and its stutter assume share one item list,
    hence one guard, and that assume is the only reader of a shadow:
    what lets vcgen define a shadow without the guard."""
    for path, _expected, _cat in corpus_entries():
        u = unwind(compile_mc(path.read_text()), 3, Phase.INDUCTIVE)
        for items in item_lists(u.tree):
            ops = [i.instr for i in items if isinstance(i, OpItem)]
            stores = [i for i in ops if i.tag == "shadow"]
            stutters = [i for i in ops if i.tag == "stutter"]
            assert len(stutters) == (1 if stores else 0), path.name
            if stores:
                (stutter,) = stutters
                assert {i.var for i in stores} == {
                    v for v in free_vars(stutter.expr) if "__pre_" in v}
                assert all(i.ctx == stutter.ctx for i in stores)
        for ins in u.body.instructions:
            if ins.expr is not None and any(
                    "__pre_" in v for v in free_vars(ins.expr)):
                assert ins.tag == "stutter", (path.name, ins)


def test_havoc_completeness_on_corpus():
    """Every variable written in a loop body is havocked for that loop."""
    for path, _expected, _cat in corpus_entries():
        g = compile_mc(path.read_text())
        if not g.loops:
            continue
        u = unwind(g, 1, Phase.INDUCTIVE)
        havocked = {i.var for i in u.body.instructions if i.op == "HAVOC"}
        for loop in g.loops:
            for idx in range(loop.head, loop.backjump):
                ins = g.instructions[idx]
                if ins.op == "ASSIGN":
                    assert ins.var in havocked, (path.name, ins.var)


def test_havoc_set_equals_def3_loop_variables(fig1_goto):
    (loop,) = [item for item in fig1_goto.tree if isinstance(item, LoopItem)]
    u = unwind(fig1_goto, 1, Phase.INDUCTIVE)
    havocked = {i.var for i in u.body.instructions if i.op == "HAVOC"}
    assert havocked == set(loop_variables(loop))


def test_nested_unwinding_copies_inner_per_outer():
    g = compile_mc("""int main() {
      int i = 0;
      int t = 0;
      while (i < 2) {
        int j = 0;
        while (j < 2) { t = t + 1; j = j + 1; }
        i = i + 1;
      }
      return 0;
    }""")
    u = unwind(g, 2, Phase.BASE)
    incr = [i for i in u.body.instructions
            if i.op == "ASSIGN" and i.var == "t" and pp_expr(i.expr) != "0"]
    assert len(incr) == 4      # k copies of inner per each of k outer copies
    sigma_assumes = [i for i in u.body.instructions if i.tag == "unwind_assumption"]
    assert len(sigma_assumes) == 3   # inner instance per outer copy, plus outer


NESTED = """int main() {
  unsigned int i = 0;
  unsigned int t = 0;
  while (i < 2) {
    unsigned int j = 0;
    while (j < 2) { if (t < 9) t = t + 1; j = j + 1; }
    i = i + 1;
  }
  return 0;
}"""


def test_unwinding_copies_no_program_instruction():
    """The copies of a loop share its body's and its `pre` OpItems:
    besides the program's own, an unwinding holds only the terminators
    and, for INDUCTIVE, one havoc/shadow/stutter set per loop."""
    g = compile_mc(NESTED)
    g = instrument(g, infer_invariants(g))
    outer, inner = sorted((i for i in items_in(g.tree) if isinstance(i, LoopItem)),
                          key=lambda l: l.loop_id)
    assert outer.pre and inner.pre   # head invariants to share
    own = {id(i) for i in items_in(g.tree) if isinstance(i, OpItem)}
    k = 8
    for phase in Phase:
        u = unwind(g, k, phase)
        made = {id(i): i.instr for i in items_in(u.tree)
                if isinstance(i, OpItem) and id(i) not in own}.values()
        tags = [ins.tag for ins in made]
        term = ("unwind_assertion" if phase is Phase.FORWARD
                else "unwind_assumption")
        assert tags.count(term) == 1 + k         # inner once per outer copy
        assert tags.count("invariant") == 0
        n = 0 if phase is not Phase.INDUCTIVE else \
            len(loop_variables(outer)) + len(loop_variables(inner))
        assert (tags.count("havoc"), tags.count("shadow")) == (n, n)
        assert tags.count("stutter") == (2 if n else 0)
        assert len(tags) == 1 + k + 2 * n + tags.count("stutter")


def instrumented_programs():
    """The corpus under `builtin`, and NESTED, each with its planted `pre`."""
    for source in [p.read_text() for p, _e, _c in corpus_entries()] + [NESTED]:
        g = compile_mc(source)
        yield instrument(g, infer_invariants(g))


def test_planted_pre_items_hold_no_draw():
    """The copies share a loop's `pre` items, and copy i's sit in copy
    i-1, where they take its draw context: they must hold no draw."""
    planted = 0
    for g in instrumented_programs():
        assert pre_draws(g) == [], g.file
        planted += sum(len(l.pre) for l in items_in(g.tree) if isinstance(l, LoopItem))
    assert planted > 20


def test_copies_share_the_loops_pre_items():
    """Copy i's IfItem follows its loop's own `pre` OpItems, and only the
    copies' IfItems and the terminators carry a context."""
    for g in instrumented_programs():
        pres = {id(l.guard): l.pre for l in items_in(g.tree) if isinstance(l, LoopItem)}
        for phase in Phase:
            u = unwind(g, 3, phase)
            copies = 0
            for items in item_lists(u.tree):
                for j, item in enumerate(items):
                    if isinstance(item, IfItem) and id(item.cond) in pres:
                        pre = pres[id(item.cond)]
                        assert item.ctx
                        assert list(map(id, items[j - len(pre):j])) == list(map(id, pre))
                        copies += 1
                    elif isinstance(item, IfItem):
                        assert item.ctx == ()
                    else:
                        terminator = item.instr.tag.startswith("unwind_")
                        assert bool(item.instr.ctx) == terminator, (g.file, item)
            # a loop at nesting depth d is copied k times per outer copy
            assert copies == sum(3 ** (l.nesting_depth + 1) for l in g.loops)


def test_forward_monotonicity_on_corpus_oracle():
    from kinduct.driver import KInductionConfig, load_program
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    for path, _expected, _cat in corpus_entries():
        ex = oracle.explore(load_program(str(path), cfg), 8)
        mk = next((k for k in range(1, 9) if ex.forward_holds(k)), None)
        if mk is not None:
            for k in range(mk, 9):
                assert ex.forward_holds(k), (path.name, k)


def test_forward_monotonicity_solver_side():
    from kinduct.driver import KInductionConfig, forward_condition, load_program
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    for name, threshold in [("count_up.mc", 10), ("nested_sum.mc", 2)]:
        from conftest import corpus_path
        g = load_program(str(corpus_path(name)), cfg)
        for k in range(1, threshold + 3):
            holds = forward_condition(g, k, cfg)
            assert holds == (k >= threshold), (name, k)


def test_dump_unwound_mentions_phase(fig1_goto):
    text = dump_unwound(unwind(fig1_goto, 2, Phase.FORWARD))
    assert "forward" in text and "k=2" in text
    assert "ASSERT" in text
