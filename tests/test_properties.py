"""Randomized properties: round-trips, semantics agreement between the
AST walker, the lowered form, and the encoder, and sound instrumentation."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from kinduct import driver, oracle
from kinduct.driver import KInductionConfig, kinduction
from kinduct.frontend import MiniCError, parse, pretty_print, typecheck
from kinduct.goto_ir import lower
from kinduct.interp import COMPLETED, SequentialProvider, run_ast, run_goto
from kinduct.invariants import infer_invariants, instrument
from kinduct.solver import BUDGET, SAT, Session, bitblast, solve
from kinduct.transform import Phase, unwind
from kinduct.vcgen import dump_ssa, encode, to_ssa
from conftest import compile_mc, pre_draws

VARS = ("a", "b", "c")
BIN_OPS = ("+", "-", "*", "&", "|", "^", "<<", ">>",
           "<", ">", "<=", ">=", "==", "!=", "&&", "||")
UN_OPS = ("-", "~", "!")

expr_trees = st.recursive(
    st.sampled_from(VARS),
    lambda child: st.one_of(
        st.tuples(st.sampled_from(BIN_OPS), child, child),
        st.tuples(st.sampled_from(UN_OPS), child),
        st.tuples(st.just("?:"), child, child, child),
    ),
    max_leaves=12,
)


def render(t):
    if isinstance(t, str):
        return t
    if len(t) == 2:
        return f"({t[0]}{render(t[1])})"
    if len(t) == 4:
        return f"({render(t[1])} ? {render(t[2])} : {render(t[3])})"
    return f"({render(t[1])} {t[0]} {render(t[2])})"


def wrap(v, width, signed):
    v &= (1 << width) - 1
    if signed and v >= 1 << (width - 1):
        v -= 1 << width
    return v


CMP = {"<": lambda x, y: x < y, ">": lambda x, y: x > y,
       "<=": lambda x, y: x <= y, ">=": lambda x, y: x >= y,
       "==": lambda x, y: x == y, "!=": lambda x, y: x != y}


def ev(t, env):
    """Test-local evaluator, written independently of the package.

    Returns (value, width, signed).  Variables are 8-bit unsigned;
    comparisons and logical forms yield 32-bit signed 0/1; everything
    else, `?:` included, works in the wider common type of its two
    value operands, unsigned if either is, with wraparound arithmetic
    and mod-width shift amounts.
    """
    if isinstance(t, str):
        return env[t], 8, False
    if len(t) == 2:
        op, operand = t
        v, w, s = ev(operand, env)
        if op == "!":
            return (0 if v else 1), 32, True
        return wrap(-v if op == "-" else ~v, w, s), w, s
    if len(t) == 4:
        _, c, a, b = t
        (av, aw, as_), (bv, bw, bs) = ev(a, env), ev(b, env)
        w, s = max(aw, bw), as_ and bs
        return wrap(av if ev(c, env)[0] else bv, w, s), w, s
    op, l, r = t
    lv, lw, ls = ev(l, env)
    rv, rw, rs = ev(r, env)
    if op == "&&":
        return int(lv != 0 and rv != 0), 32, True
    if op == "||":
        return int(lv != 0 or rv != 0), 32, True
    w, s = max(lw, rw), ls and rs
    x, y = wrap(lv, w, s), wrap(rv, w, s)
    if op in CMP:
        return int(CMP[op](x, y)), 32, True
    if op == "+":
        v = x + y
    elif op == "-":
        v = x - y
    elif op == "*":
        v = x * y
    elif op == "&":
        v = x & y
    elif op == "|":
        v = x | y
    elif op == "^":
        v = x ^ y
    elif op == "<<":
        v = x << (y % w)
    else:
        v = x >> (y % w)
    return wrap(v, w, s), w, s


def straightline(tree, env):
    decls = "\n".join(f"  unsigned char {v} = {env[v]};" for v in VARS)
    return f"int main() {{\n{decls}\n  unsigned char r = {render(tree)};\n  return 0;\n}}\n"


byte = st.integers(min_value=0, max_value=255)


@settings(max_examples=150, deadline=None)
@given(expr_trees, byte, byte, byte)
def test_expression_semantics_agree(tree, a, b, c):
    env = {"a": a, "b": b, "c": c}
    src = straightline(tree, env)
    expected = wrap(ev(tree, env)[0], 8, False)   # r is unsigned char

    prog = typecheck(parse(src))
    ast_run = run_ast(prog, SequentialProvider([]))
    assert ast_run.status == COMPLETED
    assert ast_run.store["r"] == expected

    goto_run = run_goto(lower(prog), SequentialProvider([]))
    assert goto_run.status == COMPLETED
    assert goto_run.store["r"] == expected


@settings(max_examples=100, deadline=None)
@given(expr_trees, byte, byte, byte)
def test_parse_pretty_round_trip(tree, a, b, c):
    src = straightline(tree, {"a": a, "b": b, "c": c})
    first = parse(src)
    again = parse(pretty_print(first))
    assert again == first
    assert pretty_print(again) == pretty_print(first)


# Statement-level generator: assignments, compound assignments,
# increments and decrements, if/else, bounded while and do-while loops
# over the fixed prelude variables.

assignments = st.tuples(st.sampled_from(VARS), expr_trees)


def stmt_render(s, indent):
    pad = " " * indent
    kind = s[0]
    if kind == "assign":
        return f"{pad}{s[1]} = {render(s[2])};"
    if kind == "compound":
        return f"{pad}{s[1]} {s[2]}= {render(s[3])};"
    if kind == "step":
        return pad + s[2].replace("v", s[1]) + ";"
    if kind == "if":
        body = "\n".join(stmt_render(x, indent + 2) for x in s[2])
        if s[3] is not None:
            alt = "\n".join(stmt_render(x, indent + 2) for x in s[3])
            return (f"{pad}if ({render(s[1])}) {{\n{body}\n{pad}}} "
                    f"else {{\n{alt}\n{pad}}}")
        return f"{pad}if ({render(s[1])}) {{\n{body}\n{pad}}}"
    body = "\n".join(stmt_render(x, indent + 2) for x in s[2])
    if kind == "do":
        # bounded do-while: its own counter d runs down from s[1]
        return (f"{pad}d = {s[1]};\n{pad}do {{\n{body}\n{pad}  d = d - 1;\n"
                f"{pad}}} while (d > 0);")
    # bounded while: the guard variable strictly decreases
    return f"{pad}while (c > 0) {{\n{body}\n{pad}  c = c - 1;\n{pad}}}"


# Straight-line updates of a and b: plain and compound assignments and
# the four increment and decrement forms.
COMPOUND_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
updates = st.one_of(
    st.tuples(st.just("assign"), st.sampled_from(("a", "b")), expr_trees),
    st.tuples(st.just("compound"), st.sampled_from(("a", "b")),
              st.sampled_from(COMPOUND_OPS), expr_trees),
    st.tuples(st.just("step"), st.sampled_from(("a", "b")),
              st.sampled_from(("v++", "v--", "++v", "--v"))),
)

loop_free = st.recursive(
    updates,
    lambda child: st.tuples(
        st.just("if"), expr_trees,
        st.lists(child, min_size=1, max_size=3),
        st.none() | st.lists(child, min_size=1, max_size=2)),
    max_leaves=8,
)

# A while loop has a loop-free body: every iteration decrements c exactly
# once, so it runs to completion.  A do-while sits at the top level and
# its body may hold such a while; every iteration decrements d once.
bounded_while = st.tuples(st.just("while"), st.just(None),
                          st.lists(loop_free, max_size=2))
stmt_trees = st.one_of(
    loop_free,
    bounded_while,
    st.tuples(st.just("do"), st.integers(min_value=1, max_value=3),
              st.lists(loop_free | bounded_while, max_size=2)),
)


def program(stmts, env):
    decls = "\n".join(f"  unsigned char {v} = {env[v]};" for v in VARS)
    body = "\n".join(stmt_render(s, 2) for s in stmts)
    return f"int main() {{\n{decls}\n  unsigned char d = 0;\n{body}\n  return 0;\n}}\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(stmt_trees, max_size=4), byte, byte,
       st.integers(min_value=0, max_value=5))
def test_statement_round_trip(stmts, a, b, c):
    src = program(stmts, {"a": a, "b": b, "c": c})
    prog = parse(src)
    assert parse(pretty_print(prog)) == prog


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(stmt_trees, max_size=3), byte, byte,
       st.integers(min_value=0, max_value=4))
def test_lowering_preserves_statement_semantics(stmts, a, b, c):
    env = {"a": a, "b": b, "c": c}
    src = program(stmts, env)
    prog = typecheck(parse(src))
    ast_run = run_ast(prog, SequentialProvider([]))
    goto_run = run_goto(lower(prog), SequentialProvider([]))
    assert ast_run.status == goto_run.status == COMPLETED
    for v in VARS:
        assert ast_run.store[v] == goto_run.store[v]


# The same statements plus the affine updates v = w + k, v = w - k and
# v = k - w with small constants, from which the invariant analysis
# derives its pair facts, also inside the bounded loops.
small_k = st.integers(min_value=0, max_value=9).map(str)
affine = st.tuples(
    st.just("assign"), st.sampled_from(("a", "b")),
    st.tuples(st.sampled_from(("+", "-")), st.sampled_from(VARS), small_k)
    | st.tuples(st.just("-"), small_k, st.sampled_from(VARS)))
affine_while = st.tuples(st.just("while"), st.just(None),
                         st.lists(loop_free | affine, max_size=3))
affine_stmts = st.one_of(
    loop_free, affine, affine_while,
    st.tuples(st.just("do"), st.integers(min_value=1, max_value=3),
              st.lists(loop_free | affine | affine_while, max_size=3)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(affine_stmts, min_size=1, max_size=3), byte, byte,
       st.integers(min_value=0, max_value=4))
@example([("do", 2, [("while", None, [])])], 0, 0, 1)
@example([("do", 1, [("assign", "a", (">>", ("-", "a"), "a"))])], 8, 0, 0)
@example([("assign", "a", "a"),
          ("while", None, [("assign", "a", ("-", "1", "b")),
                           ("assign", "b", ("-", "0", "b")),
                           ("assign", "a", "a")])], 0, 0, 1)
def test_instrumentation_never_blocks_a_plain_run(stmts, a, b, c):
    """Every invariant planted at a loop head holds on each run reaching
    that head, so the instrumented program completes where the plain one
    does (cf. test_soundness_sampling_on_corpus).  None holds a draw,
    which the unwound copies' sharing of `pre` needs."""
    g = lower(typecheck(parse(program(stmts, {"a": a, "b": b, "c": c}))))
    gi = instrument(g, infer_invariants(g))
    assert pre_draws(gi) == []
    plain = run_goto(g, SequentialProvider([]))
    inst = run_goto(gi, SequentialProvider([]))
    assert plain.status == inst.status == COMPLETED


guard_ops = st.sampled_from(("<", ">", "<=", ">=", "!="))
small = st.integers(min_value=0, max_value=6)


# A loop body either steps x, or branches on x: the then-branch steps x,
# the else-branch steps it twice as far and counts the detour in y, which
# an assertion after the loop reads, so each join is checked on the
# values it merges.
splits = st.none() | st.tuples(guard_ops, small)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guard_ops, small, st.sampled_from(("+", "-")), small,
       st.integers(min_value=1, max_value=3), splits,
       st.sampled_from((Phase.BASE, Phase.FORWARD)))
@example("<", 4, "+", 6, 3, (">", 1), Phase.FORWARD)
def test_base_case_matches_oracle_on_generated_loops(op, bound, step, avoid, k,
                                                     split, phase):
    update = f"x = x {step} 1;"
    decl = check = ""
    if split is not None:
        update = (f"if (x {split[0]} {split[1]}) {{ {update} }} "
                  f"else {{ y = y + 1; x = x {step} 2; }}")
        decl, check = "\n  unsigned char y = 0;", "\n  assert(y != 2);"
    src = f"""int main() {{
  unsigned char x = *;{decl}
  while (x {op} {bound}) {{
    assert(x != {avoid});
    {update}
  }}{check}
  return 0;
}}"""
    g = compile_mc(src, width=8)
    f = encode(to_ssa(unwind(g, k, phase)), phase)
    solver_sat = solve(bitblast(f)).status == SAT
    # Bound 3, the largest k drawn, so k < 3 checks a label, not a cut.
    ex = oracle.explore(g, 3)
    holds = ex.base_holds if phase is Phase.BASE else ex.forward_holds
    assert solver_sat == (not holds(k))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(affine_stmts, min_size=1, max_size=3), byte, byte,
       st.integers(min_value=0, max_value=4), st.booleans())
@example([("while", None, []), ("assign", "a", ("/", "a", "b"))], 0, 0, 1, False)
def test_resumed_queries_match_queries_from_nothing(stmts, a, b, c, builtin):
    # The driver's query order through per-family sessions, each resumed
    # from its snapshot, against conversion and blasting from nothing in
    # sessions of their own: the same SSA and the same CNF at every query.
    src = program(stmts, {"a": a, "b": b, "c": c}).replace(
        "  return 0;", "  assert(a != b || c == 1);\n  return 0;")
    g = lower(typecheck(parse(src)))
    if builtin:
        g = instrument(g, infer_invariants(g))
    sessions = {phase: (Session(), Session()) for phase in Phase}
    sessions[Phase.FORWARD] = sessions[Phase.BASE]
    order = [(Phase.BASE, 1)] + [(phase, k) for k in range(2, 5) for phase in
                                 (Phase.FORWARD, Phase.INDUCTIVE, Phase.BASE)]
    for phase, k in order + [(Phase.BASE, 9)]:
        u = unwind(g, k, phase)
        resumed, full = sessions[phase]
        s, fresh = to_ssa(u, None, resumed.snapshot), to_ssa(u)
        assert (dump_ssa(s), s.symbols, s.draw_symbols) == \
            (dump_ssa(fresh), fresh.symbols, fresh.draw_symbols)
        x = bitblast(encode(s, phase), resumed)
        y = bitblast(encode(fresh, phase), full)
        assert (x.num_vars, x.clauses, x.goal) == (y.num_vars, y.clauses, y.goal)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(loop_free | affine, max_size=3), byte,
       st.integers(min_value=2, max_value=6),
       st.sampled_from(("e != {n}", "e == {n}", "a != b || c == 1")),
       st.booleans())
def test_session_answers_match_fresh_solves(stmts, b, n, check, builtin):
    # Every query the driver poses, answered in its session (by extending
    # the session's last model, or by a search), gets the status a fresh
    # engine gives its clauses and goal; a SAT answer's values are a model
    # of both.  The statements run inside a loop counting e up to n, so
    # each phase's answer repeats from k to k+1, as in off_by_one.mc.
    body = "\n".join(stmt_render(x, 4) for x in stmts)
    src = program([], {"a": "*", "b": b, "c": "*"}).replace(
        "  return 0;",
        f"  unsigned char e = 0;\n  while (e < {n}) {{\n{body}\n"
        f"    e = e + 1;\n  }}\n  assert({check.format(n=n)});\n"
        "  return 0;")
    g = lower(typecheck(parse(src)))
    if builtin:
        g = instrument(g, infer_invariants(g))
    answers = []
    real_solve = driver.solve

    def solving(cnf, conflict_limit, deadline, session):
        out = real_solve(cnf, conflict_limit, deadline, session)
        fresh = real_solve(cnf, conflict_limit, deadline)
        if BUDGET not in (out.status, fresh.status):
            answers.append((out.status, fresh.status))
        if out.status == SAT:
            v = out.values
            true = {lit * v[lit] for lit in range(1, cnf.num_vars + 1)}
            assert all(not true.isdisjoint(cl) for cl in cnf.clauses)
            assert cnf.goal in true
        return out

    driver.solve = solving
    try:
        kinduction(g, KInductionConfig(max_iterations=8, timeout_seconds=1))
    finally:
        driver.solve = real_solve
    assert answers and all(mine == fresh for mine, fresh in answers)


# A `do { ... } while (0)` macro or a trailing superloop: loops with no
# loop variable.
TAILS = {"none": "", "macro": "  do { assert(a != b || c == 1); } while (0);\n",
         "superloop": "  while (1) { assert(a != b || c == 1); }\n"}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(affine_stmts, min_size=1, max_size=3), byte, byte,
       st.integers(min_value=0, max_value=4), st.sampled_from(sorted(TAILS)),
       st.booleans())
@example([("assign", "a", "a")], 0, 0, 0, "superloop", False)
def test_generated_programs_raise_only_minic_errors(stmts, a, b, c, tail,
                                                    builtin):
    src = program(stmts, {"a": a, "b": b, "c": c}).replace(
        "  return 0;", TAILS[tail] + "  return 0;")
    try:
        g = lower(typecheck(parse(src)))
        if builtin:
            g = instrument(g, infer_invariants(g))
        kinduction(g, KInductionConfig(max_iterations=4, timeout_seconds=1))
    except MiniCError:
        pass
