"""Bitblasting, CDCL behavior, and the DIMACS/SMT-LIB emitters."""

import copy
import gzip
import itertools
import random
import re
import shutil
import inspect
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kinduct import solver
from kinduct.driver import KInductionConfig, load_program
from kinduct.frontend import Binary, Cast, Cond, Const, IntType, Unary, Var
from kinduct.invariants import infer_invariants
from kinduct.solver import (
    BUDGET, FALSE_LIT, SAT, TRUE_LIT, UNSAT, CnfInstance, Session, SolverError,
    _Blaster, _Cdcl, _luby, bitblast, emit_dimacs, emit_smtlib, solve,
)
from kinduct.transform import DeadlineExceeded, Phase, unwind
from kinduct.vcgen import SsaProgram, encode, eval_formula, to_ssa
from conftest import compile_mc, corpus_path, satisfies

DATA = Path(__file__).resolve().parent / "data"

U4 = IntType(4, False)
S4 = IntType(4, True)
B1 = IntType(1, False)


def formula(goal, symbols, definitions=()):
    return SsaProgram(list(definitions), symbols=symbols, goal=goal)


def var(name, ty):
    return Var(name, rid=name, ty=ty)


def php(pigeons, holes):
    """Pigeonhole CNF with named single-bit symbols."""
    def v(i, j):
        return i * holes + j + 1
    clauses = [[v(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-v(a, j), -v(b, j)])
    bits = {f"p{i}_{j}": [v(i, j)]
            for i in range(pigeons) for j in range(holes)}
    symbols = {name: B1 for name in bits}
    return CnfInstance(pigeons * holes, clauses, bits, symbols)


def test_empty_cnf_is_sat():
    assert solve(CnfInstance(3, [])).status == SAT


def test_contradictory_units_unsat():
    assert solve(CnfInstance(1, [[1], [-1]])).status == UNSAT


def test_empty_clause_unsat():
    assert solve(CnfInstance(2, [[1, 2], []])).status == UNSAT


@pytest.mark.parametrize("pigeons,holes", [(4, 3), (5, 4)])
def test_pigeonhole_unsat(pigeons, holes):
    assert solve(php(pigeons, holes)).status == UNSAT


def test_pigeonhole_sat_model_is_a_matching():
    out = solve(php(4, 4))
    assert out.status == SAT
    placed = {(i, j) for i in range(4) for j in range(4)
              if out.model[f"p{i}_{j}"]}
    for i in range(4):
        assert any(p == i for p, _ in placed)
    for j in range(4):
        assert sum(1 for _, h in placed if h == j) <= 1


def test_four_bit_sum_has_sixteen_models():
    shape = Binary("==",
                   Binary("+", var("a", U4), var("b", U4), ty=U4),
                   Const(7, ty=U4), ty=B1)
    cnf = bitblast(formula(shape, {"a": U4, "b": U4}))
    seen = set()
    while True:
        out = solve(cnf)
        if out.status != SAT:
            break
        a, b = out.model["a"], out.model["b"]
        assert (a + b) & 0xF == 7
        assert (a, b) not in seen
        seen.add((a, b))
        cnf.clauses.append([
            -v if (out.model[s] >> i) & 1 else v
            for s in cnf.symbols for i, v in enumerate(cnf.bits[s])
        ])
    assert len(seen) == 16


def test_reflexive_equality_sat_everywhere():
    shape = Binary("==", var("x", U4), var("x", U4), ty=B1)
    out = solve(bitblast(formula(shape, {"x": U4})))
    assert out.status == SAT
    assert 0 <= out.model["x"] <= 15


def test_strict_self_comparison_unsat():
    for ty in (U4, S4):
        shape = Binary("<", var("x", ty), var("x", ty), ty=B1)
        assert solve(bitblast(formula(shape, {"x": ty}))).status == UNSAT


def test_signed_model_decodes_with_wraparound():
    shape = Binary("==", var("x", S4), Const(-3, ty=S4), ty=B1)
    out = solve(bitblast(formula(shape, {"x": S4})))
    assert out.status == SAT
    assert out.model["x"] == -3


def test_width_above_64_rejected():
    wide = IntType(65, False)
    f = formula(Binary("==", var("x", wide), Const(0, ty=wide), ty=B1),
                {"x": wide})
    with pytest.raises(SolverError):
        bitblast(f)


def test_conflict_budget_yields_budget_status():
    out = solve(php(6, 5), conflict_limit=3)
    assert out.status == BUDGET
    assert out.conflicts >= 3
    assert out.model is None


def test_luby_prefix():
    assert [_luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_solver_is_deterministic():
    runs = [solve(php(5, 4)) for _ in range(2)]
    assert runs[0].status == runs[1].status == UNSAT
    assert runs[0].decisions == runs[1].decisions
    assert runs[0].conflicts == runs[1].conflicts
    assert runs[0].propagations == runs[1].propagations


def test_emit_dimacs_format():
    cnf = php(3, 2)
    text = emit_dimacs(cnf)
    lines = text.splitlines()
    header = [l for l in lines if l.startswith("p cnf ")]
    assert header == [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    body = [l for l in lines if not l.startswith(("c", "p"))]
    assert len(body) == len(cnf.clauses)
    assert all(l.endswith(" 0") for l in body)
    assert any(l.startswith("c ") and "p0_0[0]" in l for l in lines)


def fig1_formula(k, phase):
    g = compile_mc(
        "int main() {\n  unsigned int x = *;\n  while (x > 0) {\n"
        "    x = x - 1;\n  }\n  assert(x == 0);\n  return 0;\n}\n",
        width=8)
    return encode(to_ssa(unwind(g, k, phase)), phase)


def test_emit_smtlib_wellformed():
    f = fig1_formula(2, Phase.BASE)
    text = emit_smtlib(f)
    assert text.startswith("(set-logic QF_BV)\n")
    assert text.count("(") == text.count(")")
    lines = text.splitlines()
    decls = [l for l in lines if l.startswith("(declare-const")]
    assert decls == sorted(decls)
    assert [l.split()[1] for l in decls] == ["nd0"]  # free names
    defs = [l.split()[1] for l in lines if l.startswith("(define-fun")]
    assert defs == [name for name, _ in f.definitions] and len(defs) >= 3
    assert text.rstrip().endswith("(get-model)")
    assert sum(l.startswith("(assert ") for l in lines) == 1


# Every operator `fig1_formula` leaves out, and a cast between two types
# of one width, which emits its operand unchanged.
OPERATORS = """int main() {
  unsigned int x = *;
  int y = *;
  unsigned int q = x / (x - 3);
  int r = y % (y + 1);
  unsigned int sh = (x << 2) >> (x & 7);
  int sr = y >> 1;
  unsigned int c = (unsigned int)(-y);
  assert(q + r + sh + sr + c != 7);
  return 0;
}
"""


def test_emit_smtlib_wellformed_on_every_operator():
    g = compile_mc(OPERATORS)
    text = emit_smtlib(encode(to_ssa(unwind(g, 1, Phase.BASE)), Phase.BASE))
    depth = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        assert depth >= 0
    assert depth == 0
    for word in ("bvudiv", "bvsrem", "bvshl", "bvlshr", "bvashr", "bvneg"):
        assert f"({word} " in text, word


@pytest.mark.skipif(shutil.which("z3") is None, reason="no external solver")
def test_smtlib_agrees_with_external_solver(tmp_path):
    cases = [
        (fig1_formula(2, Phase.BASE), UNSAT),
        (fig1_formula(1, Phase.FORWARD), SAT),
    ]
    for i, (f, expected) in enumerate(cases):
        assert solve(bitblast(f)).status == expected
        script = tmp_path / f"q{i}.smt2"
        script.write_text(emit_smtlib(f))
        got = subprocess.run(["z3", str(script)], capture_output=True,
                             text=True).stdout.split()[0]
        assert got == expected.lower()


S32 = IntType(32, True)
POW2_DIVISORS = (1, 2, 4, 8, 1 << 30)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_power_of_two_division_agrees_with_gcc(tmp_path):
    cases = [(x, c) for c in POW2_DIVISORS
             for x in sorted({0, 1, -1, c - 1, 1 - c, c, -c, S32.min, S32.max})]
    rows = ", ".join(f"{{{x}LL, {c}}}" for x, c in cases)
    src = tmp_path / "divmod.c"
    src.write_text(
        "#include <stdio.h>\n"
        f"static const long long cases[][2] = {{{rows}}};\n"
        "int main(void) {\n"
        "  for (unsigned i = 0; i < sizeof cases / sizeof cases[0]; i++) {\n"
        "    int x = (int)cases[i][0], c = (int)cases[i][1];\n"
        '    printf("%d %d\\n", x / c, x % c);\n'
        "  }\n"
        "  return 0;\n"
        "}\n")
    exe = tmp_path / "divmod"
    subprocess.run(["gcc", "-fwrapv", "-o", str(exe), str(src)], check=True)
    expected = [tuple(map(int, line.split())) for line in subprocess.run(
        [str(exe)], capture_output=True, text=True, check=True).stdout.splitlines()]
    x = var("x", S32)
    cnfs = {c: bitblast(formula(Const(1, ty=B1), {"x": S32, "q": S32, "r": S32}, [
        ("q", Binary("/", x, Const(c, ty=S32), ty=S32)),
        ("r", Binary("%", x, Const(c, ty=S32), ty=S32))])) for c in POW2_DIVISORS}
    got = []
    for v, c in cases:
        out = solve_with_inputs(cnfs[c], {"x": v}, 32)
        assert out.status == SAT
        got.append((out.model["q"], out.model["r"]))
    assert got == expected


def brute_sat(num_vars, clauses):
    """Truth-table check, bit-parallel over all 2**num_vars rows."""
    rows = 1 << num_vars
    full = (1 << rows) - 1
    masks = []
    for v in range(num_vars):
        half = 1 << v
        block = (1 << half) - 1
        m = 0
        for start in range(half, rows, half * 2):
            m |= block << start
        masks.append(m)
    result = full
    for cl in clauses:
        # an empty clause leaves cm at 0 and kills every row
        cm = 0
        for lit in cl:
            vm = masks[abs(lit) - 1]
            cm |= vm if lit > 0 else full & ~vm
        result &= cm
    return result != 0


def test_brute_sat_helper_sanity():
    assert brute_sat(2, [[1, 2]])
    assert not brute_sat(1, [[1], [-1]])
    assert not brute_sat(2, [[1], []])


def test_random_cnf_agrees_with_truth_table():
    rng = random.Random(0xC0FFEE)
    for case in range(1500):
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 24)):
            width = rng.randint(1, min(3, n))
            lits = [rng.choice([-1, 1]) * v
                    for v in rng.sample(range(1, n + 1), width)]
            clauses.append(lits)
        out = solve(CnfInstance(n, clauses))
        expected = SAT if brute_sat(n, clauses) else UNSAT
        assert out.status == expected, (case, n, clauses)


def named(num_vars, clauses):
    """A CNF whose model names every variable: v1, v2, ..."""
    bits = {f"v{v}": [v] for v in range(1, num_vars + 1)}
    return CnfInstance(num_vars, clauses, bits, {name: B1 for name in bits})


@pytest.mark.parametrize("num_vars,clauses", [
    (3, [[2, 2, 3], [-3]]),                   # duplicate literal
    (3, [[2, 2, 3], [-3], [-2, -2]]),
    (3, [[2, -2, 3], [-3]]),                  # tautology
    (3, [[2, -2], [-2, 2, 2]]),
    (3, [[2], [-2, 3], [-2, -3]]),            # literal false at level 0
    (3, [[2], [-2, 3], [-3, 1]]),
    (3, [[-2, 3], [2], [1, 2, 3], [-3, -2]]),
    (3, [[1, 2], []]),                        # empty clause
    (3, [[]]),
    (3, [[1, 2, 3], [-1, 2], [-2], [-3]]),    # units after non-units
    (3, [[1, 2, 3], [-1, 2], [-3], [1]]),
    (3, [[1, 2], [1, 2], [-1, -2], [-1, -2], [1, -2]]),
])
def test_loader_special_cases_agree_with_truth_table(num_vars, clauses):
    out = solve(named(num_vars, clauses))
    assert out.status == (SAT if brute_sat(num_vars, clauses) else UNSAT)
    if out.status == SAT:
        for cl in clauses:
            assert any(out.model[f"v{abs(l)}"] == (l > 0) for l in cl), cl


def corpus_query(name, phase, k):
    """The CNF the driver discharges for one corpus program, phase and k."""
    g = load_program(str(corpus_path(name)), KInductionConfig())
    return bitblast(encode(to_ssa(unwind(g, k, phase)), phase))


def read_dimacs(name):
    """A gzipped DIMACS file from tests/data as a CnfInstance."""
    num_vars, clauses = 0, []
    with gzip.open(DATA / name, "rt") as fh:
        for line in fh:
            if line.startswith("p cnf "):
                num_vars = int(line.split()[2])
            elif not line.startswith("c"):
                *lits, end = map(int, line.split())
                assert end == 0
                clauses.append(lits)
    return CnfInstance(num_vars, clauses)


# Recorded before the solver core moved to literal-indexed arrays; any
# change to a decision, propagation or learned clause moves these counts.
# The two corpus queries are stored as the blaster then built them, when
# every SSA definition was an asserted equality (mod_wrong_bug.mc BASE k=7
# and fig1_unsigned.mc INDUCTIVE k=2), so they pin the search whatever the
# blaster does now.
SEARCH_GOLDENS = [
    (lambda: solve(php(5, 4)), (UNSAT, 38, 28, 297)),
    (lambda: solve(php(6, 5)), (UNSAT, 186, 151, 1782)),
    (lambda: solve(php(6, 5), conflict_limit=3), (BUDGET, 13, 3, 44)),
    (lambda: solve(read_dimacs("mod_wrong_bug_base_k7.cnf.gz")),
     (SAT, 333, 7, 12610)),
    (lambda: solve(read_dimacs("fig1_unsigned_inductive_k2.cnf.gz")),
     (UNSAT, 64, 33, 11935)),
]


@pytest.mark.parametrize("run,expected", SEARCH_GOLDENS)
def test_search_steps_match_goldens(run, expected):
    out = run()
    assert (out.status, out.decisions, out.conflicts,
            out.propagations) == expected


def test_stored_queries_have_their_recorded_size():
    sizes = [(c.num_vars, len(c.clauses)) for c in (
        read_dimacs("mod_wrong_bug_base_k7.cnf.gz"),
        read_dimacs("fig1_unsigned_inductive_k2.cnf.gz"))]
    assert sizes == [(8175, 25818), (1468, 3918)]


# The same two queries as the blaster builds them now, with every SSA
# definition bound to its bits and adders, comparators and equality tests
# built from majority, parity and n-ary gates: (vars, clauses) and the
# search counts.  The goal is an assumption, not a unit clause, so each
# query has one clause fewer than when it was one; the UNSAT answer
# propagates the goal's negation at level 0 once more.  Decisions and
# conflicts are those the goal made as a unit clause.  Re-recorded when SSA
# conversion began walking the unwound tree: a join restores its entry
# guard instead of OR-ing the guards of its branches.  Re-recorded when a
# constant divisor stopped drawing a divide-by-zero symbol (fewer free
# variables, same clauses) and stutter shadows became unguarded aliases.
# Re-recorded when a power-of-two divisor became bit slices: the BASE
# query's `% 8` is wired, not divided.  Re-recorded when a comparison
# with a constant became a zero test of its high bits and a short carry
# chain: fig1_unsigned's `x > 0` and `x == 0` are now one gate.
@pytest.mark.parametrize("name,phase,k,size,expected", [
    ("mod_wrong_bug.mc", Phase.BASE, 7, (744, 2841), (SAT, 37, 6, 1447)),
    ("fig1_unsigned.mc", Phase.INDUCTIVE, 2, (329, 1133), (UNSAT, 64, 4, 283)),
])
def test_bound_query_goldens(name, phase, k, size, expected):
    cnf = corpus_query(name, phase, k)
    out = solve(cnf)
    assert (cnf.num_vars, len(cnf.clauses)) == size
    assert (out.status, out.decisions, out.conflicts,
            out.propagations) == expected


FACTOR = """int main() {
  unsigned int a = *, b = *;
  assume(a > 1);
  assume(b > 1);
  assume(a < 1024);
  assume(b < 1024);
  assert(a * b != 524287);
  return 0;
}
"""


def test_factoring_query_golden():
    # 524287 is prime, so the BASE query is UNSAT, and its 557 conflicts
    # pass several Luby restarts and learn clauses long enough to move
    # their watches, which the goldens above (4 to 6 conflicts) never do.
    g = compile_mc(FACTOR)
    cnf = bitblast(encode(to_ssa(unwind(g, 1, Phase.BASE)), Phase.BASE))
    out = solve(cnf)
    assert (cnf.num_vars, len(cnf.clauses)) == (1594, 8467)
    assert (out.status, out.decisions, out.conflicts,
            out.propagations) == (UNSAT, 742, 557, 42284)


def test_search_golden_model():
    out = solve(corpus_query("mod_wrong_bug.mc", Phase.BASE, 7))
    k = {f"k!{i}": 7 - i for i in range(8)}
    i = {f"i!{i}": i for i in range(8)}
    assert out.model == {"nd0": 7, "main.ret!0": 0, **k, **i}


def test_solve_leaves_cnf_intact_and_repeats_exactly():
    cnf = corpus_query("fig1_unsigned.mc", Phase.INDUCTIVE, 2)
    before = copy.deepcopy(cnf.clauses)
    runs = [solve(cnf) for _ in range(2)]
    assert cnf.clauses == before
    counts = [(r.status, r.decisions, r.conflicts, r.propagations)
              for r in runs]
    assert counts[0] == counts[1]


def assert_heap_exact(engine):
    """Each free variable has an entry keyed by its current activity and
    none keyed higher; no entry repeats."""
    order = set(engine.order)
    assert len(order) == len(engine.order)
    for v in range(1, engine.n + 1):
        if engine.val[v] == 0:
            assert (-engine.activity[v], v) in order
            assert all(key >= -engine.activity[v]
                       for key, u in order if u == v)


@pytest.mark.parametrize("var_inc", [1.0, 1e99])
def test_vsids_heap_stays_exact(var_inc):
    # With var_inc at 1e99 a few bumps pass the rescale threshold.
    engine = _Cdcl(30, php(6, 5).clauses)
    engine.var_inc = var_inc
    assert engine.solve(60) == BUDGET
    assert_heap_exact(engine)
    if var_inc > 1.0:
        assert engine.var_inc < 1e90 and max(engine.activity) < 1e100


@pytest.mark.parametrize("pigeons,holes,expected",
                         [(5, 4, UNSAT), (4, 4, SAT)])
def test_activity_rescale_keeps_answers(pigeons, holes, expected):
    cnf = php(pigeons, holes)
    engine = _Cdcl(cnf.num_vars, cnf.clauses)
    engine.var_inc = 1e99
    assert engine.solve(10 ** 6) == expected


U8 = IntType(8, False)


def literal_formula():
    """Definitions that blast to negated literals (y), to constants (c, s)
    and to a mix of both (m); the goal pins x through y alone."""
    x = var("x", U8)
    not_x = Unary("~", x, ty=U8)
    defs = [
        ("y", not_x),
        ("c", Const(5, ty=U8)),
        ("s", Const(-3, ty=S4)),
        ("m", Binary("|", Binary("&", not_x, Const(0xF0, ty=U8), ty=U8),
                     Const(0x05, ty=U8), ty=U8)),
    ]
    goal = Binary("==", var("y", U8), Const(0xC3, ty=U8), ty=B1)
    return formula(goal, {"x": U8, "y": U8, "c": U8, "s": S4, "m": U8}, defs)


def test_definitions_bind_to_literals_and_constants():
    f = literal_formula()
    cnf = bitblast(f)
    x_bits = cnf.bits["x"]
    assert cnf.bits["y"] == [-v for v in x_bits]
    assert cnf.bits["c"] == [TRUE_LIT, FALSE_LIT, TRUE_LIT] + [FALSE_LIT] * 5
    m = cnf.bits["m"]
    assert m[:4] == [TRUE_LIT, FALSE_LIT, TRUE_LIT, FALSE_LIT]
    assert m[4:] == [-v for v in x_bits[4:]]
    out = solve(cnf)
    assert out.status == SAT
    assert out.model == {"x": 0x3C, "y": 0xC3, "c": 5, "s": -3, "m": 0xC5}
    assert satisfies(f, out.model)


def test_emit_dimacs_names_literals():
    cnf = bitblast(literal_formula())
    lines = emit_dimacs(cnf).splitlines()
    comments = [l for l in lines if l.startswith("c ")]
    named = {}
    for line in comments:
        got = re.fullmatch(r"c (-?\d+) = (\w+)\[(\d+)\]", line)
        assert got, line
        lit = int(got[1])
        assert 1 <= abs(lit) <= cnf.num_vars
        named[(got[2], int(got[3]))] = lit
    assert named == {(n, i): lit for n in cnf.symbols
                     for i, lit in enumerate(cnf.bits[n])}
    assert [abs(int(l.split()[1])) for l in comments] == \
        sorted(abs(int(l.split()[1])) for l in comments)
    body = lines[len(comments):]
    assert body[0] == f"p cnf {cnf.num_vars} {len(cnf.clauses) + 1}"
    assert len(body) == len(cnf.clauses) + 2
    assert body[-1] == f"{cnf.goal} 0"   # the goal as a unit clause


def test_emit_smtlib_defines_bound_names():
    text = emit_smtlib(literal_formula())
    lines = text.splitlines()
    assert all(l.count("(") == l.count(")") for l in lines)
    assert [l for l in lines if l.startswith("(declare-const")] == \
        ["(declare-const x (_ BitVec 8))"]
    defs = [l for l in lines if l.startswith("(define-fun")]
    assert [l.split()[1] for l in defs] == ["y", "c", "s", "m"]
    assert defs[0] == "(define-fun y () (_ BitVec 8) (bvnot x))"
    assert defs[2] == "(define-fun s () (_ BitVec 4) (_ bv13 4))"
    assert lines[-3:] == ["(assert (distinct (ite (= y (_ bv195 8)) (_ bv1 1) (_ bv0 1)) (_ bv0 1)))",
                          "(check-sat)", "(get-model)"]


# Three running sums over a nondeterministic start: at k=400 the guard
# chain inside each definition and the assume prefix of the obligation
# are far deeper than Python's default recursion limit.
DEEP_LOOP = """int main() {
  unsigned char i = 0;
  unsigned char a = *;
  unsigned char b = 0;
  unsigned char c = 0;
  while (i < 100) {
    a = a + 1;
    b = b + a;
    c = c ^ b;
    i = i + 1;
  }
  assert(c != 254);
  return 0;
}
"""


@pytest.mark.parametrize("phase", list(Phase))
def test_deep_unwinding_bitblasts(phase):
    g = compile_mc(DEEP_LOOP)
    cnf = bitblast(encode(to_ssa(unwind(g, 400, phase)), phase))
    assert cnf.num_vars > 8 and cnf.goal != FALSE_LIT


@pytest.mark.parametrize("phase", list(Phase))
def test_deep_unwinding_flattens(phase):
    # Each loop copy nests one IfItem; flattening them used to recurse.
    u = unwind(compile_mc(DEEP_LOOP), 1000, phase)
    assert sum(ins.op == "COND_GOTO" for ins in u.body.instructions) >= 1000


@pytest.mark.parametrize("phase", list(Phase))
def test_deep_unwinding_emits_smtlib(phase):
    # Rendering a guard chain used to take a stack frame per loop copy;
    # 60 frames above the caller's are far fewer than k=50 copies need.
    g = compile_mc(DEEP_LOOP)
    f = encode(to_ssa(unwind(g, 50, phase)), phase)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        text = emit_smtlib(f)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("(") == text.count(")")
    assert sum(l.startswith("(define-fun") for l in text.splitlines()) \
        == len(f.definitions)


# Gate truth tables.  The blaster's variables 2, 3 and 4 stand for the
# inputs x, y and z; the pool holds both constants and both polarities of
# each, so the input triples meet every folding rule.
X, Y, Z = 2, 3, 4
POOL = [TRUE_LIT, FALSE_LIT, X, -X, Y, -Y, Z, -Z]


def input_blaster():
    bl = _Blaster()
    bl.num_vars = Z
    return bl


def lit_value(lit, row):
    """The truth of `lit` when bit i of `row` is the value of input i."""
    v = 1 if abs(lit) == TRUE_LIT else (row >> (abs(lit) - X)) & 1
    return bool(v) == (lit > 0)


def assert_defines(bl, out, inputs, fn):
    """With every input fixed, the clauses force `out` to fn(inputs)."""
    for row in range(8):
        units = [[v if (row >> (v - X)) & 1 else -v] for v in (X, Y, Z)]
        want = out if fn(*(lit_value(l, row) for l in inputs)) else -out
        assert brute_sat(bl.num_vars, bl.clauses + units + [[want]]), inputs
        assert not brute_sat(bl.num_vars, bl.clauses + units + [[-want]]), inputs


def folds(inputs):
    """A constant input, or two inputs over one variable."""
    vs = [abs(l) for l in inputs]
    return TRUE_LIT in vs or len(set(vs)) < len(vs)


@pytest.mark.parametrize("gate,fn,size", [
    ("g_maj", lambda a, b, c: a + b + c >= 2, 6),
    ("g_parity", lambda a, b, c: (a + b + c) % 2 == 1, 8),
], ids=["majority", "parity"])
def test_three_input_gate_truth_tables(gate, fn, size):
    for inputs in itertools.product(POOL, repeat=3):
        bl = input_blaster()
        out = getattr(bl, gate)(*inputs)
        assert_defines(bl, out, inputs, fn)
        added = len(bl.clauses) - 1
        if folds(inputs):
            # The majority folds to one AND/OR at most, the parity to XORs.
            if gate == "g_maj":
                assert added <= 3
            else:
                assert all(len(c) <= 3 for c in bl.clauses)
        else:
            assert (bl.num_vars - Z, added) == (1, size)
            # Any order of the same inputs hits the cache.
            assert getattr(bl, gate)(*reversed(inputs)) == out
            assert len(bl.clauses) - 1 == size


@pytest.mark.parametrize("gate,fn", [
    ("g_and_n", lambda *v: all(v)),
    ("g_or_n", lambda *v: any(v)),
], ids=["and", "or"])
def test_n_ary_gate_truth_tables(gate, fn):
    unit = TRUE_LIT if gate == "g_and_n" else FALSE_LIT
    for n in range(4):
        for inputs in itertools.product(POOL, repeat=n):
            bl = input_blaster()
            out = getattr(bl, gate)(list(inputs))
            assert_defines(bl, out, inputs, fn)
            left = set(inputs) - {unit}
            added = len(bl.clauses) - 1
            if -unit in left or any(-l in left for l in left):
                assert (out, added) == (-unit, 0)  # absorbing input
            elif len(left) < 2:
                assert added == 0 and out == (left.pop() if left else unit)
            elif len(left) == 2:
                assert added == 3  # the 2-input gate
            else:
                assert (bl.num_vars - Z, added) == (1, len(left) + 1)
    bl = input_blaster()
    out = bl.g_and_n([X, -Y, Z])
    assert bl.g_and_n([Z, X, -Y, X, TRUE_LIT]) == out
    assert bl.g_or_n([-X, Y, -Z]) == -out
    assert len(bl.clauses) - 1 == 4


# Every operator the blaster handles, at width 4 over all inputs, against
# the evaluator: one CNF per operator, x and y fixed by unit clauses.
BOOL_OPS = ("==", "!=", "<", ">", "<=", ">=", "&&", "||")
BINARY_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>") + BOOL_OPS


def solve_with_inputs(cnf, values, width):
    """Solve `cnf` with each named input's `width` bits fixed by units."""
    units = [[lit if (v >> i) & 1 else -lit]
             for n, v in values.items()
             for i, lit in enumerate(cnf.bits[n][:width])]
    return solve(CnfInstance(cnf.num_vars, cnf.clauses + units,
                             cnf.bits, cnf.symbols))


def assert_operator_matches_evaluator(e, ty, names):
    cnf = bitblast(formula(Const(1, ty=B1), {**{n: ty for n in names},
                                             "r": e.ty}, [("r", e)]))
    for values in itertools.product(range(1 << ty.width), repeat=len(names)):
        model = {n: ty.wrap(v) for n, v in zip(names, values)}
        out = solve_with_inputs(cnf, dict(zip(names, values)), ty.width)
        assert out.status == SAT
        assert out.model == {**model, "r": eval_formula(e, model)}, model


@pytest.mark.parametrize("ty", [U4, S4], ids=["unsigned", "signed"])
@pytest.mark.parametrize("op", BINARY_OPS)
def test_binary_operator_matches_evaluator(op, ty):
    e = Binary(op, var("x", ty), var("y", ty), ty=B1 if op in BOOL_OPS else ty)
    assert_operator_matches_evaluator(e, ty, ("x", "y"))


@pytest.mark.parametrize("ty", [U4, S4], ids=["unsigned", "signed"])
@pytest.mark.parametrize("op", ["-", "~", "!"])
def test_unary_operator_matches_evaluator(op, ty):
    e = Unary(op, var("x", ty), ty=B1 if op == "!" else ty)
    assert_operator_matches_evaluator(e, ty, ("x",))


U8 = IntType(8, False)
S8 = IntType(8, True)


# A constant divisor over every dividend: each divisor at width 4 (zero,
# powers of two, the rest, and negative ones signed), each power-of-two
# bit pattern at width 8 (signed 128 is -128 and takes the divider).
@pytest.mark.parametrize("ty", [U4, S4, U8, S8], ids=["u4", "s4", "u8", "s8"])
@pytest.mark.parametrize("op", ["/", "%"])
def test_constant_divisor_matches_evaluator(op, ty):
    divisors = range(16) if ty.width == 4 else [1 << s for s in range(8)]
    for c in divisors:
        e = Binary(op, var("x", ty), Const(c, ty=ty), ty=ty)
        assert_operator_matches_evaluator(e, ty, ("x",))


@pytest.mark.parametrize("op", ["/", "%"])
def test_unsigned_power_of_two_divisor_adds_no_gate(op):
    # The divisor may be a cast constant or a name bound to constant bits:
    # the blaster reads the bits, not the node.
    x = var("x", U8)
    plain = bitblast(formula(Const(1, ty=B1), {"x": U8, "r": U8}, [("r", x)]))
    for divisor in (Const(8, ty=U8), Cast(U8, Const(8, ty=S8), ty=U8),
                    var("c", U8)):
        cnf = bitblast(formula(Const(1, ty=B1), {"x": U8, "c": U8, "r": U8}, [
            ("c", Const(8, ty=U8)), ("r", Binary(op, x, divisor, ty=U8))]))
        assert (cnf.num_vars, cnf.clauses) == (plain.num_vars, plain.clauses)
        x_bits, r_bits = cnf.bits["x"], cnf.bits["r"]
        assert r_bits == (x_bits[3:] + [FALSE_LIT] * 3 if op == "/"
                          else x_bits[:3] + [FALSE_LIT] * 5)


U6 = IntType(6, False)
S6 = IntType(6, True)


@pytest.mark.parametrize("ty", [U6, S6], ids=["unsigned", "signed"])
def test_comparison_with_a_constant_matches_evaluator(ty):
    # Every ordering operator against every constant, on either side, in
    # one CNF solved once per value of x.
    x = var("x", ty)
    exprs = [Binary(op, *pair, ty=B1)
             for op in ("<", "<=", ">", ">=")
             for c in range(1 << ty.width)
             for pair in ((x, Const(ty.wrap(c), ty=ty)),
                          (Const(ty.wrap(c), ty=ty), x))]
    names = [f"r{i}" for i in range(len(exprs))]
    cnf = bitblast(formula(Const(1, ty=B1), {"x": ty, **dict.fromkeys(names, B1)},
                           list(zip(names, exprs))))
    for value in range(1 << ty.width):
        model = {"x": ty.wrap(value)}
        out = solve_with_inputs(cnf, {"x": value}, ty.width)
        assert out.status == SAT
        assert out.model == {**model, **{n: eval_formula(e, model)
                                         for n, e in zip(names, exprs)}}


def test_zero_tests_share_one_literal():
    # x > 0, 0 < x, x >= 1, x != 0 and `if (x)` are one literal, and
    # x == 0, x < 1, x <= 0 and !x its negation: the n-ary OR of x's bits.
    x = var("x", U8)

    def c(v):
        return Const(v, ty=U8)

    nonzero = [Binary(">", x, c(0), ty=B1), Binary("<", c(0), x, ty=B1),
               Binary(">=", x, c(1), ty=B1), Binary("!=", x, c(0), ty=B1),
               Cond(cond=x, then=Const(1, ty=B1), els=Const(0, ty=B1), ty=B1)]
    zero = [Binary("==", x, c(0), ty=B1), Binary("<", x, c(1), ty=B1),
            Binary("<=", x, c(0), ty=B1), Unary("!", x, ty=B1)]
    names = [f"r{i}" for i in range(len(nonzero + zero))]
    cnf = bitblast(formula(Const(1, ty=B1), {"x": U8, **dict.fromkeys(names, B1)},
                           list(zip(names, nonzero + zero))))
    is_zero = cnf.num_vars   # the one gate: x's 8 free bits, then it
    assert [cnf.bits[n][0] for n in names] == \
        [-is_zero] * len(nonzero) + [is_zero] * len(zero)
    assert (cnf.num_vars, len(cnf.clauses)) == (1 + 8 + 1, 1 + 9)


def test_one_session_keeps_signedness_apart():
    # The node table is keyed by operand bits, and x and y keep their
    # free bits in every query of a session: U4 and S4 operators (and
    # casts of unsigned and signed x) differ only in their key's type and
    # signedness, so each must still blast to its own gates.
    session = Session()
    cnfs, results = [], {}
    for ty in (U4, S4):
        x, y = var("x", ty), var("y", ty)
        exprs = [Binary(op, x, y, ty=B1 if op in BOOL_OPS else ty)
                 for op in BINARY_OPS]
        exprs += [Unary(op, x, ty=B1 if op == "!" else ty) for op in "-~!"]
        for wide in (U8, S8):
            up = Cast(wide, x, ty=wide)
            exprs += [up, Cast(ty, up, ty=ty), Cast(ty, Cast(wide, y, ty=wide), ty=ty)]
        names = {f"r{len(results) + i}": e for i, e in enumerate(exprs)}
        cnfs.append(bitblast(formula(Const(1, ty=B1), {
            "x": ty, "y": ty, **{n: e.ty for n, e in names.items()}},
            list(names.items())), session))
        results.update((n, (e, ty)) for n, e in names.items())
    assert cnfs[0].bits["x"][3] == cnfs[1].bits["x"][3]
    bits = {**cnfs[0].bits, **cnfs[1].bits}
    cnf = CnfInstance(cnfs[1].num_vars, cnfs[1].clauses, bits,
                      {n: e.ty for n, (e, _) in results.items()})
    for vx, vy in itertools.product(range(16), repeat=2):
        units = [[lit if (v >> i) & 1 else -lit]
                 for v, bits in ((vx, session.free["x"]), (vy, session.free["y"]))
                 for i, lit in enumerate(bits)]
        out = solve(CnfInstance(cnf.num_vars, cnf.clauses + units,
                                cnf.bits, cnf.symbols))
        assert out.status == SAT
        for n, (e, ty) in results.items():
            env = {"x": ty.wrap(vx), "y": ty.wrap(vy)}
            assert out.model[n] == eval_formula(e, env), (n, e, env)


def test_engine_growth_keeps_literal_slots():
    # Variable 2 is true at level 0 before the engine grows from 3 to 6
    # variables; the new clauses need the new slots and the old units.
    engine = _Cdcl(3, [[2], [-2, 3], [1, 3]])
    assert engine.solve(100) == SAT
    assert_heap_exact(engine)
    engine.add(6, [[-3, 4, 5], [-4, -6], [6]])
    assert (len(engine.val), len(engine.watches)) == (13, 13)
    assert len(engine.level) == len(engine.activity) == len(engine.pushed) == 7
    assert (engine.val[2], engine.val[-2], engine.val[3], engine.val[-3]) \
        == (1, -1, 1, -1)
    assert engine.val[6] == 1 and engine.val[-6] == -1   # the new unit
    assert all(engine.val[v] == engine.val[-v] == 0 for v in (1, 4, 5))
    assert engine.watches[-4] == [[-4, -6]]
    assert_heap_exact(engine)
    assert engine.solve(100) == SAT
    model = {v: engine.val[v] == 1 for v in range(1, 7)}
    assert model[2] and model[3] and model[5] and model[6] and not model[4]
    assert_heap_exact(engine)


def test_session_shares_copies_and_free_bits():
    g = compile_mc(DEEP_LOOP)
    session = Session()
    sizes = []
    for k in (3, 4):
        f = encode(to_ssa(unwind(g, k, Phase.BASE)), Phase.BASE)
        cnf = bitblast(f, session)
        sizes.append(len(cnf.clauses))
        fresh = bitblast(f)
        assert cnf.bits["nd0"][0] == session.free["nd0"][0]
        assert solve(cnf, session=session).status == solve(fresh).status
    # k=4 adds one copy's gates to k=3's, far fewer than a fresh k=4.
    assert sizes[1] - sizes[0] < len(fresh.clauses) / 2


def test_session_blasts_shared_copies_once():
    # The node table outlives each query, so a copy that an earlier query
    # of the session blasted builds no node: only the new copy and the
    # new tail are built, one table entry each.
    g = compile_mc(DEEP_LOOP)

    def nodes_built(k, session=None):
        session = session or Session()
        before = len(session.blaster.nodes)
        bitblast(encode(to_ssa(unwind(g, k, Phase.BASE)), Phase.BASE), session)
        return len(session.blaster.nodes) - before

    session = Session()
    n3 = nodes_built(3, session)
    n4 = nodes_built(4, session)
    assert nodes_built(4, session) == 0
    assert 0 < n4 < n3 / 2 and n4 < nodes_built(4) / 2
    # A copy is a fixed number of nodes, so its share drops as k grows.
    n30 = nodes_built(30, session)
    assert nodes_built(31, session) == n4 < n30 / 10


def test_sat_answer_keeps_its_heap_entries():
    # A SAT answer assigns every variable and pops no heap entry, so the
    # next query's backtrack has none to push again; the heap must still
    # key every freed variable by its activity.
    g = compile_mc(DEEP_LOOP)
    session = Session()
    engine = session.engine

    def query(k, phase):
        f = encode(to_ssa(unwind(g, k, phase)), phase)
        return solve(bitblast(f, session), session=session).status

    assert query(3, Phase.FORWARD) == SAT     # the loop runs on past k
    assert len(engine.trail) == engine.n and engine.order
    assert query(3, Phase.BASE) == UNSAT      # no exit within 3 copies
    assert not engine.trail_lim and any(v == 0 for v in engine.val[1:engine.n + 1])
    assert_heap_exact(engine)
    assert query(4, Phase.FORWARD) == SAT
    engine.backtrack(0)
    assert_heap_exact(engine)


@pytest.mark.parametrize("name", ["fig1_unsigned.mc", "assert_inside.mc",
                                  "mod_wrong_bug.mc", "two_loops.mc"])
def test_resumed_queries_blast_to_the_same_cnf(name):
    # One session resumes each conversion from its family's last state,
    # the other converts and blasts every query in full.  Both see every
    # phase, so the first switches between the two families' states and
    # blasts in full a query whose state it did not keep last.
    g = load_program(str(corpus_path(name)), KInductionConfig())
    resumed, full = Session(), Session()
    snapshots = {False: None, True: None}   # per phase family
    for k in range(1, 9):
        for phase in (Phase.FORWARD, Phase.INDUCTIVE, Phase.BASE):
            if k == 1 and phase is not Phase.BASE:
                continue
            u = unwind(g, k, phase)
            family = phase is Phase.INDUCTIVE
            s = to_ssa(u, None, snapshots[family])
            snapshots[family] = s.captured or snapshots[family]
            a = bitblast(encode(s, phase), resumed)
            b = bitblast(encode(to_ssa(u), phase), full)
            assert (a.num_vars, a.clauses, a.goal) == (b.num_vars, b.clauses, b.goal)
            assert dict(a.bits) == dict(b.bits)


def test_repeated_unsat_goal_is_not_searched():
    session = Session()
    f = fig1_formula(2, Phase.BASE)
    first = solve(bitblast(f, session), session=session)
    assert first.status == UNSAT and first.decisions + first.conflicts > 0
    again = solve(bitblast(f, session), session=session)
    assert (again.status, again.decisions, again.conflicts,
            again.propagations) == (UNSAT, 0, 0, 0)


@pytest.mark.parametrize("stage", ["load_program", "infer_invariants",
                                   "unwind", "to_ssa", "bitblast", "search"])
def test_expired_deadline_stops_the_stage(stage, tmp_path):
    # Each stage that polls the clock, given a deadline already past,
    # raises at its first poll, long before its work is done.  The model
    # extension has its own test below.
    g = compile_mc(DEEP_LOOP)
    session = Session()
    if stage == "load_program":
        path = tmp_path / "deep.mc"
        path.write_text(DEEP_LOOP)
        run = lambda d: load_program(str(path), KInductionConfig(), d)
    elif stage == "infer_invariants":
        run = lambda d: infer_invariants(g, d)
    elif stage == "unwind":
        run = lambda d: unwind(g, 400, Phase.BASE, d)
    elif stage == "to_ssa":
        u = unwind(g, 400, Phase.BASE)
        run = lambda d: to_ssa(u, d)
    elif stage == "bitblast":
        f = encode(to_ssa(unwind(g, 400, Phase.BASE)), Phase.BASE)
        run = lambda d: bitblast(f, session, d)
    else:
        run = lambda d: solve(php(8, 7), deadline=d)
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        run(time.monotonic() - 1.0)
    assert time.monotonic() - start < 0.5
    assert session.blaster.num_vars < 100   # bitblast stopped before the copies


def test_expired_deadline_stops_model_extension():
    # The FORWARD queries at k=3 and k=90 are SAT (the loop runs on past
    # k), so the session keeps the first one's model; extending it over
    # the second query's copies stops at its first check, before any
    # clause, raises, and keeps the model as it was.
    g = compile_mc(DEEP_LOOP)
    session = Session()

    def query(k):
        return bitblast(encode(to_ssa(unwind(g, k, Phase.FORWARD)), Phase.FORWARD),
                        session)

    assert solve(query(3), session=session).status == SAT
    kept = len(session.model)
    cnf = query(90)
    before = session.engine.decisions + session.engine.propagations
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        solve(cnf, deadline=time.monotonic() - 1.0, session=session)
    assert time.monotonic() - start < 0.5
    assert session.engine.decisions + session.engine.propagations == before
    assert len(session.model) == kept and session.loaded < len(cnf.clauses)
    again = solve(cnf, session=session)
    assert (again.status, again.decisions, again.conflicts,
            again.propagations) == (SAT, 0, 0, 0)


def assert_model_of(values, clauses, goal):
    """Every clause has a true literal under the per-variable `values`,
    and so has the goal."""
    def true(lit):
        return (values[lit] if lit > 0 else -values[-lit]) == 1
    for cl in clauses:
        assert any(true(lit) for lit in cl), cl
    assert goal is None or true(goal)


def one_bit_query(session, goal, **symbols):
    """Blast `goal` over the 1-bit names `symbols` (name -> definition,
    or None for a free name) in `session`."""
    bits = {n: var(n, B1) for n in symbols}
    return bitblast(formula(goal(bits), dict.fromkeys(symbols, B1),
                            [(n, e(bits)) for n, e in symbols.items()
                             if e is not None]), session)


def test_sat_answer_extends_the_last_model():
    # The second query adds one XOR gate over a new free bit y: x keeps its
    # value from the first answer, y is set false, and the gate's clauses
    # then set its output, so the goal holds without a search.
    session = Session()
    first = solve(one_bit_query(session, lambda b: b["x"], x=None),
                  session=session)
    assert first.status == SAT and first.propagations > 0
    cnf = one_bit_query(session, lambda b: b["g"], x=None, y=None,
                        g=lambda b: Binary("^", b["x"], b["y"], ty=B1))
    assert len(cnf.clauses) == session.loaded + 4
    out = solve(cnf, session=session)
    assert (out.status, out.decisions, out.conflicts,
            out.propagations) == (SAT, 0, 0, 0)
    assert out.values is session.model
    assert_model_of(out.values, cnf.clauses, cnf.goal)
    assert out.model == {"x": 1, "y": 0, "g": 1}
    assert session.loaded < len(cnf.clauses)   # the next search loads them


def test_clause_with_two_open_literals_drops_the_model(monkeypatch):
    # A clause over two new variables that no free name holds is not a
    # gate definition: one pass cannot set either, so the model is
    # dropped and the query is searched.
    session = Session()
    cnf = one_bit_query(session, lambda b: b["x"], x=None)
    assert solve(cnf, session=session).status == SAT
    bl = session.blaster
    a, b = bl.new_var(), bl.new_var()
    bl.clauses += ([a, b], [-a, b])
    cnf = CnfInstance(bl.num_vars, list(bl.clauses), cnf.bits, cnf.symbols,
                      cnf.goal)
    dropped = []
    real = solver._extend

    def extend(*args):
        status = real(*args)
        dropped.append(session.model is None)
        return status

    monkeypatch.setattr(solver, "_extend", extend)
    out = solve(cnf, session=session)
    assert dropped == [True] and out.status == SAT and out.propagations > 0
    assert_model_of(out.values, cnf.clauses, cnf.goal)
    assert session.model is out.values and session.loaded == len(cnf.clauses)


def test_goal_false_in_the_extension_is_searched():
    # y, new and free, is set false, so the extension makes both goals
    # below false: x & y is SAT (y true), and (x & y) & !y is UNSAT.
    session = Session()
    assert solve(one_bit_query(session, lambda b: b["x"], x=None),
                 session=session).status == SAT

    def both(b):
        return Binary("&", b["x"], b["y"], ty=B1)

    cnf = one_bit_query(session, both, x=None, y=None)
    out = solve(cnf, session=session)
    assert out.status == SAT and out.propagations > 0
    assert_model_of(out.values, cnf.clauses, cnf.goal)
    assert out.model == {"x": 1, "y": 1}
    cnf = one_bit_query(session, lambda b: Binary(
        "&", both(b), Unary("!", b["y"], ty=B1), ty=B1), x=None, y=None)
    out = solve(cnf, session=session)
    assert out.status == UNSAT and out.conflicts + out.propagations > 0
    assert session.model is not None   # still a model of the clauses


def test_falsified_clause_drops_the_model():
    # A unit clause -x (not a gate definition) is false in the kept model,
    # where the goal x holds: the model is dropped, and the search finds
    # the goal UNSAT now.
    session = Session()
    cnf = one_bit_query(session, lambda b: b["x"], x=None)
    assert solve(cnf, session=session).model == {"x": 1}
    session.blaster.clauses.append([-cnf.bits["x"][0]])
    cnf = CnfInstance(cnf.num_vars, list(session.blaster.clauses), cnf.bits,
                      cnf.symbols, cnf.goal)
    out = solve(cnf, session=session)
    assert out.status == UNSAT and out.propagations > 0
    assert session.model is None


@pytest.mark.parametrize("seed", range(40))
def test_extension_never_answers_unsat(seed, monkeypatch):
    # Random clause sets grown step by step, each step's goal a literal:
    # the session's answer, extended or searched, is the fresh engine's,
    # every SAT values list is a model of the clauses and the goal, and the
    # pass itself answers only SAT or nothing.
    rng = random.Random(seed)
    session = Session()
    bl = session.blaster
    results = []
    real = solver._extend

    def extend(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_extend", extend)
    for _ in range(12):
        for _ in range(rng.randint(0, 2)):
            bl.new_var()
        for _ in range(rng.randint(0, 3) if bl.num_vars > 1 else 0):
            bl.clauses.append([rng.choice((1, -1)) * rng.randint(2, bl.num_vars)
                               for _ in range(rng.randint(1, 3))])
        goal = rng.choice((1, -1)) * rng.randint(1, bl.num_vars)
        cnf = CnfInstance(bl.num_vars, list(bl.clauses), goal=goal)
        out = solve(cnf, session=session)
        assert out.status == solve(cnf).status
        if out.status == SAT:
            assert_model_of(out.values, cnf.clauses, goal)
    assert UNSAT not in results and BUDGET not in results
