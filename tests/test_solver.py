"""Bitblasting, CDCL behavior, and the DIMACS/SMT-LIB emitters."""

import copy
import random
import shutil
import subprocess
import time

import pytest

from kinduct.driver import KInductionConfig, load_program
from kinduct.frontend import Binary, Const, IntType, Var
from kinduct.solver import (
    BUDGET, SAT, UNSAT, CnfInstance, SolverError, _Cdcl, _luby, bitblast,
    emit_dimacs, emit_smtlib, solve,
)
from kinduct.transform import Phase, unwind
from kinduct.vcgen import VcFormula, encode, to_ssa
from conftest import compile_mc, corpus_path

U4 = IntType(4, False)
S4 = IntType(4, True)
B1 = IntType(1, False)


def formula(shape, symbols):
    t = Const(1, ty=B1)
    return VcFormula(t, t, t, t, shape, symbols, Phase.BASE)


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
    bit_map = {(f"p{i}_{j}", 0): v(i, j)
               for i in range(pigeons) for j in range(holes)}
    symbols = {name: B1 for name, _ in bit_map}
    return CnfInstance(pigeons * holes, clauses, bit_map, symbols)


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
            for (s, i), v in cnf.bit_map.items()
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


def test_expired_deadline_yields_budget_status():
    start = time.monotonic()
    out = solve(php(8, 7), deadline=time.monotonic() - 1.0)
    assert out.status == BUDGET
    assert time.monotonic() - start < 5.0


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
    text = emit_smtlib(fig1_formula(2, Phase.BASE))
    assert text.startswith("(set-logic QF_BV)\n")
    assert text.count("(") == text.count(")")
    decls = [l for l in text.splitlines() if l.startswith("(declare-const")]
    assert decls == sorted(decls) and len(decls) >= 3
    assert text.rstrip().endswith("(get-model)")
    assert "(assert " in text


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
    bit_map = {(f"v{v}", 0): v for v in range(1, num_vars + 1)}
    return CnfInstance(num_vars, clauses, bit_map,
                       {name: B1 for name, _ in bit_map})


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


# Recorded before the solver core moved to literal-indexed arrays; any
# change to a decision, propagation or learned clause moves these counts.
SEARCH_GOLDENS = [
    (lambda: solve(php(5, 4)), (UNSAT, 38, 28, 297)),
    (lambda: solve(php(6, 5)), (UNSAT, 186, 151, 1782)),
    (lambda: solve(php(6, 5), conflict_limit=3), (BUDGET, 13, 3, 44)),
    (lambda: solve(corpus_query("mod_wrong_bug.mc", Phase.BASE, 7)),
     (SAT, 333, 7, 12610)),
    (lambda: solve(corpus_query("fig1_unsigned.mc", Phase.INDUCTIVE, 2)),
     (UNSAT, 64, 33, 11935)),
]


@pytest.mark.parametrize("run,expected", SEARCH_GOLDENS)
def test_search_steps_match_goldens(run, expected):
    out = run()
    assert (out.status, out.decisions, out.conflicts,
            out.propagations) == expected


def test_search_golden_model():
    out = solve(corpus_query("mod_wrong_bug.mc", Phase.BASE, 7))
    k = {f"k!{i}": 7 - i for i in range(8)}
    i = {f"i!{i}": i for i in range(8)}
    dz = {f"dz1@{i}": 0 for i in range(1, 8)}
    assert out.model == {"nd0": 7, "main.ret!0": 0, "main.ret!1": 0,
                         **k, **i, **dz}


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
