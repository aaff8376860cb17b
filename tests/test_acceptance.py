"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Each test is
self-contained and uses only public entry points plus the independent
helpers defined in the per-module test files.
"""

import random
import shutil
import subprocess
import time

import pytest

from kinduct import oracle
from kinduct.bench import parse_manifest, run_suite
from kinduct.driver import (
    FALSE, TRUE, KInductionConfig, base_case, forward_condition, kinduction,
    load_program, verify_file,
)
from kinduct.invariants import rewrite_expression, translate_invariants
from kinduct.solver import SAT, UNSAT, CnfInstance, bitblast, emit_smtlib, solve
from kinduct.transform import Phase, unwind
from kinduct.vcgen import encode, eval_formula, to_ssa
from conftest import CORPUS, corpus_entries, corpus_path

import test_invariants
from test_solver import brute_sat

MANIFEST = str(CORPUS / "manifest.tsv")


def test_01_inductive_step_proves_what_unrolling_cannot():
    """The motivating countdown loop: provable by the inductive step at
    small k, not provable by forward unrolling at any k up to 10."""
    start = time.monotonic()

    fig1 = str(corpus_path("fig1_unsigned.mc"))
    v = verify_file(fig1, KInductionConfig())
    assert v.status == TRUE
    assert v.decided_by == "INDUCTIVE"
    assert v.k_at_decision <= 5

    plain = KInductionConfig(invariants_mode="none")   # native 32-bit width
    g = load_program(fig1, plain)
    for k in range(1, 11):
        assert not forward_condition(g, k, plain), f"forward proved at k={k}"

    assert time.monotonic() - start < 10.0


def test_02_base_case_matches_exhaustive_enumeration():
    """At 8-bit widths and k <= 8, the solver-backed base case and a
    brute-force state enumerator agree on counterexample existence and
    on the earliest violating k, on every corpus program.  The forward
    condition agrees with the same enumeration at every k <= 8."""
    start = time.monotonic()
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    for path, expected, _cat in corpus_entries():
        g = load_program(str(path), cfg)
        ex = oracle.explore(g, 8)
        solver_k = next(
            (k for k in range(1, 9) if base_case(g, k, cfg) is not None),
            None)
        assert solver_k == ex.violation_k, (path.name, solver_k, ex.violation_k)
        for k in range(1, 9):
            assert forward_condition(g, k, cfg) == ex.forward_holds(k), \
                (path.name, k)
    assert time.monotonic() - start < 300.0


def test_03_no_incorrect_verdicts_and_traces_falsify():
    """Full corpus with builtin invariants: zero wrong answers in either
    direction, and every counterexample trace ends in a state that
    falsifies the reported assertion."""
    report = run_suite(parse_manifest(MANIFEST), KInductionConfig(), jobs=4)
    assert report.true_incorrect == 0
    assert report.false_incorrect == 0
    assert report.invalid == 0
    assert report.unknown_and_timeout == 0
    assert report.correct_proofs == 20
    assert report.bugs_found == 14

    cfg = KInductionConfig()
    for path, expected, _cat in corpus_entries():
        if expected != "unsafe":
            continue
        g = load_program(str(path), cfg)
        v = kinduction(g, cfg)
        assert v.status == FALSE, path.name
        trace = v.counterexample
        assert trace.states and trace.violated is not None
        claim = next(i.expr for i in g.instructions
                     if i.op == "ASSERT" and i.loc == trace.violated)
        assert eval_formula(claim, trace.states[-1]) == 0, path.name


def test_04_builtin_invariants_prove_strictly_more(tmp_path):
    """Instrumented invariants must increase the number of proofs, with
    at least three corpus programs making the difference."""
    safe_only = tmp_path / "safe.tsv"
    safe_only.write_text("".join(
        f"{path}\t{expected}\t{cat}\n"
        for path, expected, cat in corpus_entries() if expected == "safe"))
    manifest = parse_manifest(str(safe_only))

    outcomes = {}
    for mode in ("builtin", "none"):
        cfg = KInductionConfig(invariants_mode=mode, width_override=8,
                               max_iterations=20)
        report = run_suite(manifest, cfg, jobs=4)
        outcomes[mode] = {r.path: r.verdict for r in report.rows}

    proved = {mode: sum(1 for s in rows.values() if s == TRUE)
              for mode, rows in outcomes.items()}
    differentiators = [p for p, s in outcomes["builtin"].items()
                       if s == TRUE and outcomes["none"][p] != TRUE]
    assert proved["builtin"] > proved["none"]
    assert len(differentiators) >= 3, differentiators


def test_05_invariant_comment_translation_goldens():
    """Canonical comment translation is byte-exact, the implicit-product
    rewrite works, and the full 12-case golden suite passes."""
    out = translate_invariants(test_invariants.CANON_IN)
    assert out == test_invariants.CANON_OUT
    assert "int x_init = x;" in out
    assert "__ESBMC_assume(w==0 && x_init>10);" in out
    assert rewrite_expression("2j < 5t") == "2*j < 5*t"

    goldens = [getattr(test_invariants, f"test_golden_{i}_{suffix}")
               for i, suffix in enumerate([
                   "canonical_translation", "no_comments_is_identity",
                   "three_constraints_two_ands", "empty_constraints_no_statement",
                   "literal_adjacency_rewrite", "two_marked_vars_order",
                   "marked_parameter_type", "repeated_marker_single_snapshot",
                   "malformed_comment_skipped_and_reported",
                   "unknown_marked_variable_errors", "idempotent",
                   "two_functions_independent"], start=1)]
    assert len(goldens) == 12
    for case in goldens:
        case()


def test_06_score_weights_on_synthetic_tallies():
    from kinduct.bench import BenchReport, score
    tallies = [
        # (bugs, proofs, false alarms, wrong proofs) -> total
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 1),
        (0, 1, 0, 0, 2),
        (0, 0, 1, 0, -6),
        (0, 0, 0, 1, -12),
        (1, 2, 1, 0, -1),     # the worked example
        (3, 1, 0, 0, 5),
        (0, 5, 0, 1, -2),
        (4, 4, 1, 1, -6),
        (10, 10, 0, 0, 30),
    ]
    assert len(tallies) == 10
    for bugs, proofs, false_inc, true_inc, expected in tallies:
        report = BenchReport([], bugs_found=bugs, correct_proofs=proofs,
                             false_incorrect=false_inc, true_incorrect=true_inc)
        assert score(report) == expected, (bugs, proofs, false_inc, true_inc)


def test_07_sat_decisions_match_truth_tables():
    """10,000 random small CNFs against bit-parallel truth-table
    enumeration; plus, when an external SMT solver is installed, every
    corpus-generated query agrees with the built-in solver."""
    rng = random.Random(20260815)
    for case in range(10_000):
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 24)):
            width = rng.randint(1, min(3, n))
            clauses.append([rng.choice([-1, 1]) * v
                            for v in rng.sample(range(1, n + 1), width)])
        got = solve(CnfInstance(n, clauses)).status
        expected = SAT if brute_sat(n, clauses) else UNSAT
        assert got == expected, (case, n, clauses)

    if shutil.which("z3") is None:
        return
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    for path, _expected, _cat in corpus_entries():
        g = load_program(str(path), cfg)
        for phase in Phase:
            for k in (1, 2):
                f = encode(to_ssa(unwind(g, k, phase)), phase)
                ours = solve(bitblast(f)).status
                proc = subprocess.run(["z3", "-in"], input=emit_smtlib(f),
                                      capture_output=True, text=True)
                assert proc.stdout.split()[0] == ours.lower(), (path.name, phase, k)


def test_08_phase_sequences_are_exact():
    """Frozen (phase, k) logs for five fixtures, including the
    strengthened base-case re-check at k+5 after a tentative proof."""
    round_robin = [("base", 1)]
    for k in range(2, 11):
        round_robin += [("forward", k), ("inductive", k), ("base", k)]

    expected = {
        "fig1_unsigned": [("base", 1), ("forward", 2), ("inductive", 2),
                          ("base", 7)],
        "count_up": [("base", 1), ("forward", 2), ("inductive", 2),
                     ("base", 7)],
        "sum_progression": [("base", 1),
                            ("forward", 2), ("inductive", 2), ("base", 2),
                            ("forward", 3), ("inductive", 3), ("base", 3),
                            ("forward", 4), ("inductive", 4), ("base", 4),
                            ("forward", 5), ("base", 10)],
        "off_by_one": round_robin,
        "wrap_bug": [("base", 1)],
    }
    for name, log in expected.items():
        v = verify_file(str(corpus_path(name + ".mc")), KInductionConfig())
        assert v.phase_log == log, name
