"""The k-induction loop, counterexample replay, and program loading."""

import hashlib
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from kinduct import driver, goto_ir, oracle, solver
from kinduct.driver import (
    FALSE, INVARIANT_MODES, TRUE, UNKNOWN, KInductionConfig, ReplayError,
    Trace, _Checker, kinduction, load_program, reconstruct, verify_file,
)
from kinduct.interp import VIOLATION, SequentialProvider, run_goto
from kinduct.solver import SAT, UNSAT
from kinduct.transform import Phase, unwind
from kinduct.vcgen import to_ssa
from conftest import SUPERLOOP, compile_mc, corpus_entries, corpus_path
from test_solver import DEEP_LOOP

CLAMP = """int clamp(int x) {
  // P(x) {x#init >= 0, x#init <= 6}
  int steps = 0;
  while (x > 0) {
    x = x - 1;
    steps = steps + 1;
  }
  assert(steps <= 6);
  return steps;
}

int main() {
  int v = *;
  int r = clamp(v);
  return 0;
}
"""

# A CRC-8 kernel under a constant bound: unrolled twice, the loop is gone.
CRC2 = """int main() {
  unsigned char x = *;
  unsigned char c = x;
  unsigned int i = 0;
  while (i < 2) {
    if (c & 128) { c = (c << 1) ^ 7; } else { c = c << 1; }
    i = i + 1;
  }
  assert(c != 0 || x == 0);
  return 0;
}
"""

# An assertion in a loop nested in a do-while: the inner loop's head in the
# peeled first iteration sees x == 0, its head inside the loop 1 <= x <= 2.
DO_NESTED_BUG = """int main() { unsigned int x = 0; unsigned int i = 0;
  do { i = 0; while (i < 2) { assert(x != 0); i = i + 1; } x = x + 1; } while (x < 3);
  return 0; }
"""


def verify(name, **overrides):
    return verify_file(str(corpus_path(name)), KInductionConfig(**overrides))


@pytest.mark.parametrize("name,status,decided_by,k", [
    ("fig1_unsigned.mc", TRUE, "INDUCTIVE", 2),
    ("two_loops.mc", TRUE, "INDUCTIVE", 2),
    ("sum_progression.mc", TRUE, "FORWARD", 5),
    ("wrap_bug.mc", FALSE, "BASE", 1),
    ("off_by_one.mc", FALSE, "BASE", 10),
])
def test_corpus_spot_verdicts(name, status, decided_by, k):
    v = verify(name)
    assert (v.status, v.decided_by, v.k_at_decision) == (status, decided_by, k)
    assert v.reason is None


VERDICTS = Path(__file__).resolve().parent / "data" / "corpus_verdicts.txt"


@contextmanager
def query_digest():
    """Within the block, every query `driver.bitblast` blasts feeds the
    yielded digest, before the engine reorders any clause's literals:
    the query's variable count, its goal and the clauses its session
    gained."""
    real_bitblast = driver.bitblast
    digest = hashlib.blake2b(digest_size=8)
    seen = {}   # id of a session -> its clauses so far

    def blasting(f, session, *args):
        cnf = real_bitblast(f, session, *args)
        start = seen.get(id(session), 0)
        seen[id(session)] = len(cnf.clauses)
        digest.update(repr((cnf.num_vars, cnf.goal, cnf.clauses[start:])).encode())
        return cnf

    driver.bitblast = blasting
    try:
        yield digest
    finally:
        driver.bitblast = real_bitblast


@contextmanager
def search_digest():
    """Within the block, every query `driver.solve` answers feeds the
    yielded digest: its status and this query's decisions, conflicts and
    propagations."""
    real_solve = driver.solve
    digest = hashlib.blake2b(digest_size=8)

    def solving(*args):
        out = real_solve(*args)
        digest.update(repr((out.status, out.decisions, out.conflicts,
                            out.propagations)).encode())
        return out

    driver.solve = solving
    try:
        yield digest
    finally:
        driver.solve = real_solve


def run_line(path: Path, cfg: KInductionConfig) -> str:
    """status, decided_by, k, the violated location, the phase log, the
    counterexample's states, a digest of the run's queries' CNFs and one
    of their search counts."""
    with query_digest() as digest, search_digest() as search:
        v = verify_file(str(path), cfg)
    cex = v.counterexample
    phases = " ".join(f"{phase}:{k}" for phase, k in v.phase_log)
    states = ";".join(",".join(f"{var}={val}" for var, val in sorted(s.items()))
                      for s in cex.states) if cex else "-"
    return (f"{path.name} {cfg.invariants_mode} {v.status} {v.decided_by} "
            f"{v.k_at_decision} {cex.violated if cex else '-'} [{phases}] "
            f"cex=[{states}] cnf={digest.hexdigest()} "
            f"search={search.hexdigest()}")


def corpus_verdict_dump() -> str:
    """`run_line` for every corpus program and invariants mode, at k_max 25."""
    return "".join(run_line(path, KInductionConfig(max_iterations=25,
                                                   invariants_mode=mode)) + "\n"
                   for path, _expected, _cat in corpus_entries()
                   for mode in INVARIANT_MODES)


def test_corpus_verdicts_match_golden():
    """Every corpus verdict, phase sequence, counterexample, query CNF
    and search is pinned.  A change that means to alter them re-records
    the file, from the repository root:
    PYTHONPATH=src:tests python -c "import test_driver as t;
    t.VERDICTS.write_text(t.corpus_verdict_dump())"
    """
    assert corpus_verdict_dump() == VERDICTS.read_text()


def test_proof_runs_strengthened_recheck():
    v = verify("fig1_unsigned.mc")
    assert v.phase_log == [
        ("base", 1), ("forward", 2), ("inductive", 2), ("base", 7),
    ]


def test_counterexample_trace_fig1_bug():
    v = verify("fig1_bug.mc")
    assert v.status == FALSE
    t = v.counterexample
    assert t.states == [{"x": 0}, {"x": 0}]
    assert t.violated.line == 6


def test_counterexample_trace_off_by_one():
    v = verify("off_by_one.mc")
    t = v.counterexample
    assert [s["i"] for s in t.states] == list(range(11)) + [10]
    assert t.violated.line == 6


def test_recheck_catches_unsound_proof():
    """A counterexample surfacing only at the strengthened base case must
    be reported as RECHECK, overriding the tentative proof."""
    g = load_program(str(corpus_path("fig1_unsigned.mc")), KInductionConfig())
    checker = _Checker(g, KInductionConfig(recheck_increment=5))
    witness = Trace([{"x": 1}], None)

    def fake_base(k):
        checker.phase_log.append(("base", k))
        return witness if k > 2 else None

    def fake_forward(k):
        checker.phase_log.append(("forward", k))
        return True

    checker.base_case = fake_base
    checker.forward_condition = fake_forward
    v = checker.run()
    assert v.status == FALSE
    assert v.decided_by == "RECHECK"
    assert v.k_at_decision == 7
    assert v.counterexample is witness
    assert v.phase_log == [("base", 1), ("forward", 2), ("base", 7)]


def test_unknown_when_iterations_exhausted():
    v = verify("count_up.mc", invariants_mode="none", max_iterations=4)
    assert v.status == UNKNOWN
    assert v.decided_by is None
    assert v.counterexample is None
    assert ("base", 4) in v.phase_log
    assert v.reason == "k_max"


def test_unknown_on_timeout():
    v = verify("fig1_unsigned.mc", timeout_seconds=0)
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "deadline", [])


def test_unknown_on_conflict_limit(monkeypatch):
    # fig1_unsigned's BASE k=1 query is UNSAT, which takes a conflict; with
    # no conflict to spend, the run ends there.
    monkeypatch.setattr(driver, "DEFAULT_CONFLICT_LIMIT", 0)
    v = verify("fig1_unsigned.mc")
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "budget", [("base", 1)])


@pytest.mark.parametrize("bad", [
    {"max_iterations": 0},
    {"recheck_increment": 0},
    {"invariants_mode": "bogus"},
    {"timeout_seconds": -1},
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        KInductionConfig(**bad)


def fig1_unwound(name="fig1_bug.mc", k=1):
    cfg = KInductionConfig(invariants_mode="none")
    g = load_program(str(corpus_path(name)), cfg)
    return unwind(g, k, Phase.BASE)


def test_reconstruct_requires_origin():
    u = fig1_unwound()
    u.origin = None
    with pytest.raises(ReplayError):
        reconstruct({"nd0": 0}, u)


def test_reconstruct_rejects_partial_model():
    with pytest.raises(ReplayError, match="draws"):
        reconstruct({}, fig1_unwound())


def test_reconstruct_rejects_non_violating_model():
    u = fig1_unwound("fig1_unsigned.mc")
    draw = next(iter(to_ssa(u).draw_symbols))
    with pytest.raises(ReplayError, match="not a violation"):
        reconstruct({draw: 1}, u)   # x = 1 drains to 0 and the assert holds


def test_comments_mode_changes_the_verdict(tmp_path):
    f = tmp_path / "clamp.mc"
    f.write_text(CLAMP)
    with_inv = verify_file(str(f), KInductionConfig(
        invariants_mode="comments", width_override=8))
    assert (with_inv.status, with_inv.decided_by) == (TRUE, "FORWARD")
    without = verify_file(str(f), KInductionConfig(
        invariants_mode="none", width_override=8))
    assert (without.status, without.decided_by, without.k_at_decision) \
        == (FALSE, "BASE", 7)


@pytest.mark.parametrize("mode", INVARIANT_MODES)
def test_do_while_peeled_loop_keeps_its_own_invariant(tmp_path, mode):
    f = tmp_path / "do_nested_bug.mc"
    f.write_text(DO_NESTED_BUG)
    cfg = KInductionConfig(invariants_mode=mode)
    v = verify_file(str(f), cfg)
    assert (v.status, v.decided_by, v.k_at_decision) == (FALSE, "BASE", 1)
    t = v.counterexample
    assert t.states == [{"x": 0, "i": 0}, {"x": 0, "i": 0}]
    assert t.violated.line == 2
    # the instrumented program itself runs into the violation
    replay = run_goto(load_program(str(f), cfg), SequentialProvider([]))
    assert (replay.status, replay.violated) == (VIOLATION, t.violated)


# Signed division by a power of two truncates toward zero, so a remainder
# takes the dividend's sign.
SIGNED_POW2 = """int main() {
  int x = *;
  assert(x / 4 * 4 + x % 4 == x);
  assert(x % 8 > -8 && x % 8 < 8);
  return 0;
}
"""
SIGNED_REM_BUG = """int main() {
  int x = *;
  int r = x % 4;
  assert(r >= 0);
  return 0;
}
"""


@pytest.mark.parametrize("mode", INVARIANT_MODES)
def test_signed_power_of_two_division_end_to_end(mode, tmp_path):
    cfg = KInductionConfig(invariants_mode=mode)
    safe, bug = tmp_path / "signed_pow2.mc", tmp_path / "signed_rem_bug.mc"
    safe.write_text(SIGNED_POW2)
    bug.write_text(SIGNED_REM_BUG)
    v = verify_file(str(safe), cfg)
    assert (v.status, v.decided_by, v.k_at_decision) == (TRUE, "FORWARD", 2)
    v = verify_file(str(bug), cfg)
    assert (v.status, v.decided_by, v.k_at_decision) == (FALSE, "BASE", 1)
    t = v.counterexample
    x = t.states[-1]["x"]
    assert x < 0 and x % 4 != 0
    replay = run_goto(load_program(str(bug), cfg), SequentialProvider([x]))
    assert (replay.status, replay.violated) == (VIOLATION, t.violated)


def test_width_override_narrows_symbols():
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    g = load_program(str(corpus_path("fig1_unsigned.mc")), cfg)
    s = to_ssa(unwind(g, 1, Phase.BASE))
    assert all(ty.width == 8 for ty in s.symbols.values())


def test_emit_directories_receive_phase_files(tmp_path):
    smt = tmp_path / "smt"
    cnf = tmp_path / "cnf"
    v = verify("fig1_unsigned.mc",
               emit_smt_dir=str(smt), emit_cnf_dir=str(cnf))
    expected = {f"fig1_unsigned_{phase}_k{k}" for phase, k in v.phase_log}
    assert {p.stem for p in smt.glob("*.smt2")} == expected
    assert {p.stem for p in cnf.glob("*.cnf")} == expected
    sample = next(iter(smt.glob("*.smt2"))).read_text()
    assert sample.startswith("(set-logic QF_BV)")


def test_kinduction_accepts_default_config():
    g = load_program(str(corpus_path("wrap_bug.mc")), KInductionConfig())
    v = kinduction(g)
    assert v.status == FALSE


def test_flat_listings_are_built_only_for_their_readers(monkeypatch):
    # Loading and queries walk loop trees.  Only a reader that runs on
    # program counters builds a flat listing: the replay of a
    # counterexample, once, from the loaded program.  No lowered program
    # and no unwinding is ever flattened.
    built = []
    real_flatten = goto_ir.flatten

    def flatten(tree):
        built.append(tree)
        return real_flatten(tree)

    monkeypatch.setattr(goto_ir, "flatten", flatten)
    statuses = set()
    for mode in ("none", "builtin"):
        cfg = KInductionConfig(max_iterations=6, invariants_mode=mode)
        for path, _, _ in corpus_entries():
            built.clear()
            g = load_program(str(path), cfg)
            assert built == [], (mode, path.name)
            status = _Checker(g, cfg).run().status
            statuses.add((mode, status))
            assert [id(t) for t in built] == ([id(g.tree)] if status == FALSE else []), \
                (mode, path.name)
    assert {s for _, s in statuses} == {TRUE, FALSE, UNKNOWN}


# Frontend features no corpus program uses: a conditional expression,
# compound assignments, prefix and postfix increments and decrements, a
# call statement to a void function, returns inside then-branches,
# else-branches and both, and hex literals.
FEATURES = """unsigned int g = 0;

void bump(unsigned int d) {
  g += d;
}

int sign(int v) {
  if (v < 0) {
    return -1;
  }
  if (v != 0) {
    v = 1;
  } else {
    return 0;
  }
  if (v == 1) {
    return 1;
  } else {
    return 2;
  }
}

int main() {
  int s = 0;
  int i = 0;
  g = 0x10;
  while (i < 6) {
    s += (i % 2 == 0) ? 2 : -1;
    i++;
    --s;
    ++s;
    bump(1);
  }
  assert(s == 3);
  assert(g == 0x16);
  assert(sign(s) == 1);
  assert(sign(-s) == -1);
  return 0;
}
"""


@pytest.mark.parametrize("mode", INVARIANT_MODES)
def test_frontend_features_end_to_end(mode, tmp_path):
    cfg = KInductionConfig(invariants_mode=mode)
    safe, bug = tmp_path / "features.mc", tmp_path / "features_bug.mc"
    safe.write_text(FEATURES)
    bug.write_text(FEATURES.replace("assert(s == 3);", "assert(s != 3);"))
    v = verify_file(str(safe), cfg)
    assert (v.status, v.decided_by, v.k_at_decision) == (TRUE, "FORWARD", 6)
    v = verify_file(str(bug), cfg)
    assert (v.status, v.decided_by, v.k_at_decision) == (FALSE, "BASE", 6)
    last = v.counterexample.states[-1]
    assert (last["s"], last["i"], last["g"]) == (3, 6, 0x16)


# Each comment invariant is false, yet it is assumed unchecked in every
# phase.  The first is false at loop entry (x == 0), so the FORWARD query
# proves the assertion; the second, above the assertion, hides the runs
# where the loop ran (n = 1 fails at k=1).
WRONG_INVARIANTS = {
    "above_loop": ("""int main() {
  unsigned int x = 0;
  // P(x) {x >= 1}
  while (x < 20) x = x + 1;
  assert(x != 20);
  return 0;
}
""", 20),
    "above_assertion": ("""int main() {
  int x = 0;
  int n = *;
  while (n > 0) {
    x++;
    n--;
  }
  // P(x) {x == 0}
  assert(x == 0);
  return 0;
}
""", 1),
}


@pytest.mark.xfail(strict=True, reason="planted invariants are assumed "
                   "without being checked (ROADMAP item 1)")
@pytest.mark.parametrize("name", sorted(WRONG_INVARIANTS))
def test_wrong_comment_invariant_does_not_prove(name, tmp_path):
    source, depth = WRONG_INVARIANTS[name]
    f = tmp_path / f"{name}.mc"
    f.write_text(source)
    v = verify_file(str(f), KInductionConfig(invariants_mode="comments"))
    assert (v.status, v.decided_by, v.k_at_decision) == (FALSE, "BASE", depth)


# C promotes unsigned char operands to int before it adds or compares
# them (C11 6.3.1.1, 6.3.1.8); gcc agrees with each expected verdict.
UNSIGNED_CHAR_PROMOTIONS = [
    ("""int main() {
  unsigned char a = *, b = *;
  assume(a > 200);
  assume(b > 200);
  assert(a + b < 256);
  return 0;
}
""", FALSE),
    ("""int main() {
  unsigned char a = 255, b = 1;
  assert(a + b != 256);
  return 0;
}
""", FALSE),
    ("""int main() {
  unsigned char c = 200;
  int x = -1;
  assert(c > x);
  return 0;
}
""", TRUE),
    ("""int main() {
  unsigned char a = 255, b = 1;
  int s = a + b;
  assert(s == 256);
  return 0;
}
""", TRUE),
]


@pytest.mark.xfail(strict=True, reason="operands are typed by the MiniC "
                   "rule, not C's integer promotions (ROADMAP item 2)")
def test_unsigned_char_arithmetic_follows_c(tmp_path):
    statuses = []
    for i, (source, _) in enumerate(UNSIGNED_CHAR_PROMOTIONS):
        f = tmp_path / f"promote{i}.mc"
        f.write_text(source)
        statuses.append(verify_file(str(f)).status)
    assert statuses == [want for _, want in UNSIGNED_CHAR_PROMOTIONS]


def recorded(monkeypatch):
    """Every (phase, k, cnf, outcome) the driver solves, in order."""
    queries = []
    real_solve = driver.solve
    real_unwind = driver.unwind

    def unwinding(p, k, phase, *args):
        queries.append([phase.value, k])
        return real_unwind(p, k, phase, *args)

    def solving(cnf, *args):
        out = real_solve(cnf, *args)
        queries[-1] += [cnf, out]
        return out

    monkeypatch.setattr(driver, "unwind", unwinding)
    monkeypatch.setattr(driver, "solve", solving)
    return queries


def search_counts(out):
    return (out.decisions, out.conflicts, out.propagations)


def test_repeated_queries_are_searched_once(monkeypatch):
    # A loop-free program poses one query three times: BASE k=1,
    # FORWARD k=2 and the re-check at k=7.  The first answer leaves the
    # goal's negation in the session, so the repeats need no search.
    queries = recorded(monkeypatch)
    v = verify("straightline_safe.mc")
    assert (v.status, v.phase_log) == (TRUE, [("base", 1), ("forward", 2), ("base", 7)])
    goals = {cnf.goal for _, _, cnf, _ in queries}
    assert len(goals) == 1
    assert [(out.status, search_counts(out)) for *_, out in queries[1:]] \
        == [(UNSAT, (0, 0, 0))] * 2


def test_repeated_sat_answers_extend_the_last_model(monkeypatch):
    # Each INDUCTIVE query of off_by_one holds the one before and stays
    # SAT: after the first answer, which is searched, every one is
    # answered by extending the session's last model over its new copy.
    queries = recorded(monkeypatch)
    assert verify("off_by_one.mc").status == FALSE
    inductive = [(cnf, out) for phase, _, cnf, out in queries
                 if phase == "inductive"]
    (first_cnf, first), *rest = inductive
    assert first.status == SAT and sum(search_counts(first)) > 0
    assert len(rest) > 5
    sizes = [len(first_cnf.clauses)]
    for cnf, out in rest:
        assert (out.status, search_counts(out)) == (SAT, (0, 0, 0))
        sizes.append(len(cnf.clauses))
    assert sizes == sorted(set(sizes))   # each adds a copy's clauses


def test_recheck_repeating_the_proof_is_not_searched(tmp_path, monkeypatch):
    # Past the bound every copy folds away, so the re-check at k=7 asks
    # the FORWARD k=2 goal again: the session already holds its negation.
    queries = recorded(monkeypatch)
    f = tmp_path / "crc2.mc"
    f.write_text(CRC2)
    v = verify_file(str(f))
    assert (v.status, v.decided_by, v.k_at_decision) == (TRUE, "FORWARD", 2)
    assert v.phase_log == [("base", 1), ("forward", 2), ("base", 7)]
    forward, recheck = queries[1], queries[2]
    assert forward[3].status == UNSAT and sum(search_counts(forward[3])) > 0
    assert recheck[2].goal == forward[2].goal
    assert (recheck[3].status, search_counts(recheck[3])) == (UNSAT, (0, 0, 0))


# Past the bound each copy's guard blasts to the constant false, so the
# blaster skips the copy's dead then-branch: the re-check adds no variable
# or clause to the session and asks the FORWARD k=2 goal again, which the
# proof left false at level 0.
DEAD_COND = """int main() {
  unsigned int x = *;
  unsigned int y = x;
  unsigned int i = 0;
  while (i < 2) {
    x = x + 1;
    i = i + 1;
  }
  assert(x == y + 2);
  return 0;
}
"""


def test_recheck_past_dead_branches_is_not_searched(tmp_path, monkeypatch):
    queries = recorded(monkeypatch)
    f = tmp_path / "dead_cond.mc"
    f.write_text(DEAD_COND)
    v = verify_file(str(f))
    assert (v.status, v.decided_by, v.k_at_decision) == (TRUE, "FORWARD", 2)
    assert v.phase_log == [("base", 1), ("forward", 2), ("base", 7)]
    forward_cnf, recheck_cnf = queries[1][2], queries[2][2]
    assert (recheck_cnf.num_vars, len(recheck_cnf.clauses)) \
        == (forward_cnf.num_vars, len(forward_cnf.clauses))
    assert recheck_cnf.goal == forward_cnf.goal
    recheck = queries[2][3]
    assert (recheck.status, search_counts(recheck)) == (UNSAT, (0, 0, 0))


@pytest.mark.parametrize("name", ["fig1_unsigned.mc", "off_by_one.mc"])
def test_sessions_answer_a_repeated_unsat_goal_without_search(name, monkeypatch):
    checkers = []
    real_init = _Checker.__init__

    def init(self, *args):
        real_init(self, *args)
        checkers.append(self)

    monkeypatch.setattr(_Checker, "__init__", init)
    queries = recorded(monkeypatch)
    verify(name)
    sessions = checkers[0].sessions
    assert sessions[Phase.BASE] is sessions[Phase.FORWARD]
    assert sessions[Phase.INDUCTIVE] is not sessions[Phase.BASE]
    assert not hasattr(checkers[0], "unsat")
    refuted = set()   # (session, goal) of every UNSAT answer so far
    for phase, _, cnf, out in queries:
        key = (id(sessions[Phase(phase)]), cnf.goal)
        if key in refuted:
            assert (out.status, search_counts(out)) == (UNSAT, (0, 0, 0))
        if out.status == UNSAT:
            refuted.add(key)
    assert {SAT, UNSAT} <= {out.status for *_, out in queries}


# Every query's (vars, clauses, goal literal).  First recorded while each
# query still re-blasted every copy it shares with earlier ones, so taking
# those copies from the session's node table gives the same literals.
# Re-recorded once SSA conversion walked the unwound tree (a join restores
# the guard it was entered under, so a return after a loop reads no free
# version) and dead Cond branches were no longer blasted.  Re-recorded
# again when stutter shadows became unguarded aliases: only INDUCTIVE
# queries moved.  Re-recorded when a comparison with a constant became a
# zero test of its high bits and a short carry chain: every loop guard
# and assertion here compares with a constant.
QUERY_GOLDENS = {
    "off_by_one.mc": [
        (1, 1, -1), (1, 1, 1),
        (316, 1208, 316), (1, 1, -1), (1, 1, 1),
        (458, 1815, 458), (1, 1, -1), (1, 1, 1),
        (600, 2422, 600), (1, 1, -1), (1, 1, 1),
        (742, 3029, 742), (1, 1, -1), (1, 1, 1),
        (884, 3636, 884), (1, 1, -1), (1, 1, 1),
        (1026, 4243, 1026), (1, 1, -1), (1, 1, 1),
        (1168, 4850, 1168), (1, 1, -1), (1, 1, 1),
        (1310, 5457, 1310), (1, 1, -1), (1, 1, 1),
        (1452, 6064, 1452), (1, 1, 1),
    ],
    "fig1_unsigned.mc": [
        (131, 418, 131), (228, 802, -228), (329, 1133, 329), (709, 2710, 709),
    ],
    "deep_bug.mc": [
        (1, 1, -1), (1, 1, 1),
        (292, 1072, -292), (1, 1, -1), (1, 1, 1),
        (441, 1697, -441), (1, 1, -1), (1, 1, 1),
        (590, 2322, -590), (1, 1, -1), (1, 1, 1),
        (739, 2947, -739), (1, 1, -1), (1, 1, 1),
        (888, 3572, -888), (1, 1, -1), (1, 1, 1),
        (1037, 4197, -1037), (1, 1, -1), (1, 1, 1),
        (1186, 4822, -1186), (1, 1, 1),
    ],
    # The second loop stays in the tail after the first loop's copies.
    "two_loops.mc": [
        (1, 1, -1), (1, 1, 1), (642, 2462, 642), (1, 1, -1),
    ],
    # The first loop holds an inner loop, so no query resumes.
    "nested_sum.mc": [
        (33, 1, -1), (33, 1, -1), (33, 1, -1),
    ],
    # An assertion inside the loop: the copies carry prefix obligations.
    "assert_inside.mc": [
        (1, 1, -1), (1, 1, 1),
        (280, 1042, -280), (1, 1, -1), (1, 1, 1),
        (423, 1652, -423), (1, 1, -1), (1, 1, 1),
        (566, 2262, -566), (1, 1, 1),
    ],
}


@pytest.mark.parametrize("name", sorted(QUERY_GOLDENS))
def test_session_queries_match_goldens(name, monkeypatch):
    queries = recorded(monkeypatch)
    verify(name)
    assert [(cnf.num_vars, len(cnf.clauses), cnf.goal)
            for _, _, cnf, _ in queries] == QUERY_GOLDENS[name]


def test_only_the_base_model_is_decoded(monkeypatch):
    # FORWARD and INDUCTIVE never read the model of a SAT answer.
    decoded = []
    real_decode = solver.decode_model

    def decoding(val, cnf):
        decoded.append(cnf)
        return real_decode(val, cnf)

    monkeypatch.setattr(solver, "decode_model", decoding)
    queries = recorded(monkeypatch)
    assert verify("off_by_one.mc").status == FALSE
    sat = [(phase, cnf) for phase, _, cnf, out in queries if out.status == SAT]
    assert len(sat) > 1 and [cnf for phase, cnf in sat if phase == "base"] == decoded


def parse_dimacs(text):
    num_vars, clauses = 0, []
    for line in text.splitlines():
        if line.startswith("p cnf "):
            num_vars = int(line.split()[2])
        elif not line.startswith("c"):
            *lits, end = map(int, line.split())
            assert end == 0
            clauses.append(lits)
    return solver.CnfInstance(num_vars, clauses)


@pytest.mark.parametrize("name,status", [
    ("fig1_unsigned.mc", TRUE), ("deep_bug.mc", FALSE), ("mod_wrong_bug.mc", FALSE),
])
def test_session_answers_match_emitted_dimacs(name, status, tmp_path, monkeypatch):
    # Each query of a session is equisatisfiable with its --emit-cnf file:
    # the session's clauses so far plus the goal as a unit clause.
    queries = recorded(monkeypatch)
    v = verify(name, emit_cnf_dir=str(tmp_path))
    assert v.status == status
    assert "inductive" in {phase for phase, _ in v.phase_log}
    stem = name[:-len(".mc")]
    for phase, k, _, out in queries:
        text = (tmp_path / f"{stem}_{phase}_k{k}.cnf").read_text()
        assert solver.solve(parse_dimacs(text)).status == out.status, (phase, k)


@pytest.mark.parametrize("mode", ["none", "builtin"])
def test_work_per_query_tracks_the_new_copy(mode, tmp_path, monkeypatch):
    # Each BASE query resumes from the copies the last one converted: it
    # converts one copy, the terminator and the tail, and its blast walks
    # only their nodes, whatever k is.  A walked node is one entry in the
    # blaster's per-formula cache.
    f = tmp_path / "deep.mc"
    f.write_text(DEEP_LOOP)
    checker = _Checker(load_program(str(f), KInductionConfig(invariants_mode=mode)),
                       KInductionConfig())
    walked = []
    real_blast = solver._Blaster.blast

    def blasting(self, *args):
        before = len(self.cache)
        bits = real_blast(self, *args)
        walked[-1] += len(self.cache) - before
        return bits

    converted = []
    real_to_ssa = driver.to_ssa

    def converting(*args):
        s = real_to_ssa(*args)
        start = len(s.resumed.ssa.definitions) if s.resumed else 0
        converted.append(len(s.definitions) - start)
        return s

    monkeypatch.setattr(solver._Blaster, "blast", blasting)
    monkeypatch.setattr(driver, "to_ssa", converting)
    for k in range(9, 31):
        walked.append(0)
        assert checker.base_case(k) is None
    assert converted[0] > 40 and walked[0] > 200     # k=9: from nothing
    assert len(set(converted[1:])) == 1 and converted[1] <= 5
    assert len(set(walked[1:])) == 1 and walked[1] < 100


def test_deadline_inside_a_stage_gives_unknown(tmp_path, monkeypatch):
    # The deadline passes after the check before the query, so bitblast
    # is the stage that meets it.
    f = tmp_path / "deep.mc"
    f.write_text(DEEP_LOOP)
    g = load_program(str(f), KInductionConfig())
    checker = _Checker(g, KInductionConfig())
    real_encode = driver.encode

    def expiring(*args):
        checker.deadline = time.monotonic() - 1.0
        return real_encode(*args)

    monkeypatch.setattr(driver, "encode", expiring)
    blasted = []
    monkeypatch.setattr(driver, "solve", lambda *args: blasted.append(args))
    v = checker.run()
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "deadline", [("base", 1)])
    assert blasted == []


def test_timeout_counts_the_loading(monkeypatch):
    # A load stage that outlasts the timeout leaves no time for a query.
    real_infer = driver.infer_invariants

    def slow(*args):
        time.sleep(1.2)
        return real_infer(*args)

    monkeypatch.setattr(driver, "infer_invariants", slow)
    v = verify("fig1_unsigned.mc", timeout_seconds=1)
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "deadline", [])


def test_interval_analysis_meets_the_deadline(monkeypatch):
    # nested_sum's analysis widens 10 times; at 0.5 s a widening it would
    # take 5 s, but the deadline stops it between two head iterations.
    from kinduct import invariants
    real_widen = invariants._widen
    widened = []

    def slow(*args):
        widened.append(time.sleep(0.5))
        return real_widen(*args)

    monkeypatch.setattr(invariants, "_widen", slow)
    start = time.monotonic()
    v = verify("nested_sum.mc", timeout_seconds=1)
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "deadline", [])
    assert time.monotonic() - start < 2.5 and len(widened) < 5


def test_deadline_inside_to_ssa_gives_unknown(tmp_path, monkeypatch):
    # The deadline passes after unwind has checked it, so to_ssa is the
    # stage that meets it and nothing is encoded.
    f = tmp_path / "deep.mc"
    f.write_text(DEEP_LOOP)
    g = load_program(str(f), KInductionConfig())
    checker = _Checker(g, KInductionConfig())
    real_unwind = driver.unwind

    def expiring(*args):
        u = real_unwind(*args)
        checker.deadline = time.monotonic() - 1.0
        return u

    monkeypatch.setattr(driver, "unwind", expiring)
    encoded = []
    monkeypatch.setattr(driver, "encode", lambda *args: encoded.append(args))
    v = checker.run()
    assert (v.status, v.reason, v.phase_log) == (UNKNOWN, "deadline", [("base", 1)])
    assert encoded == []


# Loops with no loop variable: a superloop, one nested in a counted loop,
# and the loop of a peeled `do { ... } while (0)` ahead of a loop that
# needs the inductive step.  The stutter assume over no variable is FALSE;
# the buggy superloop checks that it hides no violation.
NO_LOOP_VARIABLE = {
    "superloop": (SUPERLOOP, TRUE, "INDUCTIVE", 2),
    "superloop_bug": (SUPERLOOP.replace("unsigned int x = 0", "int x = 1"),
                      FALSE, "BASE", 1),
    "inner_superloop": ("""int main() {
  unsigned int i = 0;
  unsigned int x = 0;
  while (i < 3) {
    i = i + 1;
    while (1) {
      assert(x == 0);
    }
  }
  return 0;
}
""", TRUE, "INDUCTIVE", 2),
    "do_while_zero": ("""int main() {
  unsigned int x = 0;
  unsigned char n = *;
  do {
    assert(x == 0);
  } while (0);
  while (n > 0) n = n - 1;
  assert(n == 0);
  return 0;
}
""", TRUE, "INDUCTIVE", 2),
}


@pytest.mark.parametrize("mode", INVARIANT_MODES)
@pytest.mark.parametrize("name", list(NO_LOOP_VARIABLE))
def test_loops_without_loop_variables_get_a_verdict(name, mode, tmp_path):
    src, status, phase, k = NO_LOOP_VARIABLE[name]
    path = tmp_path / f"{name}.mc"
    path.write_text(src)
    v = verify_file(str(path), KInductionConfig(invariants_mode=mode))
    assert (v.status, v.decided_by, v.k_at_decision) == (status, phase, k)
    if status == TRUE:
        g = compile_mc(src, width=8)
        ex = oracle.explore(g, 6)
        assert all(ex.base_holds(j) for j in range(1, 7))
