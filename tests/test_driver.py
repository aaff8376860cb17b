"""The k-induction loop, counterexample replay, and program loading."""

import pytest

from kinduct import driver, solver
from kinduct.driver import (
    FALSE, TRUE, UNKNOWN, KInductionConfig, ReplayError, Trace, _Checker,
    kinduction, load_program, reconstruct, verify_file,
)
from kinduct.solver import SAT, UNSAT
from kinduct.transform import Phase, unwind
from kinduct.vcgen import to_ssa
from conftest import corpus_path

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


def test_unknown_on_timeout():
    v = verify("fig1_unsigned.mc", timeout_seconds=0)
    assert v.status == UNKNOWN
    assert v.phase_log == []


@pytest.mark.parametrize("bad", [
    {"max_iterations": 0},
    {"recheck_increment": 0},
    {"invariants_mode": "bogus"},
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


def test_repeated_queries_are_searched_once(monkeypatch):
    # A loop-free program poses one query three times: BASE k=1,
    # FORWARD k=2 and the re-check at k=7.
    searches = []

    class Counted(solver._Cdcl):
        def solve(self, *args):
            searches.append(1)
            return super().solve(*args)

    monkeypatch.setattr(solver, "_Cdcl", Counted)
    v = verify("straightline_safe.mc")
    assert (v.status, v.phase_log) == (TRUE, [("base", 1), ("forward", 2), ("base", 7)])
    assert len(searches) == 1


def test_recheck_repeating_the_proof_is_not_searched(tmp_path, monkeypatch):
    # Past the bound every copy folds away, so the re-check at k=7 poses
    # the FORWARD k=2 query again: the last UNSAT answer.
    searches = []

    class Counted(solver._Cdcl):
        def solve(self, *args):
            searches.append(1)
            return super().solve(*args)

    monkeypatch.setattr(solver, "_Cdcl", Counted)
    f = tmp_path / "crc2.mc"
    f.write_text(CRC2)
    v = verify_file(str(f))
    assert (v.status, v.decided_by, v.k_at_decision) == (TRUE, "FORWARD", 2)
    assert v.phase_log == [("base", 1), ("forward", 2), ("base", 7)]
    assert len(searches) == 2


@pytest.mark.parametrize("name", ["fig1_unsigned.mc", "off_by_one.mc"])
def test_checker_keeps_only_an_unsat_instance(name, monkeypatch):
    answers = []   # (cnf, status) of every query, kept alive for `is`
    real_solve = driver.solve

    def recording(cnf, *args):
        out = real_solve(cnf, *args)
        answers.append((cnf, out.status))
        return out

    real_discharge = _Checker._discharge

    def checked(self, phase, k):
        result = real_discharge(self, phase, k)
        assert self.unsat is None or \
            [s for c, s in answers if c is self.unsat] == [UNSAT]
        return result

    monkeypatch.setattr(driver, "solve", recording)
    monkeypatch.setattr(_Checker, "_discharge", checked)
    verify(name)
    assert {SAT, UNSAT} <= {s for _, s in answers}
