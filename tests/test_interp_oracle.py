"""Concrete execution and the explicit-state ground-truth engine."""

import pytest

from kinduct import oracle
from kinduct.interp import (
    BLOCKED, COMPLETED, MapProvider, SequentialProvider, STEP_LIMIT,
    VIOLATION, run_goto,
)
from conftest import FIG1, compile_mc, corpus_path


def draws_of(g):
    """Map draw sites so tests can seed MapProvider by position."""
    from kinduct.vcgen import to_ssa
    from kinduct.transform import unwind, Phase
    s = to_ssa(unwind(g, 1, Phase.BASE))
    return s.draw_symbols


def test_violation_reported_with_location(fig1_goto):
    bug = compile_mc(FIG1.replace("x == 0", "x == 1"))
    res = run_goto(bug, SequentialProvider([0]))
    assert res.status == VIOLATION
    assert res.violated is not None
    assert res.violated.line == 6


def test_completed_run(fig1_goto):
    res = run_goto(fig1_goto, SequentialProvider([3]))
    assert res.status == COMPLETED
    assert res.store["x"] == 0
    assert res.violated is None


def test_trace_snapshots_head_and_backjumps(fig1_goto):
    # entry snapshot plus one per backjump taken
    res = run_goto(fig1_goto, SequentialProvider([3]))
    xs = [st["x"] for st in res.states]
    assert xs == [3, 2, 1, 0]


def test_assume_blocks():
    g = compile_mc("int main() { int x = *; assume(x > 5); assert(x > 5); return 0; }")
    res = run_goto(g, SequentialProvider([2]))
    assert res.status == BLOCKED
    res = run_goto(g, SequentialProvider([6]))
    assert res.status == COMPLETED


def test_step_limit():
    g = compile_mc("int main() { unsigned int x = 1; while (x > 0) { x = x + 1; } return 0; }")
    res = run_goto(g, SequentialProvider([]), max_steps=1000)
    assert res.status == STEP_LIMIT


def test_map_provider_records_misses():
    g = compile_mc(FIG1)
    p = MapProvider({})
    run_goto(g, p)
    assert len(p.misses) == 1


def test_division_by_zero_draws_fresh_value():
    g = compile_mc("""int main() {
      unsigned char n = 10;
      unsigned char x = 0;
      unsigned char q = n / x;
      assert(q <= 10);
      return 0;
    }""")
    ok = run_goto(g, SequentialProvider([7]))
    assert ok.status == COMPLETED and ok.store["q"] == 7
    bad = run_goto(g, SequentialProvider([99]))
    assert bad.status == VIOLATION


def test_oracle_fig1_safe_at_8bit():
    from kinduct.driver import KInductionConfig, load_program
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    g = load_program(str(corpus_path("fig1_unsigned.mc")), cfg)
    res = oracle.explore(g, k=8)
    assert not res.violated
    assert res.sigma_failures > 0          # long-running starts get cut
    assert oracle.min_violation_k(g, 8) is None


@pytest.mark.parametrize("name,expect", [
    ("assert_inside.mc", 4),
    ("deep_bug.mc", 8),
    ("nested_bug.mc", 2),
    ("fig1_bug.mc", 1),
    ("two_nondet_bug.mc", 1),
])
def test_oracle_min_violation_k(name, expect):
    from kinduct.driver import KInductionConfig, load_program
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    g = load_program(str(corpus_path(name)), cfg)
    assert oracle.min_violation_k(g, 8) == expect


def test_oracle_forward_threshold():
    from kinduct.driver import KInductionConfig, load_program
    cfg = KInductionConfig(invariants_mode="none", width_override=8)
    g = load_program(str(corpus_path("count_up.mc")), cfg)
    assert not oracle.forward_holds(g, 9)
    assert oracle.forward_holds(g, 10)
    assert oracle.min_forward_k(g, 12) == 10


def test_oracle_rejects_wide_draws():
    g = compile_mc(FIG1)   # 32-bit nondet
    with pytest.raises(oracle.OracleLimit):
        oracle.explore(g, k=2)


NESTED_WHILE = """int main() {
  unsigned int i = 0;
  while (i < 2) {
    unsigned int y = *;
    unsigned int j = 0;
    while (j < 2) { unsigned int x = *; j = j + 1; }
    i = i + 1;
  }
  return 0;
}"""

NESTED_DO_WHILE = """int main() {
  unsigned int i = 0;
  do {
    unsigned int y = *;
    unsigned int j = 0;
    while (j < 2) { unsigned int x = *; j = j + 1; }
    i = i + 1;
  } while (i < 3);
  return 0;
}"""


@pytest.mark.parametrize("src", [NESTED_WHILE, NESTED_DO_WHILE],
                         ids=["while", "do_while"])
def test_replay_draws_are_the_unwound_draws(src):
    # Every copy of the k=2 unwinding runs when each draw is zero, so the
    # replay asks for exactly the unwinding's draws: an inner counter not
    # reset by the outer loop would name the second outer iteration's
    # draws (nid, (2, 3)) and (nid, (2, 4)).
    from kinduct.transform import Phase, unwind
    from kinduct.vcgen import to_ssa
    g = compile_mc(src)
    provider = MapProvider({})
    assert run_goto(g, provider).status == COMPLETED
    unwound = {(nid, ctx) for nid, ctx, _ty in
               to_ssa(unwind(g, 2, Phase.BASE)).draw_symbols.values()}
    assert len(set(provider.misses)) == len(provider.misses)
    assert set(provider.misses) == unwound
    assert {ctx for _nid, ctx in unwound} >= {(1, 1), (1, 2), (2, 1), (2, 2)}
