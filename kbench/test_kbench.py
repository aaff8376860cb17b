"""Tests of the benchmark's own code: the generators' answers against brute
force, the summary helpers, and the trace wrappers.

    python3 -m pytest kbench
"""

import itertools
import math
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


# ---------------------------------------------------------------------------
# generators against brute force


def crc_by_division(byte: int, steps: int) -> int:
    """byte * x^steps mod x^8 + x^2 + x + 1, by polynomial long division
    rather than the kernel's shift loop."""
    rem = byte << steps
    for bit in range(7 + steps, 7, -1):
        if rem >> bit & 1:
            rem ^= 0x107 << (bit - 8)
    return rem


@pytest.mark.parametrize("steps", [8, W.CRC_STEPS])
def test_crc8_matches_long_division(steps):
    assert all(W.crc8(x, steps) == crc_by_division(x, steps) for x in range(256))


def test_popcount_matches_bin():
    assert all(W.popcount16(x) == bin(x).count("1") for x in range(1 << 16))


@pytest.mark.parametrize("p,lim", W.FACTOR_CASES)
def test_factor_answer_matches_enumeration(p, lim):
    found = {(a, p // a) for a in range(2, lim) if p % a == 0 and 2 <= p // a < lim}
    pair = W.factors_in(p, lim)
    assert (pair is not None) == bool(found)
    if pair:
        assert pair in found


def test_mac_reachable_matches_enumeration_on_a_small_grid():
    steps, m = 2, 6
    sums = {sum(a * b for a, b in pairs)
            for pairs in itertools.product(itertools.product(range(m + 1), repeat=2),
                                           repeat=steps)}
    mask = W.mac_reachable(steps, m)
    assert {v for v in range(mask.bit_length()) if mask >> v & 1} == sums


def test_mac_target_fits_the_accumulator_and_is_unreachable():
    assert W.MAC_STEPS * W.MAC_MAX ** 2 < 1 << 16
    # A sum of three products <= 10000 reaching 29999 needs one to be 9999,
    # which has no factor pair <= 100 (9999 = 99 * 101).
    assert not any(9999 == a * b for a in range(101) for b in range(101))
    assert not W.mac_reachable(W.MAC_STEPS, W.MAC_MAX) >> W.MAC_TARGET & 1


def simulate(stop: int, bad):
    """Step the counting loop like the interpreter would, from scratch."""
    i = 0
    for depth in itertools.count(1):
        if not i < stop:
            return None, depth - 1, i
        if i == bad:
            return "violated", depth, i
        i += 1


@pytest.mark.parametrize("stop,bad", [(0, None), (1, None), (5, None),
                                      (10, 3), (10, 0), (10, 9), (4, 7)])
def test_count_to_violation_matches_simulation(stop, bad):
    _, depth, final = simulate(stop, bad)
    assert W.count_to_violation(0, stop, bad) == (depth, final)


def test_deep_k_answers():
    rng = random.Random(0)
    by_name = {s[0]: s for s in W.deep_k_sources(rng)}
    for n in W.DEEP_OBO_BOUNDS:
        _, _, expect, depth, _ = by_name[f"obo_{n}"]
        # The loop always exits with i == n, which fails i == n + 1.
        assert (expect, depth) == (W.FALSE, simulate(n, None)[1]) == (W.FALSE, n)
    n = W.DEEP_INSIDE_BOUND
    status, depth, _ = simulate(2 * n, n - 1)
    assert status == "violated"
    assert by_name[f"inside_{n}"][2:4] == (W.FALSE, depth)
    t = sum(W.DEEP_ACC_STEP for _ in range(W.DEEP_ACC_BOUND))
    assert t == W.DEEP_ACC_STEP * W.DEEP_ACC_BOUND
    assert by_name[f"acc_{W.DEEP_ACC_BOUND}"][2] == W.TRUE


def test_generated_sources_depend_only_on_the_seed(tmp_path):
    a = W.build("search", 7, ROOT, tmp_path / "a")
    b = W.build("search", 7, ROOT, tmp_path / "b")
    c = W.build("search", 8, ROOT, tmp_path / "c")
    texts = [[p.path.read_text() for p in progs] for progs in (a, b, c)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    # Renaming is the only difference between seeds.
    anon = [[re.sub(r"\bv[a-z]{3}\b", "V", t) for t in ts] for ts in texts]
    assert anon[0] == anon[2]


def test_trace_checks_reject_wrong_traces():
    class Trace:
        def __init__(self, *states):
            self.states = list(states)
            self.violated = None

    progs = {s[0]: s for s in W.search_sources(random.Random(0))}
    name, src, expect, _, check = progs["factor_semi_988027"]
    a, b = [line.split()[2] for line in src.splitlines()[1:3]]
    assert check(Trace({a: 997, b: 991})) is None
    assert check(Trace({a: 997, b: 990})) is not None
    _, src, _, _, check = progs["crc8_preimage"]
    x = src.splitlines()[1].split()[2]
    assert check(Trace({x: W.CRC_PREIMAGE_OF})) is None
    # The CRC is a bijection of the byte, so any other input misses.
    assert check(Trace({x: W.CRC_PREIMAGE_OF ^ 1})) is not None


# ---------------------------------------------------------------------------
# summary helpers


def test_median_and_geomean():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert run.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert run.geomean([0.5, 2.0, 8.0]) == pytest.approx(2.0)
    xs = [0.01, 0.3, 2.5]
    assert run.geomean(xs) == pytest.approx(math.prod(xs) ** (1 / 3))



def test_scaled_time_uses_the_mean_of_the_probes_around_it():
    ref = run.PROBE_REF_S
    assert run.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # The machine ran at half speed: both probes took twice as long.
    assert run.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert run.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_probe_takes_time():
    assert run.probe() > 0


# ---------------------------------------------------------------------------
# trace wrappers


def test_wrapper_returns_exactly_what_the_function_returns():
    t = tracing.Tracer()
    sentinel = object()
    wrapped = t.wrap("frontend.parse", lambda *a, **kw: (sentinel, a, kw))
    out = wrapped(1, 2, key=3)
    assert out[0] is sentinel and out[1:] == ((1, 2), {"key": 3})
    assert [s[0] for s in t.spans] == ["frontend.parse"]
    assert t.spans[0][1] <= t.spans[0][2]


def test_wrapper_passes_exceptions_and_closes_the_span():
    t = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("frontend.parse", boom)()
    assert t.spans[0][2] >= t.spans[0][1]
    assert t._stack == []


def test_traced_pipeline_gives_identical_results():
    import kinduct.driver as D
    path = ROOT / "src" / "kinduct" / "corpus" / "off_by_one.mc"
    plain = D.verify_file(str(path))
    originals = {attr: getattr(D, attr) for attr in tracing.STAGES}
    t = tracing.Tracer()
    t.install(D)
    try:
        t.begin_program("off_by_one")
        traced = D.verify_file(str(path))
    finally:
        t.uninstall(D)
    assert {attr: getattr(D, attr) for attr in tracing.STAGES} == originals
    assert (traced.status, traced.decided_by, traced.k_at_decision, traced.phase_log) == \
        (plain.status, plain.decided_by, plain.k_at_decision, plain.phase_log)
    assert traced.counterexample.states == plain.counterexample.states
    names = {s[0] for s in t.spans}
    assert names == set(tracing.STAGES.values())
    # Every child lies inside its parent; replay's to_ssa hangs under it.
    for s in t.spans:
        if s[3] is not None:
            p = t.spans[s[3]]
            assert p[1] <= s[1] <= s[2] <= p[2]
    replay = [i for i, s in enumerate(t.spans) if s[0] == "driver.replay"]
    assert any(s[3] == replay[0] and s[0] == "vcgen.to_ssa" for s in t.spans)
    m = tracing.layer_metrics(t)
    assert m["driver.queries"][0] == len(plain.phase_log)
    assert m["driver.k_max"][0] == max(k for _, k in plain.phase_log)
    assert sum(m[f"driver.queries.{p}"][0] for p in tracing.PHASES) == len(plain.phase_log)
    assert all(v >= 0 for v, _ in m.values())
