"""The benchmark's three workloads and their independent answers.

Every program comes with the verdict it must get and, for FALSE, a check
of the counterexample trace.  Neither is a stored copy of the checker's
output:

* corpus   -- the manifest label; a FALSE trace's last state must falsify
              the assertion it names, evaluated with `vcgen.eval_formula`.
* deep_k   -- the loop bound fixes the verdict and the depth of the
              shallowest violating run; the trace's final counter must
              match a Python run of the same loop.
* search   -- trial division (factoring), or enumeration of the 8- or
              16-bit input through a Python copy of the kernel (CRC-8,
              popcount, multiply-accumulate); a FALSE trace's input values
              are run through that Python copy.

The run seed renames every variable of a generated program and orders the
programs of each round.  It leaves loop bounds and constants alone: moving
a constant changes the CNF the bit-blaster folds (an off-by-one loop from
1000 instead of 0 had 22 % more clauses), and two 20-bit primes of one
size need 84 or 1,668 conflicts.  Renaming leaves vars and clauses exactly
as they were; it reorders some invariants, which moved the search set's
conflicts by under 0.5 % (3,287 to 3,298) across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TRUE = "TRUE"
FALSE = "FALSE"
WORKLOADS = ("corpus", "deep_k", "search")

# Bounds of the deep_k series.  Each k re-unwinds and re-solves from
# nothing, so time grows about quadratically: obo_12 takes ~2.4 s on a
# 2-core 2.0 GHz VM, obo_16 ~4.5 s.
DEEP_OBO_BOUNDS = (4, 8, 12)
DEEP_INSIDE_BOUND = 8
DEEP_ACC_BOUND = 8
DEEP_ACC_STEP = 3


@dataclass
class Program:
    name: str
    path: Path
    expect: str                       # TRUE or FALSE
    depth: int | None = None          # required BASE k of a FALSE verdict
    # Given the counterexample trace, return None if it is a real violation
    # of this program, else a message saying what is wrong with it.
    check_trace: Callable | None = None


# ---------------------------------------------------------------------------
# Python copies of the kernels (the independent answers)


def crc8(x: int, steps: int = 8) -> int:
    """CRC-8 register (polynomial 0x07) after `steps` shifts of the byte x."""
    c = x & 0xFF
    for _ in range(steps):
        c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
    return c


def popcount16(x: int) -> int:
    w, c = x & 0xFFFF, 0
    for _ in range(16):
        c += w & 1
        w >>= 1
    return c


def factors_in(p: int, lim: int) -> tuple | None:
    """A pair (a, b) with 2 <= a, b < lim and a*b == p, by trial division."""
    d = 2
    while d < lim and d * d <= p:
        if p % d == 0 and 2 <= p // d < lim:
            return d, p // d
        d += 1
    return None


def mac_reachable(steps: int, m: int) -> int:
    """Bit set of every sum of `steps` products a*b with 0 <= a, b <= m."""
    products = {a * b for a in range(m + 1) for b in range(m + 1)}
    sums = 1
    for _ in range(steps):
        nxt = 0
        for p in products:
            nxt |= sums << p
        sums = nxt
    return sums


def count_to_violation(start: int, stop: int, bad: int | None) -> tuple:
    """Run `i = start; while (i < stop) { assert(i != bad); i++; }`.

    Returns (depth, i): the number of loop-head arrivals up to and including
    the one whose iteration fails the assertion, or the count of iterations
    if none does, and the final value of i."""
    i, depth = start, 0
    while i < stop:
        depth += 1
        if i == bad:
            return depth, i
        i += 1
    return depth, i


# ---------------------------------------------------------------------------
# Names


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def fresh_names(rng: random.Random, count: int) -> list:
    """`count` distinct identifiers that are no MiniC keyword or builtin."""
    names: list = []
    while len(names) < count:
        name = "v" + "".join(rng.choice(_LETTERS) for _ in range(3))
        if name not in names and name != "void":
            names.append(name)
    return names


# ---------------------------------------------------------------------------
# deep_k: counting loops whose depth grows with the bound


def deep_k_sources(rng: random.Random) -> list:
    """(name, source, expect, depth, check_trace) for the deep_k series."""
    out = []
    for n in DEEP_OBO_BOUNDS:
        (i,) = fresh_names(rng, 1)
        src = f"""int main() {{
  unsigned int {i} = 0;
  while ({i} < {n}) {{
    {i} = {i} + 1;
  }}
  assert({i} == {n + 1});
  return 0;
}}
"""
        depth, final = count_to_violation(0, n, None)
        out.append((f"obo_{n}", src, FALSE, depth,
                    _final_counter_check(i, final, lambda v, n=n: v != n + 1)))
    n = DEEP_INSIDE_BOUND
    (i,) = fresh_names(rng, 1)
    src = f"""int main() {{
  unsigned int {i} = 0;
  while ({i} < {2 * n}) {{
    assert({i} != {n - 1});
    {i} = {i} + 1;
  }}
  return 0;
}}
"""
    depth, final = count_to_violation(0, 2 * n, n - 1)
    out.append((f"inside_{n}", src, FALSE, depth,
                _final_counter_check(i, final, lambda v, n=n: v == n - 1)))
    n, step = DEEP_ACC_BOUND, DEEP_ACC_STEP
    i, t = fresh_names(rng, 2)
    src = f"""int main() {{
  unsigned int {i} = 0;
  unsigned int {t} = 0;
  while ({i} < {n}) {{
    {t} = {t} + {step};
    {i} = {i} + 1;
  }}
  assert({t} == {step * n});
  return 0;
}}
"""
    out.append((f"acc_{n}", src, TRUE, None, None))
    return out


def _final_counter_check(var: str, final: int, violates: Callable) -> Callable:
    def check(trace) -> str | None:
        got = trace.states[-1].get(var)
        if got != final:
            return f"trace ends with {var} = {got}, the loop gives {final}"
        if not violates(got):
            return f"{var} = {got} does not violate the assertion"
        return None
    return check


# ---------------------------------------------------------------------------
# search: small bit-level kernels where CDCL search dominates

# (p, lim): prove or refute a*b != p for 2 <= a, b < lim.
FACTOR_CASES = ((524287, 1024), (999983, 1024), (3999971, 2048),
                (997 * 991, 1024), (1009 * 1013, 2048))
# Two loop iterations of three shifts each: eight shifts took 4.2 s for the
# zero-only proof alone, six take 1.5 s, and k stays at 2 (7 in the re-check).
CRC_STEPS = 6
CRC_PREIMAGE_OF = 0xA7           # the target is the CRC of this byte
POPCOUNT_TARGET = 15
MAC_STEPS, MAC_MAX, MAC_TARGET = 3, 100, 29999


def search_sources(rng: random.Random) -> list:
    """(name, source, expect, depth, check_trace) for the search set."""
    out = []
    for p, lim in FACTOR_CASES:
        a, b = fresh_names(rng, 2)
        src = f"""int main() {{
  unsigned int {a} = *;
  unsigned int {b} = *;
  assume({a} > 1);
  assume({b} > 1);
  assume({a} < {lim});
  assume({b} < {lim});
  assert({a} * {b} != {p});
  return 0;
}}
"""
        pair = factors_in(p, lim)
        kind = "semi" if pair else "prime"
        out.append((f"factor_{kind}_{p}", src, FALSE if pair else TRUE,
                    None, _factor_check(a, b, p, lim)))

    x, c, i = fresh_names(rng, 3)
    step = (f"    if ({c} & 128) {{ {c} = ({c} << 1) ^ 7; }} "
            f"else {{ {c} = {c} << 1; }}\n") * (CRC_STEPS // 2)

    def crc_src(prop: str) -> str:
        return f"""int main() {{
  unsigned char {x} = *;
  unsigned char {c} = {x};
  unsigned int {i} = 0;
  while ({i} < 2) {{
{step}    {i} = {i} + 1;
  }}
  assert({prop});
  return 0;
}}
"""

    def crc(v):
        return crc8(v, CRC_STEPS)
    target = crc(CRC_PREIMAGE_OF)
    hit = any(crc(v) == target for v in range(256))
    out.append(("crc8_preimage", crc_src(f"{c} != {target}"),
                FALSE if hit else TRUE, None,
                _input_check(x, lambda v: crc(v) == target,
                             f"crc({x}) == {target}")))
    zero_only = all(crc(v) != 0 or v == 0 for v in range(256))
    out.append(("crc8_zero_only", crc_src(f"{c} != 0 || {x} == 0"),
                TRUE if zero_only else FALSE, None,
                _input_check(x, lambda v: crc(v) == 0 and v != 0,
                             f"crc({x}) == 0, {x} != 0")))

    x, w, c, i = fresh_names(rng, 4)
    bits = "".join(f"    {c} = {c} + (({w} >> {j}) & 1);\n" for j in range(8))

    def pop_src(prop: str) -> str:
        return f"""int main() {{
  unsigned short {x} = *;
  unsigned short {w} = {x};
  unsigned char {c} = 0;
  unsigned int {i} = 0;
  while ({i} < 2) {{
{bits}    {w} = {w} >> 8;
    {i} = {i} + 1;
  }}
  assert({prop});
  return 0;
}}
"""
    hit = any(popcount16(v) == POPCOUNT_TARGET for v in range(1 << 16))
    out.append((f"popcount_{POPCOUNT_TARGET}",
                pop_src(f"{c} != {POPCOUNT_TARGET}"), FALSE if hit else TRUE,
                None, _input_check(x, lambda v: popcount16(v) == POPCOUNT_TARGET,
                                   f"popcount({x}) == {POPCOUNT_TARGET}")))
    bounded = all(popcount16(v) <= 16 for v in range(1 << 16))
    out.append(("popcount_bound", pop_src(f"{c} <= 16"),
                TRUE if bounded else FALSE, None,
                _input_check(x, lambda v: popcount16(v) > 16,
                             f"popcount({x}) > 16")))

    acc, i, a, b = fresh_names(rng, 4)
    src = f"""int main() {{
  unsigned short {acc} = 0;
  unsigned int {i} = 0;
  while ({i} < {MAC_STEPS}) {{
    unsigned char {a} = *;
    unsigned char {b} = *;
    assume({a} <= {MAC_MAX});
    assume({b} <= {MAC_MAX});
    {acc} = {acc} + {a} * {b};
    {i} = {i} + 1;
  }}
  assert({acc} != {MAC_TARGET});
  return 0;
}}
"""
    reachable = (mac_reachable(MAC_STEPS, MAC_MAX) >> MAC_TARGET) & 1
    out.append((f"mac_{MAC_TARGET}", src, FALSE if reachable else TRUE, None,
                None))
    return out


def _factor_check(a: str, b: str, p: int, lim: int) -> Callable:
    def check(trace) -> str | None:
        s = trace.states[-1]
        va, vb = s.get(a), s.get(b)
        if va is None or vb is None:
            return f"trace has no values for {a}, {b}"
        if not (1 < va < lim and 1 < vb < lim and va * vb == p):
            return f"{a} = {va}, {b} = {vb} do not factor {p} below {lim}"
        return None
    return check


def _input_check(var: str, violates: Callable, what: str) -> Callable:
    def check(trace) -> str | None:
        v = trace.states[0].get(var)
        if v is None:
            return f"trace has no value for {var}"
        if not violates(v):
            return f"input {var} = {v} does not give {what}"
        return None
    return check


# ---------------------------------------------------------------------------
# corpus: the bundled manifest


def corpus_programs(root: Path) -> list:
    corpus = root / "src" / "kinduct" / "corpus"
    out = []
    for line in (corpus / "manifest.tsv").read_text().splitlines():
        if not line.strip():
            continue
        name, label = line.split("\t")[:2]
        path = corpus / name
        out.append(Program(Path(name).stem, path,
                           TRUE if label == "safe" else FALSE, None,
                           _assertion_check(path) if label == "unsafe" else None))
    return out


def _assertion_check(path: Path) -> Callable:
    def check(trace) -> str | None:
        from kinduct.frontend import parse, typecheck
        from kinduct.goto_ir import lower
        from kinduct.vcgen import eval_formula
        g = lower(typecheck(parse(path.read_text(), str(path))))
        asserts = [ins for ins in g.instructions
                   if ins.op == "ASSERT" and ins.loc == trace.violated]
        if not asserts:
            return f"no assertion at {trace.violated}"
        last = trace.states[-1]
        if any(eval_formula(ins.expr, last) != 0 for ins in asserts):
            return f"last state {last} satisfies the assertion at {trace.violated}"
        return None
    return check


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, root: Path, out_dir: Path) -> list:
    """The workload's programs; generated ones are written under out_dir."""
    if workload == "corpus":
        return corpus_programs(root)
    rng = random.Random(f"{workload}:{seed}")
    sources = deep_k_sources(rng) if workload == "deep_k" else search_sources(rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, src, expect, depth, check in sources:
        path = out_dir / f"{name}.mc"
        path.write_text(src)
        out.append(Program(name, path, expect, depth, check))
    return out
