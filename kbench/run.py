"""kinduct benchmark: time to verdict on the corpus, a deep-k series and a
solver-search set.

    python3 kbench/run.py --workload corpus|deep_k|search|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A run repeats whole rounds -- every
program of the workload once, in a seeded order, through
`kinduct.driver.verify_file` with the default `KInductionConfig` -- until
no further round fits in `--seconds`, and checks every verdict of every
round against the answers in `workloads.py`.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Before and after every program a fixed pure-Python loop (the probe) is
timed.  A program's time is scaled by PROBE_REF_S over the mean of the two
probes around it: the seconds it would have taken had the probe read
PROBE_REF_S.  This takes out most of the host's drift in speed (see
kbench/README.md).  With `--trace 0` the metrics are the end-to-end ones,
built from each program's median scaled time over the rounds; `setup_s` is
the median scaled time of several fresh processes that import kinduct and
build the inputs.  With `--trace 1` untraced and traced rounds
alternate; the metrics are the per-layer ones from the traced rounds, plus
the tracing overhead against the untraced rounds, and the spans of the
last traced round are written to `.kbench/trace-<workload>.json`.
`--workload all` runs each workload in its own fresh process, one after
another.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".kbench"
SETUP_PROBES = 7
# The probe: PROBE_LOOPS turns of a fixed integer loop, and the time it
# takes at the reference speed.  On a 2-vCPU 2.0 GHz VM the median probe
# of a run read 0.015-0.021 s.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.016

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (sibling module; kbench/ is sys.path[0])
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FALSE, TRUE, WORKLOADS  # noqa: E402


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def probe() -> float:
    """Seconds for the probe loop: how fast the machine runs Python now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the probes around it."""
    return seconds * PROBE_REF_S / ((before + after) / 2)


def import_kinduct():
    """kinduct from this checkout's src/, or exit without a result."""
    try:
        import kinduct
    except ImportError as e:
        sys.exit(f"kbench: cannot import kinduct from {ROOT / 'src'}: {e}")
    if ROOT / "src" not in Path(kinduct.__file__).resolve().parents:
        sys.exit(f"kbench: kinduct was imported from {kinduct.__file__}, "
                 f"not from {ROOT / 'src'}")
    import kinduct.driver
    return kinduct.driver


def build_inputs(workload: str, seed: int) -> list:
    return workloads.build(workload, seed, ROOT, OUT / f"{workload}-{seed}")


def check(prog, verdict) -> str | None:
    """None if the verdict is right for the program, else the reason."""
    if verdict.status != prog.expect:
        return f"{verdict.status} ({verdict.decided_by}, k={verdict.k_at_decision}), expected {prog.expect}"
    if verdict.status != FALSE:
        return None
    if prog.depth is not None and (verdict.decided_by, verdict.k_at_decision) != ("BASE", prog.depth):
        return (f"FALSE by {verdict.decided_by} at k={verdict.k_at_decision}, "
                f"the shallowest violation is at k={prog.depth}")
    if verdict.counterexample is None:
        return "FALSE without a counterexample"
    return prog.check_trace(verdict.counterexample) if prog.check_trace else None


class Round:
    """One pass over every program: per-program verify times (raw and
    scaled), the probes and tallies."""

    def __init__(self, driver, programs: list, order: list, tracer=None):
        self.times: dict = {}
        self.scaled: dict = {}
        self.probes = [probe()]
        self.failed = 0
        self.wrong: list = []
        cfg = driver.KInductionConfig()
        for i in order:
            prog = programs[i]
            if tracer:
                tracer.begin_program(prog.name)
            t0 = time.perf_counter()
            try:
                verdict = driver.verify_file(str(prog.path), cfg)
            except Exception:
                verdict = None
                print(f"kbench: {prog.name} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            t = time.perf_counter() - t0
            self.probes.append(probe())
            self.times[prog.name] = t
            self.scaled[prog.name] = scaled(t, *self.probes[-2:])
            if verdict is None:
                self.failed += 1
                continue
            if verdict.status not in (TRUE, FALSE):
                self.failed += 1
                print(f"kbench: {prog.name}: {verdict.status}", file=sys.stderr)
                continue
            reason = check(prog, verdict)
            if reason:
                self.wrong.append(f"{prog.name}: {reason}")

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled.values())


def setup_seconds(workload: str, seed: int) -> float:
    """Median scaled time for a fresh process to import kinduct and build
    inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    before = probe()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t = time.perf_counter() - t0
        after = probe()
        times.append(scaled(t, before, after))
        before = after
    return median(times)


def end_to_end(per_prog: list, setup_s: float) -> dict:
    return {
        "wall_s": (sum(per_prog), "s"),
        "verdict_s.p50": (median(per_prog), "s"),
        "verdict_s.geomean": (geomean(per_prog), "s"),
        "verdict_s.max": (max(per_prog), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    runs = [layer_metrics(t) for t, _ in traced]
    out = {}
    for name, (_, unit) in runs[0].items():
        if name != "stages_s":
            out[name] = (median(r[name][0] for r in runs), unit)
    traced_wall = median(r.wall for _, r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    # Scaled walls, so that a change of the host's speed between the
    # traced and the untraced rounds does not read as overhead.
    out["trace.overhead"] = (100 * (median(r.scaled_wall for _, r in traced)
                                    / median(r.scaled_wall for r in untraced) - 1), "%")
    out["trace.coverage"] = (
        100 * median(r["stages_s"][0] / t.wall for r, (_, t) in zip(runs, traced)), "%")
    return out


def run(args) -> tuple:
    """(result, per-program median seconds raw and scaled, rounds run)."""
    driver = import_kinduct()
    programs = build_inputs(args.workload, args.seed)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    rng = random.Random(args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        order = rng.sample(range(len(programs)), len(programs))
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer()
            tracer.install(driver)
            try:
                traced.append((tracer, Round(driver, programs, order, tracer)))
            finally:
                tracer.uninstall(driver)
        else:
            untraced.append(Round(driver, programs, order))
        # Stop before a round that would likely end past --seconds.
        n = len(untraced) + len(traced)
        if (time.perf_counter() - start) * (n + 1) > args.seconds * n \
                and (traced or not args.trace):
            break
    rounds = untraced + [r for _, r in traced]
    wrong = [w for r in rounds for w in r.wrong]
    for w in dict.fromkeys(wrong):
        print(f"kbench: wrong: {w}", file=sys.stderr)
    per_prog = {name: (median(r.times[name] for r in rounds),
                       median(r.scaled[name] for r in rounds))
                for name in rounds[0].times}
    if args.trace:
        tracer.dump(OUT / f"trace-{args.workload}.json")
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end([s for _, s in per_prog.values()], setup_s)
    result = {
        "correct": not wrong,
        "attempted": len(programs) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, per_prog, rounds


def print_result(workload: str, result: dict, per_prog: dict, rounds: list):
    probes = [p for r in rounds for p in r.probes]
    print(f"{workload}: {len(rounds)} rounds, probe median {median(probes):.5f} s "
          f"(reference {PROBE_REF_S} s), {result['attempted']} programs attempted, "
          f"{result['failed']} failed, "
          f"{'correct' if result['correct'] else 'WRONG VERDICTS'}")
    print(f"  {'program':36s} {'raw s':>10s} {'scaled s':>10s}")
    for name, (raw, t) in sorted(per_prog.items(), key=lambda kv: kv[1][1]):
        print(f"  {name:36s} {raw:10.4f} {t:10.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")


def run_all(args):
    """Each workload in a fresh process; the last line sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        print(out, end="")
        res = json.loads(out.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import_kinduct()
        build_inputs(args.workload, args.seed)
        return
    result, per_prog, rounds = run(args)
    print_result(args.workload, result, per_prog, rounds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
