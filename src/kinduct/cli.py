"""Command line interface.

Exit codes for `verify`: 0 the property holds, 1 a counterexample was
found, 2 undecided, 3 usage or parse errors (any `MiniCError`, errors in
invariant comments, a source that cannot be read as UTF-8 text and an
emit directory that cannot be made included), 4 an internal error of the
checker (such as a counterexample that fails to replay, or a
`SolverError` from encoding a query), whose traceback goes to stderr.
`bench` exits 0, or 3 on a usage error (a manifest that cannot be read
or parsed, an emit directory that cannot be made and a report file that
cannot be opened for writing included), or 4 when an entry hit an
internal error of the checker.  Output paths are checked before any
query runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from .bench import (
    ManifestError, format_report, parse_manifest, report_to_csv,
    report_to_json, run_suite,
)
from .driver import (
    FALSE, INVARIANT_MODES, TRUE, UNKNOWN, KInductionConfig, load_program,
    verify_file,
)
from .frontend import MiniCError
from .goto_ir import dump_goto
from .invariants import dump_invariants, infer_invariants
from .transform import Phase, dump_unwound, unwind

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {TRUE: EXIT_TRUE, FALSE: EXIT_FALSE, UNKNOWN: EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_verify_options(p: argparse.ArgumentParser):
    p.add_argument("--k-max", type=int, default=100, metavar="N",
                   help="maximum number of iterations (default 100)")
    p.add_argument("--recheck-inc", type=int, default=5, metavar="N",
                   help="base-case re-check increment (default 5)")
    p.add_argument("--timeout", type=int, default=900, metavar="S",
                   help="wall clock budget in seconds (default 900)")
    p.add_argument("--invariants", choices=INVARIANT_MODES, default="builtin",
                   help="loop invariant source (default builtin)")
    p.add_argument("--width-override", type=int, choices=(8, 16, 32),
                   metavar="W", help="force every integer type to W bits")
    p.add_argument("--emit-smt", metavar="DIR",
                   help="write one .smt2 file per discharged query")
    p.add_argument("--emit-cnf", metavar="DIR",
                   help="write one DIMACS file per discharged query")


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _config(args) -> KInductionConfig:
    """The run's config.  Its emit directories are made here, so one
    that cannot be made is an OSError before any query runs."""
    cfg = KInductionConfig(
        max_iterations=args.k_max,
        recheck_increment=args.recheck_inc,
        timeout_seconds=args.timeout,
        invariants_mode=args.invariants,
        width_override=args.width_override,
        emit_smt_dir=args.emit_smt,
        emit_cnf_dir=args.emit_cnf,
    )
    for d in (cfg.emit_smt_dir, cfg.emit_cnf_dir):
        if d:
            Path(d).mkdir(parents=True, exist_ok=True)
    return cfg


def _loc_json(loc):
    return {"line": loc.line, "col": loc.col} if loc else None


def _trace_json(trace):
    return {"states": [dict(s) for s in trace.states],
            "violated": _loc_json(trace.violated)}


def _cmd_verify(args) -> int:
    try:
        cfg = _config(args)
    except (ValueError, OSError) as e:
        print(f"kinduct: error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.dump_goto or args.dump_invariants or args.dump_unwound:
            g = load_program(args.file, cfg)
            if args.dump_goto:
                print(dump_goto(g))
            if args.dump_invariants:
                # what `builtin` plants, at the heads of the program it plants in
                plain = load_program(args.file, replace(cfg, invariants_mode="none"))
                print(dump_invariants(plain, infer_invariants(plain)))
            if args.dump_unwound:
                print(dump_unwound(unwind(g, args.k, Phase(args.dump_unwound))))
            return EXIT_TRUE
        start = time.monotonic()
        verdict = verify_file(args.file, cfg)
        elapsed_ms = int((time.monotonic() - start) * 1000)
    except MiniCError as e:
        print(f"kinduct: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL

    if args.json:
        obj = {"file": args.file, "status": verdict.status,
               "phase": verdict.decided_by, "k": verdict.k_at_decision,
               "reason": verdict.reason, "time_ms": elapsed_ms}
        if verdict.counterexample:
            obj["trace"] = _trace_json(verdict.counterexample)
        print(json.dumps(obj, indent=2))
    else:
        detail = ""
        if verdict.decided_by:
            detail = f" ({verdict.decided_by.lower()}, k={verdict.k_at_decision})"
        elif verdict.reason:
            detail = f" ({verdict.reason})"
        print(f"{args.file}: {verdict.status}{detail} [{elapsed_ms} ms]")
        if verdict.counterexample and args.show_cex:
            trace = verdict.counterexample
            if trace.violated:
                print(f"violated assertion at line {trace.violated.line}")
            for i, state in enumerate(trace.states):
                vals = " ".join(f"{k}={v}" for k, v in sorted(state.items()))
                print(f"  s[{i}] {vals}")
    return _STATUS_EXIT[verdict.status]


def _cmd_bench(args) -> int:
    try:
        cfg = _config(args)
        manifest = parse_manifest(args.manifest)
        for out in (args.json, args.csv):
            if out:
                open(out, "a").close()   # fail now, not after the suite
    except (ValueError, ManifestError, OSError) as e:
        print(f"kinduct: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = run_suite(manifest, cfg, jobs=args.jobs)
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(report_to_json(report))
    if args.csv:
        Path(args.csv).write_text(report_to_csv(report))
    return EXIT_INTERNAL if report.internal_errors else EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinduct",
                     description="k-induction software model checker for MiniC")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one program")
    pv.add_argument("file", help="MiniC source file")
    _add_verify_options(pv)
    pv.add_argument("--show-cex", action="store_true",
                    help="print the counterexample trace")
    pv.add_argument("--json", action="store_true",
                    help="print the result as JSON")
    pv.add_argument("--dump-goto", action="store_true",
                    help="print the lowered program and exit")
    pv.add_argument("--dump-invariants", action="store_true",
                    help="print inferred loop invariants and exit")
    pv.add_argument("--dump-unwound", choices=[p.value for p in Phase],
                    metavar="PHASE",
                    help="print the unwound program for PHASE and exit")
    pv.add_argument("--k", type=_positive, default=1, metavar="K",
                    help="unwinding depth for --dump-unwound (default 1)")
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bench", help="run a manifest of labeled programs")
    pb.add_argument("manifest", help="manifest file (path\texpected\tcategory)")
    _add_verify_options(pb)
    pb.add_argument("--jobs", type=_positive, default=1, metavar="N",
                    help="run N entries in parallel")
    pb.add_argument("--json", metavar="OUT", help="write the report as JSON")
    pb.add_argument("--csv", metavar="OUT", help="write per-entry rows as CSV")
    pb.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
