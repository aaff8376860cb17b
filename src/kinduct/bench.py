"""Benchmark harness: run a labeled manifest and score the results.

Manifest format is one entry per line, tab separated:

    path<TAB>safe|unsafe<TAB>category

Blank lines and lines starting with # are skipped.  Paths are resolved
relative to the manifest file.  Scoring follows the competition rules:
+1 per bug found, +2 per correct proof, -6 per false alarm, -12 per
wrong proof; unknowns and timeouts score nothing.

A missing file or a program the front end rejects (syntax, type, lowering
or invariant errors) is an invalid entry.  Any other exception is a bug in
the checker, not in the input: its row is an internal error, counted apart.
"""

from __future__ import annotations

import csv
import io
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, asdict
from pathlib import Path

from .driver import FALSE, TRUE, KInductionConfig, verify_file
from .frontend import MiniCError


class ManifestError(Exception):
    pass


@dataclass
class ManifestEntry:
    path: str
    expected: str   # "safe" or "unsafe"
    category: str


@dataclass
class Manifest:
    entries: list


@dataclass
class BenchRow:
    path: str
    expected: str
    category: str
    verdict: str            # TRUE / FALSE / UNKNOWN / INVALID / ERROR
    phase: str | None
    k: int | None
    time_ms: int
    classification: str     # bug_found / correct_proof / false_incorrect /
                            # true_incorrect / unknown_and_timeout / invalid /
                            # internal_error
    error: str | None = None


@dataclass
class BenchReport:
    rows: list
    correct_results: int = 0
    false_incorrect: int = 0
    true_incorrect: int = 0
    unknown_and_timeout: int = 0
    invalid: int = 0
    internal_errors: int = 0
    bugs_found: int = 0
    correct_proofs: int = 0
    score: int = 0
    total_time_ms: int = 0


def parse_manifest(path: str) -> Manifest:
    base = Path(path).parent
    entries = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ManifestError(f"{path}:{lineno}: expected three tab-separated "
                                f"fields, got {len(parts)}")
        rel, expected, category = parts
        if expected not in ("safe", "unsafe"):
            raise ManifestError(f"{path}:{lineno}: expected label must be "
                                f"safe or unsafe, got {expected!r}")
        entries.append(ManifestEntry(str((base / rel)), expected, category))
    return Manifest(entries)


def _classify(expected: str, status: str) -> str:
    if status == FALSE:
        return "bug_found" if expected == "unsafe" else "false_incorrect"
    if status == TRUE:
        return "correct_proof" if expected == "safe" else "true_incorrect"
    return "unknown_and_timeout"


def _run_entry(entry: ManifestEntry, cfg: KInductionConfig) -> BenchRow:
    start = time.monotonic()
    if not Path(entry.path).is_file():
        return BenchRow(entry.path, entry.expected, entry.category,
                        "INVALID", None, None, 0, "invalid", "file not found")
    try:
        verdict = verify_file(entry.path, cfg)
    except MiniCError as e:
        ms = int((time.monotonic() - start) * 1000)
        return BenchRow(entry.path, entry.expected, entry.category,
                        "INVALID", None, None, ms, "invalid", str(e))
    except Exception:
        ms = int((time.monotonic() - start) * 1000)
        return BenchRow(entry.path, entry.expected, entry.category,
                        "ERROR", None, None, ms, "internal_error",
                        traceback.format_exc())
    ms = int((time.monotonic() - start) * 1000)
    return BenchRow(entry.path, entry.expected, entry.category,
                    verdict.status, verdict.decided_by, verdict.k_at_decision,
                    ms, _classify(entry.expected, verdict.status))


def score(report: BenchReport) -> int:
    return (report.bugs_found + 2 * report.correct_proofs
            - 6 * report.false_incorrect - 12 * report.true_incorrect)


def _run_alone(entry: ManifestEntry, cfg: KInductionConfig) -> BenchRow:
    """Run one entry in a fresh one-worker pool; a worker that dies
    costs this entry's row only."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_run_entry, entry, cfg).result()
        except BrokenProcessPool:
            return BenchRow(entry.path, entry.expected, entry.category,
                            "ERROR", None, None, 0, "internal_error",
                            "worker process died")


def run_suite(m: Manifest, cfg: KInductionConfig | None = None,
              jobs: int = 1) -> BenchReport:
    cfg = cfg or KInductionConfig()
    if jobs > 1 and len(m.entries) > 1:
        # A dying worker breaks every pending future of its pool, so
        # each entry whose future broke is re-run alone.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_entry, e, cfg) for e in m.entries]
            wait(futures)
        rows = [_run_alone(e, cfg) if isinstance(f.exception(), BrokenProcessPool)
                else f.result() for e, f in zip(m.entries, futures)]
    else:
        rows = [_run_entry(e, cfg) for e in m.entries]
    rows.sort(key=lambda r: r.path)
    report = BenchReport(rows)
    for r in rows:
        if r.classification == "bug_found":
            report.bugs_found += 1
            report.correct_results += 1
        elif r.classification == "correct_proof":
            report.correct_proofs += 1
            report.correct_results += 1
        elif r.classification == "false_incorrect":
            report.false_incorrect += 1
        elif r.classification == "true_incorrect":
            report.true_incorrect += 1
        elif r.classification == "invalid":
            report.invalid += 1
        elif r.classification == "internal_error":
            report.internal_errors += 1
        else:
            report.unknown_and_timeout += 1
        report.total_time_ms += r.time_ms
    report.score = score(report)
    return report


def report_to_json(report: BenchReport) -> str:
    return json.dumps(asdict(report), indent=2)


def report_to_csv(report: BenchReport) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["path", "expected", "verdict", "phase", "k", "time_ms"])
    for r in report.rows:
        w.writerow([r.path, r.expected, r.verdict, r.phase or "", r.k or "",
                    r.time_ms])
    return out.getvalue()


def format_report(report: BenchReport) -> str:
    lines = []
    for r in report.rows:
        detail = f"{r.phase} k={r.k}" if r.phase else r.classification
        lines.append(f"{r.verdict:8s} {Path(r.path).name:28s} "
                     f"[{r.expected}] {detail} {r.time_ms} ms")
    lines.append("")
    lines.append(f"correct results     {report.correct_results}"
                 f"  (proofs {report.correct_proofs}, bugs {report.bugs_found})")
    lines.append(f"false incorrect     {report.false_incorrect}")
    lines.append(f"true incorrect      {report.true_incorrect}")
    lines.append(f"unknown and timeout {report.unknown_and_timeout}")
    if report.invalid:
        lines.append(f"invalid entries     {report.invalid}")
    if report.internal_errors:
        lines.append(f"internal errors     {report.internal_errors}")
    lines.append(f"score               {report.score}")
    lines.append(f"total time          {report.total_time_ms} ms")
    return "\n".join(lines)
