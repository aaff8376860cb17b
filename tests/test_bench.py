"""Manifest parsing, suite execution, scoring, and report formats."""

import csv
import io
import json
import os
from pathlib import Path

import pytest

from kinduct import bench, cli
from kinduct.bench import (
    BenchReport, ManifestError, _classify, format_report, parse_manifest,
    report_to_csv, report_to_json, run_suite, score,
)
from kinduct.driver import KInductionConfig, ReplayError
from conftest import CORPUS


def toy_manifest(tmp_path):
    lines = [
        "# three entries, one per outcome",
        "",
        f"{CORPUS}/straightline_safe.mc\tsafe\tstraightline",
        f"{CORPUS}/wrap_bug.mc\tunsafe\tbitvector",
        f"{CORPUS}/count_up.mc\tsafe\tbounded",
    ]
    path = tmp_path / "toy.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def toy_cfg():
    # too few iterations for count_up, plenty for the other two
    return KInductionConfig(invariants_mode="none", max_iterations=3)


def test_toy_manifest_tallies(tmp_path):
    m = parse_manifest(str(toy_manifest(tmp_path)))
    assert len(m.entries) == 3
    report = run_suite(m, toy_cfg())
    assert report.correct_proofs == 1
    assert report.bugs_found == 1
    assert report.unknown_and_timeout == 1
    assert report.correct_results == 2
    assert report.false_incorrect == 0
    assert report.true_incorrect == 0
    assert report.invalid == 0
    assert report.score == 3
    assert [r.path for r in report.rows] == sorted(r.path for r in report.rows)
    counted = (report.correct_results + report.false_incorrect
               + report.true_incorrect + report.unknown_and_timeout
               + report.invalid)
    assert counted == len(m.entries)


def test_parallel_run_matches_serial(tmp_path):
    m = parse_manifest(str(toy_manifest(tmp_path)))
    serial = run_suite(m, toy_cfg())
    parallel = run_suite(m, toy_cfg(), jobs=2)
    assert [(r.path, r.verdict, r.classification) for r in serial.rows] \
        == [(r.path, r.verdict, r.classification) for r in parallel.rows]
    assert serial.score == parallel.score


def test_empty_manifest(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n\n")
    m = parse_manifest(str(path))
    assert m.entries == []
    report = run_suite(m)
    assert report.score == 0
    assert report.rows == []


def test_manifest_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("prog.mc\tsafe\n")
    with pytest.raises(ManifestError, match="three tab-separated"):
        parse_manifest(str(path))


def test_manifest_rejects_unknown_label(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("prog.mc\tmaybe\tmisc\n")
    with pytest.raises(ManifestError, match="safe or unsafe"):
        parse_manifest(str(path))


def test_paths_resolve_relative_to_manifest(tmp_path):
    (tmp_path / "ok.mc").write_text(
        "int main() { assert(1); return 0; }\n")
    path = tmp_path / "rel.tsv"
    path.write_text("ok.mc\tsafe\tstraightline\n")
    report = run_suite(parse_manifest(str(path)))
    assert report.correct_proofs == 1


def test_missing_file_is_invalid(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("ghost.mc\tsafe\tmisc\n")
    report = run_suite(parse_manifest(str(path)))
    (row,) = report.rows
    assert row.verdict == "INVALID"
    assert row.classification == "invalid"
    assert row.error == "file not found"
    assert report.invalid == 1 and report.score == 0


def test_unparseable_file_is_invalid(tmp_path):
    (tmp_path / "ptr.mc").write_text("int main() { int *p; return 0; }\n")
    path = tmp_path / "m.tsv"
    path.write_text("ptr.mc\tunsafe\tmisc\n")
    report = run_suite(parse_manifest(str(path)))
    (row,) = report.rows
    assert row.classification == "invalid"
    assert row.error


def test_internal_error_is_not_invalid(tmp_path, monkeypatch):
    def broken(path, cfg):
        raise ReplayError("model does not replay")
    monkeypatch.setattr(bench, "verify_file", broken)
    report = run_suite(parse_manifest(str(toy_manifest(tmp_path))), toy_cfg())
    assert [(r.verdict, r.classification) for r in report.rows] == \
        [("ERROR", "internal_error")] * 3
    assert all(r.error.startswith("Traceback") and
               r.error.endswith("ReplayError: model does not replay\n")
               for r in report.rows)
    assert (report.internal_errors, report.invalid, report.score) == (3, 0, 0)
    assert "internal errors     3" in format_report(report)


def test_dead_worker_costs_one_row(tmp_path, monkeypatch, capsys):
    # Forked workers inherit the patch: the worker given wrap_bug.mc dies,
    # which breaks the pool and every future still pending in it.
    real = bench.verify_file

    def dying(path, cfg):
        if path.endswith("wrap_bug.mc"):
            os._exit(1)
        return real(path, cfg)
    monkeypatch.setattr(bench, "verify_file", dying)
    manifest = toy_manifest(tmp_path)
    report = run_suite(parse_manifest(str(manifest)), toy_cfg(), jobs=2)
    rows = {Path(r.path).name: r for r in report.rows}
    assert [(n, r.verdict, r.classification) for n, r in sorted(rows.items())] == [
        ("count_up.mc", "UNKNOWN", "unknown_and_timeout"),
        ("straightline_safe.mc", "TRUE", "correct_proof"),
        ("wrap_bug.mc", "ERROR", "internal_error"),
    ]
    assert rows["wrap_bug.mc"].error == "worker process died"
    assert (report.internal_errors, report.correct_proofs, report.score) == (1, 1, 2)
    assert cli.main(["bench", str(manifest), "--jobs", "2",
                     "--invariants", "none", "--k-max", "3"]) == cli.EXIT_INTERNAL
    assert "internal errors     1" in capsys.readouterr().out


def test_classification_matrix():
    assert _classify("unsafe", "FALSE") == "bug_found"
    assert _classify("safe", "FALSE") == "false_incorrect"
    assert _classify("safe", "TRUE") == "correct_proof"
    assert _classify("unsafe", "TRUE") == "true_incorrect"
    assert _classify("safe", "UNKNOWN") == "unknown_and_timeout"
    assert _classify("unsafe", "UNKNOWN") == "unknown_and_timeout"


@pytest.mark.parametrize("bugs,proofs,false_inc,true_inc,expected", [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 2),
    (0, 0, 1, 0, -6),
    (0, 0, 0, 1, -12),
    (1, 2, 1, 0, -1),
    (3, 0, 0, 1, -9),
    (5, 10, 0, 0, 25),
    (2, 2, 2, 2, -30),
    (0, 4, 1, 1, -10),
])
def test_score_weights(bugs, proofs, false_inc, true_inc, expected):
    report = BenchReport([], bugs_found=bugs, correct_proofs=proofs,
                         false_incorrect=false_inc, true_incorrect=true_inc)
    assert score(report) == expected


def test_csv_shape(tmp_path):
    report = run_suite(parse_manifest(str(toy_manifest(tmp_path))), toy_cfg())
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert rows[0] == ["path", "expected", "verdict", "phase", "k", "time_ms"]
    assert len(rows) == 1 + len(report.rows)
    unknown = next(r for r in rows[1:] if r[2] == "UNKNOWN")
    assert unknown[3] == "" and unknown[4] == ""


def test_json_round_trip(tmp_path):
    report = run_suite(parse_manifest(str(toy_manifest(tmp_path))), toy_cfg())
    data = json.loads(report_to_json(report))
    assert data["score"] == report.score
    assert len(data["rows"]) == 3
    assert {r["verdict"] for r in data["rows"]} == {"TRUE", "FALSE", "UNKNOWN"}


def test_format_report_mentions_tallies(tmp_path):
    report = run_suite(parse_manifest(str(toy_manifest(tmp_path))), toy_cfg())
    text = format_report(report)
    assert "score               3" in text
    assert "wrap_bug.mc" in text
    assert "correct results     2" in text
