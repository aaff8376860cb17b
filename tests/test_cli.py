"""Command line behavior: exit codes, JSON output, dumps, bench."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kinduct import bench, cli
from kinduct.cli import (
    EXIT_FALSE, EXIT_INTERNAL, EXIT_TRUE, EXIT_UNKNOWN, EXIT_USAGE, main,
)
from kinduct.driver import ReplayError
from kinduct.solver import SolverError
from conftest import CORPUS, SUPERLOOP, corpus_entries, corpus_path
from test_invariants import GOLDEN as INVARIANTS_GOLDEN

FIG1_DUMP = """\
0: ASSIGN x := *
1: COND_GOTO !(x > 0) -> 4
2: ASSIGN x := x - 1
3: GOTO 1
4: ASSERT x == 0
5: ASSIGN main.ret := 0"""


def run(*argv):
    return main(list(argv))


def test_exit_code_true():
    assert run("verify", str(corpus_path("fig1_unsigned.mc"))) == EXIT_TRUE


def test_exit_code_false():
    assert run("verify", str(corpus_path("wrap_bug.mc"))) == EXIT_FALSE


def test_exit_code_unknown(capsys):
    args = ("verify", str(corpus_path("count_up.mc")),
            "--invariants", "none", "--k-max", "3")
    assert run(*args) == EXIT_UNKNOWN
    assert "UNKNOWN (k_max) [" in capsys.readouterr().out
    assert run(*args, "--json") == EXIT_UNKNOWN
    obj = json.loads(capsys.readouterr().out)
    assert (obj["status"], obj["phase"], obj["reason"]) == ("UNKNOWN", None, "k_max")


def test_exit_code_missing_file(capsys):
    assert run("verify", "/nonexistent/prog.mc") == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"int main() { \xff return 0; }\n"],
                         ids=["directory", "not_utf8"])
def test_unreadable_source_is_a_usage_error(content, tmp_path, capsys):
    path = tmp_path / "prog.mc"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run("verify", str(path)) == EXIT_USAGE
    assert run("verify", str(path), "--dump-goto") == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith(f"kinduct: error: {path}: ")


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("int main() { int *p; return 0; }\n")
    assert run("verify", str(bad)) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_exit_code_usage_errors(capsys):
    assert run() == EXIT_USAGE
    assert run("verify") == EXIT_USAGE
    assert run("verify", "x.mc", "--width-override", "12") == EXIT_USAGE
    capsys.readouterr()
    for k in ("0", "-1"):
        assert run("verify", str(corpus_path("off_by_one.mc")),
                   "--dump-unwound", "base", "--k", k) == EXIT_USAGE
        assert "--k: must be at least 1" in capsys.readouterr().err


# Calls in operands that C may skip.  Evaluation is eager, so each call
# used to run unconditionally.  The first two gave TRUE (forward, k=2),
# where C reaches the failing assertion with c == 0 because it skips f.
# The third gave FALSE (base, k=1) with g == 11, although C runs only one
# of f and h.
ASSUME_FALSE = "int f() {\n  __VERIFIER_assume(0);\n  return 1;\n}\n"
SKIPPED_CALLS = {
    "and": (ASSUME_FALSE + """int main() {
  int c = *;
  if (c != 0 && f() == 1) {
    c = 1;
  }
  assert(c != 0);
  return 0;
}
""", "right operand of '&&'"),
    "cond": (ASSUME_FALSE + """int main() {
  int c = *;
  int x = c != 0 ? f() : 0;
  assert(c != 0);
  return 0;
}
""", "branch of '?:'"),
    "cond_both": ("""int g = 0;
int f() {
  g = g + 1;
  return 1;
}
int h() {
  g = g + 10;
  return 0;
}
int main() {
  int c = *;
  int x = c ? f() : h();
  assert(g == 1 || g == 10);
  return 0;
}
""", "branch of '?:'"),
}


@pytest.mark.parametrize("name", sorted(SKIPPED_CALLS))
def test_call_in_an_operand_c_may_skip_is_rejected(name, tmp_path, capsys):
    source, construct = SKIPPED_CALLS[name]
    f = tmp_path / f"{name}.mc"
    f.write_text(source)
    assert run("verify", str(f)) == EXIT_USAGE
    assert f"function call in {construct} is not supported" in capsys.readouterr().err


def test_leading_zero_literal_is_octal(tmp_path):
    f = tmp_path / "octal.mc"
    f.write_text("int main() {\n  unsigned int x = 010;\n"
                 "  assert(x == 8);\n  return 0;\n}\n")
    assert run("verify", str(f)) == EXIT_TRUE


@pytest.mark.parametrize("literal,message", [
    ("0x", "hexadecimal literal '0x' has no digits"),
    ("0xg1", "hexadecimal literal '0x' has no digits"),
    ("09", "invalid digit '9' in octal literal '09'"),
])
def test_malformed_integer_literal_is_rejected(literal, message, tmp_path, capsys):
    f = tmp_path / "literal.mc"
    f.write_text(f"int main() {{\n  int x = {literal};\n  return 0;\n}}\n")
    assert run("verify", str(f)) == EXIT_USAGE
    assert f"{f}:2:11: {message}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "verify" in capsys.readouterr().out
    assert run("verify", "--help") == 0
    capsys.readouterr()


def test_plain_output_line(capsys):
    run("verify", str(corpus_path("fig1_unsigned.mc")))
    out = capsys.readouterr().out
    assert "TRUE (inductive, k=2)" in out
    assert "ms]" in out


def test_json_output_proof(capsys):
    path = str(corpus_path("fig1_unsigned.mc"))
    assert run("verify", path, "--json") == EXIT_TRUE
    obj = json.loads(capsys.readouterr().out)
    assert obj["file"] == path
    assert obj["status"] == "TRUE"
    assert obj["phase"] == "INDUCTIVE"
    assert obj["k"] == 2
    assert obj["reason"] is None
    assert isinstance(obj["time_ms"], int)
    assert "trace" not in obj


def test_json_output_counterexample(capsys):
    assert run("verify", str(corpus_path("fig1_bug.mc")), "--json") == EXIT_FALSE
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "FALSE" and obj["phase"] == "BASE"
    assert obj["trace"]["states"] == [{"x": 0}, {"x": 0}]
    assert obj["trace"]["violated"] == {"line": 6, "col": 3}


def test_show_cex(capsys):
    run("verify", str(corpus_path("fig1_bug.mc")), "--show-cex")
    out = capsys.readouterr().out
    assert "violated assertion at line 6" in out
    assert "s[0] x=0" in out


SNAPSHOT_SHIFT = """\
unsigned int x = 5;
int main() {
unsigned int i = 0;
// P(x) {x#init == 5}
while (i < 3) {
i = i + 1;
}
assert(i != 3);
return 0;
}
"""


@pytest.mark.parametrize("mode", ["none", "comments"])
def test_show_cex_line_ignores_snapshot_declarations(mode, tmp_path, capsys):
    # The x_init declaration that `comments` adds must not shift line 8.
    src = tmp_path / "shift.mc"
    src.write_text(SNAPSHOT_SHIFT)
    assert run("verify", str(src), "--show-cex", "--invariants", mode) == EXIT_FALSE
    assert "violated assertion at line 8\n" in capsys.readouterr().out


def test_dump_goto_golden(capsys):
    assert run("verify", str(corpus_path("fig1_unsigned.mc")),
               "--dump-goto", "--invariants", "none") == EXIT_TRUE
    assert capsys.readouterr().out.strip() == FIG1_DUMP


def test_dump_invariants(capsys):
    assert run("verify", str(corpus_path("fig1_unsigned.mc")),
               "--dump-invariants") == EXIT_TRUE
    assert "head@1: 0 <= x" in capsys.readouterr().out


def test_dump_invariants_prints_what_builtin_plants(capsys):
    """Under the default mode, the facts `instrument` plants, at the loop
    heads of the program it instruments: the invariant golden's `native`
    blocks."""
    blocks, name = {}, None
    for line in INVARIANTS_GOLDEN.read_text().splitlines():
        if line.startswith("== "):
            _, name, width = line.split()
            name = name if width == "native" else None
            if name:
                blocks[name] = []
        elif name:
            blocks[name].append(line)
    assert len(blocks) == len(corpus_entries())
    for path, _expected, _cat in corpus_entries():
        assert run("verify", str(path), "--dump-invariants") == EXIT_TRUE
        assert capsys.readouterr().out.strip() == "\n".join(blocks[path.name]), path.name


def test_dump_invariants_loads_and_infers_once(capsys, monkeypatch):
    """Under the default `builtin` mode, `--dump-invariants` alone runs
    the inference once: for the dump, not for a program it never prints."""
    from kinduct import driver, invariants
    calls = []

    def counted(*args):
        calls.append(args)
        return invariants.infer_invariants(*args)
    monkeypatch.setattr(driver, "infer_invariants", counted)
    monkeypatch.setattr(cli, "infer_invariants", counted)
    assert run("verify", str(corpus_path("fig1_unsigned.mc")),
               "--dump-invariants") == EXIT_TRUE
    assert capsys.readouterr().out.strip()
    assert len(calls) == 1


def test_dump_unwound_with_k(capsys):
    assert run("verify", str(corpus_path("fig1_unsigned.mc")),
               "--dump-unwound", "forward", "--k", "2",
               "--invariants", "none") == EXIT_TRUE
    out = capsys.readouterr().out
    assert "forward" in out and "k=2" in out


def test_dump_unwound_superloop(tmp_path, capsys):
    # The inductive step's stutter assume over no loop variable is FALSE.
    path = tmp_path / "superloop.mc"
    path.write_text(SUPERLOOP)
    assert run("verify", str(path), "--dump-unwound", "inductive",
               "--k", "2") == EXIT_TRUE
    assert capsys.readouterr().out.count("ASSUME 0") == 2


def test_emit_directories(tmp_path, capsys):
    smt = tmp_path / "smt"
    cnf = tmp_path / "cnf"
    assert run("verify", str(corpus_path("fig1_unsigned.mc")),
               "--emit-smt", str(smt), "--emit-cnf", str(cnf)) == EXIT_TRUE
    capsys.readouterr()
    assert len(list(smt.glob("*.smt2"))) == 4
    assert len(list(cnf.glob("*.cnf"))) == 4


def bench_manifest(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        f"{CORPUS}/straightline_safe.mc\tsafe\tstraightline\n"
        f"{CORPUS}/wrap_bug.mc\tunsafe\tbitvector\n")
    return str(path)


def test_bench_subcommand(tmp_path, capsys):
    csv_out = tmp_path / "rows.csv"
    json_out = tmp_path / "report.json"
    assert run("bench", bench_manifest(tmp_path),
               "--csv", str(csv_out), "--json", str(json_out)) == EXIT_TRUE
    out = capsys.readouterr().out
    assert "score               3" in out
    assert csv_out.read_text().startswith("path,expected,verdict")
    data = json.loads(json_out.read_text())
    assert data["score"] == 3 and len(data["rows"]) == 2


def test_bench_fails_on_internal_error(tmp_path, capsys, monkeypatch):
    def broken(path, cfg):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(bench, "verify_file", broken)
    assert run("bench", bench_manifest(tmp_path)) == EXIT_INTERNAL
    assert "internal errors     2" in capsys.readouterr().out


@pytest.mark.parametrize("error", [
    ReplayError("replay ended with COMPLETED, not a violation"),
    RecursionError("maximum recursion depth exceeded"),
    SolverError("unsubstituted nondet in encoding"),
], ids=["ReplayError", "RecursionError", "SolverError"])
def test_verify_internal_error_exits_internal(error, capsys, monkeypatch):
    def broken(path, cfg):
        raise error
    monkeypatch.setattr(cli, "verify_file", broken)
    assert run("verify", str(corpus_path("fig1_unsigned.mc"))) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and type(error).__name__ in err


def test_bench_manifest_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-field\n")
    assert run("bench", str(bad)) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_bench_manifest_directory_is_a_usage_error(tmp_path, capsys):
    assert run("bench", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kinduct: error: ")
    assert "Is a directory" in err[0]


@pytest.mark.skipif(shutil.which("kinduct") is None,
                    reason="console script not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["kinduct", "verify", str(corpus_path("fig1_unsigned.mc"))],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "TRUE" in proc.stdout


def test_module_entry_point():
    # The same command as the console script, run as a module, so the
    # process exit codes are checked wherever the package is not installed.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def verify(name):
        return subprocess.run(
            [sys.executable, "-m", "kinduct.cli", "verify", str(corpus_path(name))],
            capture_output=True, text=True, env=env)

    proc = verify("fig1_unsigned.mc")
    assert proc.returncode == EXIT_TRUE
    assert "TRUE" in proc.stdout
    proc = verify("wrap_bug.mc")
    assert proc.returncode == EXIT_FALSE
    assert "FALSE" in proc.stdout


@pytest.mark.parametrize("body,code", [
    ("int a = 1, b = 2;\n  assert(a + b == 3);", EXIT_TRUE),
    ("unsigned int s = 0;\n  for (unsigned int i = 0, j = 10; i < 4; i++)"
     " { s = s + j; j = j - 1; }\n  assert(s == 34);", EXIT_TRUE),
    ("unsigned int s = 0;\n  for (unsigned int i = 0, j = 10; i < 4; i++)"
     " { s = s + j; j = j - 1; }\n  assert(s != 34);", EXIT_FALSE),
], ids=["locals", "for_header", "for_header_bug"])
def test_verify_declaration_with_two_declarators(body, code, tmp_path):
    # The declarators were once a scoped block: `a` was undeclared below.
    f = tmp_path / "multi.mc"
    f.write_text(f"int main() {{\n  {body}\n  return 0;\n}}\n")
    assert run("verify", str(f)) == code


def assert_usage_error(code, capsys, expected):
    """Exit 3 with one `kinduct: error:` line naming `expected`, no
    traceback, and nothing run."""
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "Traceback" not in err and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kinduct: error: ")
    assert expected in lines[0]


@pytest.mark.parametrize("flag", ["--emit-cnf", "--emit-smt"])
def test_verify_emit_path_that_is_a_file_is_a_usage_error(flag, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run("verify", str(corpus_path("fig1_unsigned.mc")), flag, str(taken))
    assert_usage_error(code, capsys, "File exists")


def test_bench_emit_path_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run("bench", bench_manifest(tmp_path), "--emit-cnf", str(taken))
    assert_usage_error(code, capsys, "File exists")


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_bench_report_in_a_missing_directory_is_a_usage_error(flag, tmp_path, capsys):
    # Checked before the suite runs, not after it.
    code = run("bench", bench_manifest(tmp_path), flag,
               str(tmp_path / "missing" / "report"))
    assert_usage_error(code, capsys, "No such file or directory")


@pytest.mark.parametrize("argv,expected", [
    (("verify", "{file}", "--timeout", "-5"), "timeout_seconds must be >= 0"),
    (("bench", "{manifest}", "--timeout", "-5"), "timeout_seconds must be >= 0"),
    (("bench", "{manifest}", "--jobs", "0"), "must be at least 1, not 0"),
    (("bench", "{manifest}", "--jobs", "-2"), "must be at least 1, not -2"),
], ids=["verify_timeout", "bench_timeout", "jobs_0", "jobs_-2"])
def test_option_values_that_do_nothing_are_usage_errors(argv, expected,
                                                        tmp_path, capsys):
    args = [a.format(file=corpus_path("fig1_unsigned.mc"),
                     manifest=bench_manifest(tmp_path)) for a in argv]
    assert run(*args) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert expected in err.splitlines()[-1]


def test_internal_invariant_failure_is_an_internal_error(tmp_path, capsys,
                                                         monkeypatch):
    # A constraint over a variable the program lacks can only come from a
    # bug in the invariant generator, so it is not an invalid input.
    from kinduct import driver
    from kinduct.goto_ir import LoopItem, items_in
    from kinduct.invariants import InvariantSet, upper_bound
    monkeypatch.setattr(driver, "infer_invariants", lambda g, deadline: InvariantSet(
        {loop.loop_id: [upper_bound("ghost", 3)] for loop in items_in(g.tree)
         if isinstance(loop, LoopItem)}))
    assert run("verify", str(corpus_path("fig1_unsigned.mc"))) == EXIT_INTERNAL
    assert "unknown variable ghost" in capsys.readouterr().err
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{CORPUS}/fig1_unsigned.mc\tsafe\tloops\n")
    assert run("bench", str(manifest)) == EXIT_INTERNAL
    assert "internal errors     1" in capsys.readouterr().out
