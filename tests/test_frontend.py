"""Lexer, parser, type checker."""

import shutil
import subprocess
from pathlib import Path

import pytest

from kinduct.frontend import (
    Assert, Assume, Binary, Cast, Const, IntType, MiniCError, Nondet, Program,
    Var, While, is_boolean, lex, parse, pretty_print, promote, typecheck,
)
from conftest import FIG1, NEGATIVE, compile_mc, corpus_entries


def count_nodes(prog, kind):
    found = []

    def walk(node):
        if isinstance(node, kind):
            found.append(node)
        for f in getattr(node, "__dataclass_fields__", {}):
            v = getattr(node, f)
            for child in v if isinstance(v, list) else [v]:
                if hasattr(child, "__dataclass_fields__"):
                    walk(child)
    for fn in prog.functions:
        walk(fn)
    return found


def test_fig1_shape():
    prog = typecheck(parse(FIG1))
    assert len(prog.functions) == 1
    assert prog.entry == "main"
    assert len(count_nodes(prog, While)) == 1
    assert len(count_nodes(prog, Assert)) == 1
    (nd,) = count_nodes(prog, Nondet)
    assert nd.ty == IntType(32, False)


def test_empty_main():
    prog = typecheck(parse("int main() { return 0; }"))
    assert count_nodes(prog, While) == []
    assert count_nodes(prog, Assert) == []


def test_for_loop_parses_and_runs():
    src = """int main() {
      int s = 0;
      int i = 0;
      for (i = 0; i < 10; i = i + 1) { s = s + i; }
      assert(s == 45);
      return 0;
    }
    """
    from kinduct.interp import SequentialProvider, run_ast
    prog = typecheck(parse(src))
    res = run_ast(prog, SequentialProvider([]))
    assert res.status == "COMPLETED"
    assert res.store["s"] == 45


def test_parse_error_carries_location():
    with pytest.raises(MiniCError) as exc:
        parse("int main() { int x = 1 return 0; }")
    assert "1:" in str(exc.value)


LITERALS = ["0", "00", "7", "010", "0777", "0x1F", "0XaB", "42"]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_integer_literals_agree_with_gcc(tmp_path):
    """Decimal, octal and hex literals take gcc's values, and the
    literals the lexer rejects gcc rejects too."""
    src = tmp_path / "literals.c"
    src.write_text("#include <stdio.h>\nint main(void) {\n" + "".join(
        f'  printf("%u\\n", (unsigned) {t});\n' for t in LITERALS) + "  return 0;\n}\n")
    exe = tmp_path / "literals"
    subprocess.run(["gcc", "-o", str(exe), str(src)], check=True)
    expected = [int(line) for line in subprocess.run(
        [str(exe)], capture_output=True, text=True, check=True).stdout.split()]
    assert [tok.num for tok in lex(" ".join(LITERALS))[:-1]] == expected
    for bad in ("0x", "0xg1", "09", "0128"):
        with pytest.raises(MiniCError):
            lex(bad)
        src.write_text(f"int x = {bad};\n")
        assert subprocess.run(["gcc", "-fsyntax-only", str(src)],
                              capture_output=True).returncode != 0, bad


def test_promotion_rule():
    # widen to the larger width; mixed signedness goes unsigned
    assert promote(IntType(8, True), IntType(8, False)) == IntType(8, False)
    assert promote(IntType(8, True), IntType(32, True)) == IntType(32, True)
    assert promote(IntType(16, False), IntType(32, True)) == IntType(32, False)
    assert promote(IntType(8, True), IntType(8, True)) == IntType(8, True)


def test_typecheck_annotates_widths():
    src = "int main() { char a = 1; unsigned char b = 2; int r = a + b; return 0; }"
    prog = typecheck(parse(src))
    adds = [b for b in count_nodes(prog, Binary) if b.op == "+"]
    assert len(adds) == 1
    assert adds[0].ty == IntType(8, False)
    # both operands materialized as casts to the promoted type
    for side in (adds[0].left, adds[0].right):
        assert side.ty == IntType(8, False)


def test_assert_of_integer_becomes_nonzero_test():
    prog = typecheck(parse("int main() { int x = 3; assert(x); return 0; }"))
    (a,) = count_nodes(prog, Assert)
    assert is_boolean(a.cond)
    assert isinstance(a.cond, Binary) and a.cond.op == "!="


def test_assume_forms():
    src = """int main() {
      int x = *;
      assume(x > 0);
      __VERIFIER_assume(x < 10);
      __ESBMC_assume(x != 5);
      return 0;
    }
    """
    prog = typecheck(parse(src))
    assert len(count_nodes(prog, Assume)) == 3


def test_nondet_call_forms():
    src = """int main() {
      int a = __VERIFIER_nondet_int();
      unsigned char b = __VERIFIER_nondet_uchar();
      short c = __VERIFIER_nondet_short();
      return 0;
    }
    """
    prog = typecheck(parse(src))
    tys = [n.ty for n in count_nodes(prog, Nondet)]
    assert tys == [IntType(32, True), IntType(8, False), IntType(16, True)]


def test_explicit_cast():
    prog = typecheck(parse(
        "int main() { char c = -1; unsigned char u = (unsigned char)c; return 0; }"))
    casts = [c for c in count_nodes(prog, Cast) if c.ty == IntType(8, False)]
    assert casts


def test_override_widths():
    prog = parse(FIG1)
    prog8 = typecheck(prog, 8)
    (nd,) = count_nodes(prog8, Nondet)
    assert nd.ty == IntType(8, False)


def test_round_trip_corpus():
    for path, _expected, _cat in corpus_entries():
        src = path.read_text()
        first = parse(src)
        second = parse(pretty_print(first))
        assert pretty_print(first) == pretty_print(second), path.name
        assert first == second, path.name


@pytest.mark.parametrize("path", sorted(NEGATIVE.glob("*.mc")),
                         ids=lambda p: p.stem)
def test_negative_corpus_rejected(path):
    with pytest.raises(MiniCError):
        compile_mc(path.read_text())


NAMED_REJECTIONS = {
    "pointer_decl.mc": "pointer",
    "array_decl.mc": "array",
    "float_decl.mc": "float",
    "recursion.mc": "recursion",
    "undeclared_var.mc": "undeclared variable",
    "break_stmt.mc": "break",
    "goto_stmt.mc": "goto",
    "address_of.mc": "address-of",
    "return_in_loop.mc": "return inside a loop",
}


@pytest.mark.parametrize("name,needle", sorted(NAMED_REJECTIONS.items()))
def test_rejection_names_the_construct(name, needle):
    with pytest.raises(MiniCError) as exc:
        compile_mc((NEGATIVE / name).read_text())
    assert needle in str(exc.value)


def test_negative_corpus_has_twenty_files():
    assert len(list(NEGATIVE.glob("*.mc"))) == 20


MULTI_DECL = """unsigned int g = 3, h;
int main() {
  int a = 1, b = a + 1;
  unsigned int s = 0;
  for (unsigned int i = 0, j = 10; i < 4; i++) {
    s = s + j;
    j = j - 1;
  }
  assert(a + b == 3 && s == 34 && g + h == 3);
  return 0;
}
"""


def test_declarators_of_one_declaration_share_its_scope():
    # Each declarator is visible after the declaration, a later one's
    # initialiser included; a for header's are visible in the loop.
    from kinduct.interp import SequentialProvider, run_ast
    prog = typecheck(parse(MULTI_DECL))
    assert [g.name for g in prog.globals] == ["g", "h"]
    res = run_ast(prog, SequentialProvider([]))
    assert res.status == "COMPLETED"
    assert parse(pretty_print(prog)) == parse(MULTI_DECL)


@pytest.mark.parametrize("src,needle", [
    ("int main() { for (int i = 0, j = 1; i < 2; i++) { } return j; }",
     "undeclared variable 'j'"),
    ("int main() { { int a = 1, b = 2; } return a; }",
     "undeclared variable 'a'"),
    ("int main() { int a = 1, a = 2; return 0; }", "redeclaration of 'a'"),
], ids=["for_header", "block", "twice"])
def test_declarators_stay_in_their_scope(src, needle):
    with pytest.raises(MiniCError, match=needle):
        typecheck(parse(src))
