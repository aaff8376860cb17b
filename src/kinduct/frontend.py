"""MiniC frontend: lexer, parser, type checker, and pretty printer.

MiniC is a small C subset: signed/unsigned integers of widths 8/16/32,
declarations, assignments, if/else, while, for, do-while, assert/assume,
nondeterministic values (`*` initializers and __VERIFIER_nondet_* calls),
and non-recursive function calls.  Pointers, arrays, floats, structs,
recursion, goto, switch, break and continue are rejected with errors that
name the offending construct.

The parser produces a plain AST; `typecheck` returns a new AST in which
every expression carries a type, implicit conversions are explicit Cast
nodes, and every condition is a boolean-valued expression (integers used
as conditions are wrapped as `e != 0`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


# ---------------------------------------------------------------------------
# types and source locations

@dataclass(frozen=True)
class IntType:
    """A machine integer type: bit width plus signedness."""

    width: int
    signed: bool

    @property
    def min(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Reduce an integer into this type's range with wraparound."""
        value &= (1 << self.width) - 1
        if self.signed and value > self.max:
            value -= 1 << self.width
        return value

    def __str__(self) -> str:
        return _TYPE_NAMES[(self.width, self.signed)]


_TYPE_NAMES = {
    (8, True): "char",
    (8, False): "unsigned char",
    (16, True): "short",
    (16, False): "unsigned short",
    (32, True): "int",
    (32, False): "unsigned int",
}

INT = IntType(32, True)
UINT = IntType(32, False)

_NONDET_SUFFIXES = {
    "int": IntType(32, True),
    "uint": IntType(32, False),
    "unsigned": IntType(32, False),
    "char": IntType(8, True),
    "uchar": IntType(8, False),
    "short": IntType(16, True),
    "ushort": IntType(16, False),
}


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class MiniCError(Exception):
    """Base for all frontend errors; carries a source location."""

    def __init__(self, msg: str, loc: Loc | None = None, file: str = "<input>"):
        self.msg = msg
        self.loc = loc
        self.file = file
        where = f"{file}:{loc}: " if loc else f"{file}: "
        super().__init__(where + msg)


class MiniCSyntaxError(MiniCError):
    pass


class UnsupportedConstructError(MiniCSyntaxError):
    """An input uses a C feature outside the MiniC subset."""

    def __init__(self, construct: str, loc: Loc | None = None, file: str = "<input>"):
        self.construct = construct
        super().__init__(f"unsupported construct: {construct}", loc, file)


class MiniCTypeError(MiniCError):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass
class Node:
    loc: Loc | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Expr(Node):
    # Filled in by typecheck; ignored by structural comparison so that a
    # parsed and a checked tree with the same shape compare equal.
    ty: IntType | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Const(Expr):
    value: int = 0


@dataclass
class Var(Expr):
    name: str = ""
    # Scope-resolved unique name, filled in by typecheck.
    rid: str | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Nondet(Expr):
    """A nondeterministic value: `*` initializer or __VERIFIER_nondet_*()."""

    star: bool = True
    nid: int | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None
    # For / and %: identifies the fresh nondet produced on division by zero.
    nid: int | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Cast(Expr):
    target: IntType = None
    operand: Expr = None
    explicit: bool = field(default=True, kw_only=True, compare=False, repr=False)


@dataclass
class Cond(Expr):
    """C conditional operator c ? a : b."""

    cond: Expr = None
    then: Expr = None
    els: Expr = None


@dataclass
class Call(Expr):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    name: str = ""
    decl_ty: IntType = None
    init: Expr | None = None
    rid: str | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Assign(Stmt):
    name: str = ""
    value: Expr = None
    rid: str | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    els: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class Assert(Stmt):
    cond: Expr = None


@dataclass
class Assume(Stmt):
    cond: Expr = None
    # Source spelling: assume, __ESBMC_assume or __VERIFIER_assume.
    form: str = field(default="assume", kw_only=True, compare=False)


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class Skip(Stmt):
    pass


@dataclass
class Param(Node):
    name: str = ""
    decl_ty: IntType = None
    rid: str | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class FunctionDef(Node):
    name: str = ""
    ret_ty: IntType | None = None  # None means void
    params: list = field(default_factory=list)
    body: Block = None


@dataclass
class Program:
    """A parsed MiniC translation unit.

    `items` preserves source order of global declarations and function
    definitions; `entry` names the entry function.
    """

    items: list = field(default_factory=list)
    entry: str = "main"
    file: str = field(default="<input>", kw_only=True, compare=False)

    @property
    def functions(self) -> list:
        return [it for it in self.items if isinstance(it, FunctionDef)]

    @property
    def globals(self) -> list:
        return [it for it in self.items if isinstance(it, VarDecl)]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


def _children(node):
    if not isinstance(node, Node):
        return
    for f in fields(node):
        if f.name in ("loc", "ty"):
            continue
        v = getattr(node, f.name)
        if isinstance(v, Node):
            yield v
        elif isinstance(v, list):
            for item in v:
                if isinstance(item, Node):
                    yield item


def walk(node):
    """Every node of the tree under `node`, itself first, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(_children(node))))


# ---------------------------------------------------------------------------
# lexer

_KEYWORDS = {
    "char", "short", "int", "unsigned", "signed", "void",
    "if", "else", "while", "for", "do", "return",
}

# Recognized so they can be rejected by name rather than as stray identifiers.
_REJECTED_KEYWORDS = {
    "float", "double", "long", "goto", "switch", "case", "default",
    "break", "continue", "struct", "union", "enum", "typedef", "sizeof",
    "static", "extern", "const", "volatile", "register", "auto", "_Bool",
}

_PUNCT3 = ("<<=", ">>=")
_PUNCT2 = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
)
_PUNCT1 = "+-*/%<>=!&|^~?:;,(){}[]."


@dataclass
class Token:
    kind: str  # ID, NUM, KW, PUNCT, EOF
    value: str
    loc: Loc
    num: int = 0


def lex(source: str, file: str = "<input>") -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        loc = Loc(line, col)
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise MiniCSyntaxError("unterminated block comment", loc, file)
            for ch in source[i:j + 2]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            continue
        if c.isdigit():
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                text = source[i:j]
                value = int(text, 16)
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == ".":
                    raise UnsupportedConstructError("floating-point literal", loc, file)
                text = source[i:j]
                value = int(text)
            if j < n and (source[j].isalpha() or source[j] == "_"):
                raise MiniCSyntaxError(f"bad numeric literal near '{source[i:j + 1]}'", loc, file)
            tokens.append(Token("NUM", text, loc, value))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word in _REJECTED_KEYWORDS:
                raise UnsupportedConstructError(word, loc, file)
            kind = "KW" if word in _KEYWORDS else "ID"
            tokens.append(Token(kind, word, loc))
            col += j - i
            i = j
            continue
        if c == '"':
            raise UnsupportedConstructError("string literal", loc, file)
        if c == "'":
            raise UnsupportedConstructError("character literal", loc, file)
        matched = None
        for p in _PUNCT3 + _PUNCT2:
            if source.startswith(p, i):
                matched = p
                break
        if matched is None and c in _PUNCT1:
            matched = c
        if matched is None:
            raise MiniCSyntaxError(f"unexpected character {c!r}", loc, file)
        tokens.append(Token("PUNCT", matched, loc))
        i += len(matched)
        col += len(matched)
    tokens.append(Token("EOF", "", Loc(line, col)))
    return tokens


# ---------------------------------------------------------------------------
# parser

_ASSUME_FORMS = ("assume", "__ESBMC_assume", "__VERIFIER_assume")


class _Parser:
    def __init__(self, tokens: list, file: str):
        self.tokens = tokens
        self.pos = 0
        self.file = file

    # token plumbing -------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind in ("PUNCT", "KW") and tok.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        if not self.at(value):
            tok = self.peek()
            got = tok.value or "end of input"
            raise MiniCSyntaxError(f"expected '{value}', found '{got}'", tok.loc, self.file)
        return self.next()

    def error(self, msg: str) -> MiniCSyntaxError:
        return MiniCSyntaxError(msg, self.peek().loc, self.file)

    def unsupported(self, construct: str) -> UnsupportedConstructError:
        return UnsupportedConstructError(construct, self.peek().loc, self.file)

    # types ----------------------------------------------------------------
    def at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "KW" and tok.value in ("char", "short", "int", "unsigned", "signed", "void")

    def parse_type(self, allow_void: bool = False) -> IntType | None:
        tok = self.peek()
        signed = None
        if tok.value == "void":
            if not allow_void:
                raise self.error("void is only valid as a return type")
            self.next()
            return None
        if tok.value in ("unsigned", "signed"):
            signed = tok.value == "signed"
            self.next()
            tok = self.peek()
        base = None
        if tok.kind == "KW" and tok.value in ("char", "short", "int"):
            base = tok.value
            self.next()
        if base is None:
            if signed is None:
                raise self.error(f"expected a type, found '{tok.value}'")
            base = "int"  # bare `unsigned` / `signed`
        width = {"char": 8, "short": 16, "int": 32}[base]
        return IntType(width, True if signed is None else signed)

    # program --------------------------------------------------------------
    def parse_program(self) -> Program:
        items = []
        while self.peek().kind != "EOF":
            items.append(self.parse_toplevel())
        prog = Program(items, file=self.file)
        self._check_entry(prog)
        self._check_recursion(prog)
        return prog

    def parse_toplevel(self):
        loc = self.peek().loc
        if not self.at_type():
            raise self.error(f"expected a declaration, found '{self.peek().value}'")
        ty = self.parse_type(allow_void=True)
        if self.at("*"):
            raise self.unsupported("pointer")
        name_tok = self.peek()
        if name_tok.kind != "ID":
            raise self.error(f"expected an identifier, found '{name_tok.value}'")
        self.next()
        if self.at("("):
            return self.parse_function(ty, name_tok.value, loc)
        if ty is None:
            raise MiniCSyntaxError("void is only valid as a return type", loc, self.file)
        decl = self.finish_declarator(ty, name_tok.value, name_tok.loc)
        self.expect(";")
        return decl

    def parse_function(self, ret_ty, name, loc) -> FunctionDef:
        self.expect("(")
        params = []
        if not self.at(")"):
            if self.peek().value == "void" and self.peek(1).value == ")":
                self.next()
            else:
                while True:
                    pty = self.parse_type()
                    if self.at("*"):
                        raise self.unsupported("pointer")
                    ptok = self.peek()
                    if ptok.kind != "ID":
                        raise self.error("expected a parameter name")
                    self.next()
                    self.check_no_declarator_suffix()
                    params.append(Param(ptok.value, pty, loc=ptok.loc))
                    if not self.accept(","):
                        break
        self.expect(")")
        body = self.parse_block()
        return FunctionDef(name, ret_ty, params, body, loc=loc)

    def check_no_declarator_suffix(self):
        if self.at("["):
            raise self.unsupported("array")
        if self.at("*"):
            raise self.unsupported("pointer")

    def expect_declarator_name(self) -> Token:
        if self.at("*"):
            raise self.unsupported("pointer")
        tok = self.peek()
        if tok.kind != "ID":
            raise self.error(f"expected an identifier in declaration, found '{tok.value}'")
        return self.next()

    def finish_declarator(self, ty: IntType, name: str, loc: Loc) -> VarDecl:
        self.check_no_declarator_suffix()
        init = None
        if self.accept("="):
            init = self.parse_initializer()
        return VarDecl(name, ty, init, loc=loc)

    def parse_initializer(self) -> Expr:
        tok = self.peek()
        if tok.value == "*" and self.peek(1).value in (";", ","):
            self.next()
            return Nondet(star=True, loc=tok.loc)
        return self.parse_expr()

    # statements -----------------------------------------------------------
    def parse_block(self) -> Block:
        loc = self.expect("{").loc
        stmts = []
        while not self.at("}"):
            if self.peek().kind == "EOF":
                raise self.error("unexpected end of input inside a block")
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Block(stmts, loc=loc)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        loc = tok.loc
        if self.at("{"):
            return self.parse_block()
        if self.accept(";"):
            return Skip(loc=loc)
        if self.at_type():
            if tok.value == "void":
                raise self.error("void is only valid as a return type")
            ty = self.parse_type()
            decls = []
            while True:
                name_tok = self.expect_declarator_name()
                decls.append(self.finish_declarator(ty, name_tok.value, name_tok.loc))
                if not self.accept(","):
                    break
            self.expect(";")
            return decls[0] if len(decls) == 1 else Block(decls, loc=loc)
        if tok.value == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            els = self.parse_stmt() if self.accept("else") else None
            return If(cond, then, els, loc=loc)
        if tok.value == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return While(cond, self.parse_stmt(), loc=loc)
        if tok.value == "do":
            self.next()
            body = self.parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return DoWhile(body, cond, loc=loc)
        if tok.value == "for":
            self.next()
            self.expect("(")
            init = None
            if not self.at(";"):
                if self.at_type():
                    ty = self.parse_type()
                    name_tok = self.expect_declarator_name()
                    init = self.finish_declarator(ty, name_tok.value, name_tok.loc)
                else:
                    init = self.parse_simple_stmt()
            self.expect(";")
            cond = None if self.at(";") else self.parse_expr()
            self.expect(";")
            step = None if self.at(")") else self.parse_simple_stmt()
            self.expect(")")
            return For(init, cond, step, self.parse_stmt(), loc=loc)
        if tok.value == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(value, loc=loc)
        if tok.kind == "ID" and tok.value == "assert" and self.peek(1).value == "(":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Assert(cond, loc=loc)
        if tok.kind == "ID" and tok.value in _ASSUME_FORMS and self.peek(1).value == "(":
            form = tok.value
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Assume(cond, form=form, loc=loc)
        stmt = self.parse_simple_stmt()
        self.expect(";")
        return stmt

    def parse_simple_stmt(self) -> Stmt:
        """An assignment, increment/decrement, or call, without the ';'."""
        tok = self.peek()
        loc = tok.loc
        if tok.value in ("++", "--"):
            op = self.next().value
            name_tok = self.peek()
            if name_tok.kind != "ID":
                raise self.error(f"expected a variable after '{op}'")
            self.next()
            var = Var(name_tok.value, loc=name_tok.loc)
            one = Const(1, loc=loc)
            return Assign(name_tok.value, Binary("+" if op == "++" else "-", var, one, loc=loc), loc=loc)
        if tok.value == "*":
            raise self.unsupported("pointer dereference")
        if tok.kind != "ID":
            raise self.error(f"expected a statement, found '{tok.value}'")
        name = tok.value
        self.next()
        if self.at("["):
            raise self.unsupported("array")
        if self.at("("):
            args = self.parse_call_args()
            return ExprStmt(Call(name, args, loc=loc), loc=loc)
        nxt = self.peek()
        if nxt.value in ("++", "--"):
            self.next()
            var = Var(name, loc=loc)
            one = Const(1, loc=nxt.loc)
            return Assign(name, Binary("+" if nxt.value == "++" else "-", var, one, loc=loc), loc=loc)
        if nxt.value == "=":
            self.next()
            return Assign(name, self.parse_initializer(), loc=loc)
        compound = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}
        if nxt.value in compound:
            self.next()
            rhs = self.parse_expr()
            return Assign(name, Binary(compound[nxt.value], Var(name, loc=loc), rhs, loc=loc), loc=loc)
        raise MiniCSyntaxError(f"expected an assignment or call, found '{nxt.value}'", nxt.loc, self.file)

    def parse_call_args(self) -> list:
        self.expect("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept(","):
                    break
        self.expect(")")
        return args

    # expressions ----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.at("?"):
            loc = self.next().loc
            then = self.parse_expr()
            self.expect(":")
            els = self.parse_ternary()
            return Cond(cond, then, els, loc=loc)
        return cond

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level: int) -> Expr:
        if level == len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        left = self.parse_binary(level + 1)
        while self.peek().kind == "PUNCT" and self.peek().value in ops:
            tok = self.next()
            right = self.parse_binary(level + 1)
            left = Binary(tok.value, left, right, loc=tok.loc)
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.value in ("-", "~", "!"):
            self.next()
            return Unary(tok.value, self.parse_unary(), loc=tok.loc)
        if tok.value == "+":
            self.next()
            return self.parse_unary()
        if tok.value == "*":
            raise self.unsupported("pointer dereference")
        if tok.value == "&":
            raise self.unsupported("address-of")
        if tok.value == "(" and self.peek(1).kind == "KW" and \
                self.peek(1).value in ("char", "short", "int", "unsigned", "signed"):
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return Cast(ty, self.parse_unary(), explicit=True, loc=tok.loc)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            return Const(tok.num, loc=tok.loc)
        if tok.value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ID":
            self.next()
            if self.at("("):
                if tok.value.startswith("__VERIFIER_nondet_"):
                    suffix = tok.value[len("__VERIFIER_nondet_"):]
                    ty = _NONDET_SUFFIXES.get(suffix)
                    if ty is None:
                        raise MiniCSyntaxError(f"unknown nondet type '{suffix}'", tok.loc, self.file)
                    args = self.parse_call_args()
                    if args:
                        raise MiniCSyntaxError("nondet calls take no arguments", tok.loc, self.file)
                    return Nondet(star=False, ty=ty, loc=tok.loc)
                args = self.parse_call_args()
                return Call(tok.value, args, loc=tok.loc)
            if self.at("["):
                raise self.unsupported("array")
            return Var(tok.value, loc=tok.loc)
        raise self.error(f"expected an expression, found '{tok.value or 'end of input'}'")

    # whole-program checks ---------------------------------------------------
    def _check_entry(self, prog: Program):
        mains = [f for f in prog.functions if f.name == prog.entry]
        if not mains:
            raise MiniCSyntaxError(f"missing entry function '{prog.entry}'", Loc(1, 1), self.file)
        if len(mains) > 1:
            raise MiniCSyntaxError(f"multiple definitions of '{prog.entry}'", mains[1].loc, self.file)

    def _check_recursion(self, prog: Program):
        defined = {f.name for f in prog.functions}
        calls = {f.name: {n.name for n in walk(f.body)
                          if isinstance(n, Call) and n.name in defined}
                 for f in prog.functions}

        # DFS cycle detection over the call graph.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: 0 for name in defined}

        def visit(name):
            color[name] = GRAY
            for callee in calls[name]:
                if color[callee] == GRAY:
                    raise UnsupportedConstructError(
                        "recursion", prog.function(callee).loc, self.file)
                if color[callee] == WHITE:
                    visit(callee)
            color[name] = BLACK

        for name in defined:
            if color[name] == WHITE:
                visit(name)


def parse(source: str, file: str = "<input>") -> Program:
    """Parse MiniC source text into an untyped AST.

    Raises MiniCSyntaxError on malformed input and
    UnsupportedConstructError (naming the construct) on C features
    outside the subset.
    """
    return _Parser(lex(source, file), file).parse_program()


# ---------------------------------------------------------------------------
# pretty printer

_PREC = {
    "?:": 1, "||": 2, "&&": 3, "|": 4, "^": 5, "&": 6,
    "==": 7, "!=": 7, "<": 8, "<=": 8, ">": 8, ">=": 8,
    "<<": 9, ">>": 9, "+": 10, "-": 10, "*": 11, "/": 11, "%": 11,
}
_UNARY_PREC = 12


def _expr_prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Cond):
        return _PREC["?:"]
    if isinstance(e, (Unary, Cast)):
        return _UNARY_PREC
    return 13


def pp_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Nondet):
        if e.star:
            return "*"
        for suffix, ty in _NONDET_SUFFIXES.items():
            if ty == e.ty and suffix != "unsigned":
                return f"__VERIFIER_nondet_{suffix}()"
        return "*"
    if isinstance(e, Unary):
        inner = pp_expr(e.operand)
        if _expr_prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        # -(-x) must not come out as the -- token
        if e.op == "-" and inner.startswith("-"):
            inner = f"({inner})"
        return e.op + inner
    if isinstance(e, Cast):
        inner = pp_expr(e.operand)
        if _expr_prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"({e.target}){inner}"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        left = pp_expr(e.left)
        right = pp_expr(e.right)
        if _expr_prec(e.left) < prec:
            left = f"({left})"
        if _expr_prec(e.right) <= prec:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Cond):
        cond = pp_expr(e.cond)
        if _expr_prec(e.cond) <= _PREC["?:"]:
            cond = f"({cond})"
        then = pp_expr(e.then)
        els = pp_expr(e.els)
        if _expr_prec(e.els) < _PREC["?:"]:
            els = f"({els})"
        return f"{cond} ? {then} : {els}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(pp_expr(a) for a in e.args)})"
    raise TypeError(f"cannot print {e!r}")


def _pp_stmt(s: Stmt, indent: int, out: list):
    pad = "    " * indent
    if isinstance(s, Block):
        out.append(pad + "{")
        for inner in s.stmts:
            _pp_stmt(inner, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(s, VarDecl):
        init = "" if s.init is None else f" = {pp_expr(s.init)}"
        out.append(f"{pad}{s.decl_ty} {s.name}{init};")
    elif isinstance(s, Assign):
        out.append(f"{pad}{s.name} = {pp_expr(s.value)};")
    elif isinstance(s, If):
        out.append(f"{pad}if ({pp_expr(s.cond)})")
        _pp_stmt(s.then, indent + (not isinstance(s.then, Block)), out)
        if s.els is not None:
            out.append(pad + "else")
            _pp_stmt(s.els, indent + (not isinstance(s.els, Block)), out)
    elif isinstance(s, While):
        out.append(f"{pad}while ({pp_expr(s.cond)})")
        _pp_stmt(s.body, indent + (not isinstance(s.body, Block)), out)
    elif isinstance(s, For):
        init = _pp_inline(s.init)
        cond = "" if s.cond is None else pp_expr(s.cond)
        step = _pp_inline(s.step)
        out.append(f"{pad}for ({init}; {cond}; {step})")
        _pp_stmt(s.body, indent + (not isinstance(s.body, Block)), out)
    elif isinstance(s, DoWhile):
        out.append(pad + "do")
        _pp_stmt(s.body, indent + (not isinstance(s.body, Block)), out)
        out.append(f"{pad}while ({pp_expr(s.cond)});")
    elif isinstance(s, Assert):
        out.append(f"{pad}assert({pp_expr(s.cond)});")
    elif isinstance(s, Assume):
        out.append(f"{pad}{s.form}({pp_expr(s.cond)});")
    elif isinstance(s, Return):
        out.append(pad + ("return;" if s.value is None else f"return {pp_expr(s.value)};"))
    elif isinstance(s, ExprStmt):
        out.append(f"{pad}{pp_expr(s.expr)};")
    elif isinstance(s, Skip):
        out.append(pad + ";")
    else:
        raise TypeError(f"cannot print {s!r}")


def _pp_inline(s: Stmt | None) -> str:
    if s is None:
        return ""
    lines: list = []
    _pp_stmt(s, 0, lines)
    return " ".join(lines).rstrip(";")


def pretty_print(prog: Program) -> str:
    """Render a Program as MiniC source that re-parses to an equal AST."""
    out: list = []
    for item in prog.items:
        if isinstance(item, VarDecl):
            _pp_stmt(item, 0, out)
        else:
            ret = "void" if item.ret_ty is None else str(item.ret_ty)
            params = ", ".join(f"{p.decl_ty} {p.name}" for p in item.params)
            out.append(f"{ret} {item.name}({params})")
            _pp_stmt(item.body, 0, out)
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# type checker

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_LOGIC_OPS = ("&&", "||")
_BOOL_TY = IntType(32, True)


def promote(a: IntType, b: IntType) -> IntType:
    """Common type of two operands: wider width wins; mixed signedness
    yields the unsigned type of that width."""
    return IntType(max(a.width, b.width), a.signed and b.signed)


def is_boolean(e: Expr) -> bool:
    """Whether an expression is boolean-valued (comparison or logical form)."""
    if isinstance(e, Binary):
        return e.op in _CMP_OPS or e.op in _LOGIC_OPS
    return isinstance(e, Unary) and e.op == "!"


class _Scope:
    def __init__(self, parent=None):
        self.parent = parent
        self.names: dict = {}

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, rid: str, ty: IntType):
        self.names[name] = (rid, ty)


class _TypeChecker:
    def __init__(self, prog: Program):
        self.prog = prog
        self.file = prog.file
        self.fns = {f.name: f for f in prog.functions}
        self.rid_counts: dict = {}

    def fail(self, msg: str, loc: Loc | None):
        raise MiniCTypeError(msg, loc, self.file)

    def fresh_rid(self, name: str) -> str:
        n = self.rid_counts.get(name, 0)
        self.rid_counts[name] = n + 1
        return name if n == 0 else f"{name}__{n}"

    def run(self) -> Program:
        self.rid_counts = {}
        globals_scope = _Scope()
        items: list = []
        checked_fns: dict = {}
        for item in self.prog.items:
            if isinstance(item, VarDecl):
                items.append(self.check_global(item, globals_scope))
            else:
                items.append(None)  # placeholder, filled below
        for idx, item in enumerate(self.prog.items):
            if isinstance(item, FunctionDef):
                fn = self.check_function(item, globals_scope)
                checked_fns[item.name] = fn
                items[idx] = fn
        return Program(items, self.prog.entry, file=self.file)

    def check_global(self, decl: VarDecl, scope: _Scope) -> VarDecl:
        if scope.lookup(decl.name) is not None:
            self.fail(f"redeclaration of '{decl.name}'", decl.loc)
        rid = self.fresh_rid(decl.name)
        init = None
        if decl.init is not None:
            if isinstance(decl.init, Nondet):
                init = replace(decl.init, ty=decl.decl_ty)
            elif isinstance(decl.init, Const):
                init = Const(decl.decl_ty.wrap(decl.init.value), ty=decl.decl_ty, loc=decl.init.loc)
            else:
                self.fail("global initializers must be constants or '*'", decl.loc)
        scope.declare(decl.name, rid, decl.decl_ty)
        return VarDecl(decl.name, decl.decl_ty, init, rid=rid, loc=decl.loc)

    def check_function(self, fn: FunctionDef, globals_scope: _Scope) -> FunctionDef:
        if fn.name == self.prog.entry and fn.params:
            self.fail(f"entry function '{fn.name}' must take no parameters", fn.loc)
        scope = _Scope(globals_scope)
        params = []
        for p in fn.params:
            if p.name in scope.names:
                self.fail(f"duplicate parameter '{p.name}'", p.loc)
            rid = self.fresh_rid(p.name)
            scope.declare(p.name, rid, p.decl_ty)
            params.append(Param(p.name, p.decl_ty, rid=rid, loc=p.loc))
        body = self.check_stmt(fn.body, scope, fn)
        return FunctionDef(fn.name, fn.ret_ty, params, body, loc=fn.loc)

    # statements -----------------------------------------------------------
    def check_stmt(self, s: Stmt, scope: _Scope, fn: FunctionDef) -> Stmt:
        if isinstance(s, Block):
            inner = _Scope(scope)
            return Block([self.check_stmt(st, inner, fn) for st in s.stmts], loc=s.loc)
        if isinstance(s, VarDecl):
            if s.name in scope.names:
                self.fail(f"redeclaration of '{s.name}'", s.loc)
            init = None
            if s.init is not None:
                if isinstance(s.init, Nondet) and s.init.ty is None:
                    init = replace(s.init, ty=s.decl_ty)
                else:
                    init = self.coerce(self.check_expr(s.init, scope), s.decl_ty)
            rid = self.fresh_rid(s.name)
            scope.declare(s.name, rid, s.decl_ty)
            return VarDecl(s.name, s.decl_ty, init, rid=rid, loc=s.loc)
        if isinstance(s, Assign):
            hit = scope.lookup(s.name)
            if hit is None:
                self.fail(f"undeclared variable '{s.name}'", s.loc)
            rid, ty = hit
            if isinstance(s.value, Nondet) and s.value.ty is None:
                value = replace(s.value, ty=ty)
            else:
                value = self.coerce(self.check_expr(s.value, scope), ty)
            return Assign(s.name, value, rid=rid, loc=s.loc)
        if isinstance(s, If):
            cond = self.check_condition(s.cond, scope)
            then = self.check_stmt(s.then, _Scope(scope), fn)
            els = self.check_stmt(s.els, _Scope(scope), fn) if s.els is not None else None
            return If(cond, then, els, loc=s.loc)
        if isinstance(s, While):
            cond = self.check_condition(s.cond, scope)
            self.forbid_calls(s.cond, "loop condition")
            return While(cond, self.check_stmt(s.body, _Scope(scope), fn), loc=s.loc)
        if isinstance(s, DoWhile):
            body = self.check_stmt(s.body, _Scope(scope), fn)
            self.forbid_calls(s.cond, "loop condition")
            return DoWhile(body, self.check_condition(s.cond, scope), loc=s.loc)
        if isinstance(s, For):
            inner = _Scope(scope)
            init = self.check_stmt(s.init, inner, fn) if s.init is not None else None
            cond = self.check_condition(s.cond, inner) if s.cond is not None \
                else self.check_condition(Const(1, loc=s.loc), inner)
            if s.cond is not None:
                self.forbid_calls(s.cond, "loop condition")
            step = self.check_stmt(s.step, inner, fn) if s.step is not None else None
            body = self.check_stmt(s.body, _Scope(inner), fn)
            return For(init, cond, step, body, loc=s.loc)
        if isinstance(s, Assert):
            return Assert(self.check_condition(s.cond, scope), loc=s.loc)
        if isinstance(s, Assume):
            return Assume(self.check_condition(s.cond, scope), form=s.form, loc=s.loc)
        if isinstance(s, Return):
            if fn.ret_ty is None:
                if s.value is not None:
                    self.fail(f"void function '{fn.name}' returns a value", s.loc)
                return Return(None, loc=s.loc)
            if s.value is None:
                self.fail(f"non-void function '{fn.name}' returns no value", s.loc)
            return Return(self.coerce(self.check_expr(s.value, scope), fn.ret_ty), loc=s.loc)
        if isinstance(s, ExprStmt):
            if not isinstance(s.expr, Call):
                self.fail("expression statements must be calls", s.loc)
            return ExprStmt(self.check_call(s.expr, scope, allow_void=True), loc=s.loc)
        if isinstance(s, Skip):
            return Skip(loc=s.loc)
        raise TypeError(f"unexpected statement {s!r}")

    def forbid_calls(self, e: Expr, where: str):
        for node in walk(e):
            if isinstance(node, Call):
                self.fail(f"function call in {where} is not supported", node.loc)

    # expressions ----------------------------------------------------------
    def check_expr(self, e: Expr, scope: _Scope) -> Expr:
        if isinstance(e, Const):
            if e.value > UINT.max:
                self.fail(f"integer literal {e.value} out of range", e.loc)
            ty = INT if e.value <= INT.max else UINT
            return Const(e.value, ty=ty, loc=e.loc)
        if isinstance(e, Var):
            hit = scope.lookup(e.name)
            if hit is None:
                self.fail(f"undeclared variable '{e.name}'", e.loc)
            rid, ty = hit
            return Var(e.name, rid=rid, ty=ty, loc=e.loc)
        if isinstance(e, Nondet):
            if e.ty is None:
                self.fail("'*' is only valid as a whole initializer", e.loc)
            return replace(e)
        if isinstance(e, Unary):
            if e.op == "!":
                inner = self.check_condition(e.operand, scope)
                return Unary("!", inner, ty=_BOOL_TY, loc=e.loc)
            operand = self.check_expr(e.operand, scope)
            return Unary(e.op, operand, ty=operand.ty, loc=e.loc)
        if isinstance(e, Binary):
            if e.op in _LOGIC_OPS:
                left = self.check_condition(e.left, scope)
                right = self.check_condition(e.right, scope)
                return Binary(e.op, left, right, ty=_BOOL_TY, loc=e.loc)
            left = self.check_expr(e.left, scope)
            right = self.check_expr(e.right, scope)
            common = promote(left.ty, right.ty)
            left, right = self.coerce(left, common), self.coerce(right, common)
            out_ty = _BOOL_TY if e.op in _CMP_OPS else common
            return Binary(e.op, left, right, ty=out_ty, loc=e.loc)
        if isinstance(e, Cast):
            operand = self.check_expr(e.operand, scope)
            if isinstance(operand, Const):
                return Const(e.target.wrap(operand.value), ty=e.target, loc=e.loc)
            return Cast(e.target, operand, explicit=e.explicit, ty=e.target, loc=e.loc)
        if isinstance(e, Cond):
            cond = self.check_condition(e.cond, scope)
            then = self.check_expr(e.then, scope)
            els = self.check_expr(e.els, scope)
            common = promote(then.ty, els.ty)
            return Cond(cond, self.coerce(then, common), self.coerce(els, common),
                        ty=common, loc=e.loc)
        if isinstance(e, Call):
            return self.check_call(e, scope, allow_void=False)
        raise TypeError(f"unexpected expression {e!r}")

    def check_call(self, e: Call, scope: _Scope, allow_void: bool) -> Call:
        fn = self.fns.get(e.name)
        if fn is None:
            self.fail(f"call to undefined function '{e.name}'", e.loc)
        if fn.ret_ty is None and not allow_void:
            self.fail(f"void function '{e.name}' used as a value", e.loc)
        if len(e.args) != len(fn.params):
            self.fail(f"'{e.name}' expects {len(fn.params)} arguments, got {len(e.args)}", e.loc)
        args = [self.coerce(self.check_expr(a, scope), p.decl_ty)
                for a, p in zip(e.args, fn.params)]
        return Call(e.name, args, ty=fn.ret_ty, loc=e.loc)

    def check_condition(self, e: Expr, scope: _Scope) -> Expr:
        """Type a condition, wrapping non-boolean expressions as `e != 0`."""
        checked = self.check_expr(e, scope)
        if is_boolean(checked):
            return checked
        zero = Const(0, ty=checked.ty, loc=checked.loc)
        return Binary("!=", checked, zero, ty=_BOOL_TY, loc=checked.loc)

    def coerce(self, e: Expr, ty: IntType) -> Expr:
        if e.ty == ty:
            return e
        if isinstance(e, Const):
            return Const(ty.wrap(e.value), ty=ty, loc=e.loc)
        return Cast(ty, e, explicit=False, ty=ty, loc=e.loc)


def typecheck(prog: Program) -> Program:
    """Return an annotated copy of `prog`.

    Every expression carries a type, implicit conversions appear as Cast
    nodes, variables carry scope-resolved unique names, and conditions
    are boolean-valued.
    """
    return _TypeChecker(prog).run()


def override_widths(prog: Program, width: int) -> Program:
    """Rewrite every declared type to the given width, keeping signedness.

    Applied to a parsed (untyped) AST before typecheck, so derived types
    follow.  Used to shrink programs for brute-force oracles.
    """
    if width not in (8, 16, 32):
        raise ValueError(f"unsupported width {width}")

    def fix_ty(ty):
        return None if ty is None else IntType(width, ty.signed)

    def fix(node):
        if not isinstance(node, Node):
            return node
        kwargs = {}
        for f in fields(node):
            v = getattr(node, f.name)
            if isinstance(v, IntType):
                if f.name != "ty":  # annotations are absent pre-typecheck
                    v = fix_ty(v)
            elif isinstance(v, Node):
                v = fix(v)
            elif isinstance(v, list):
                v = [fix(item) for item in v]
            kwargs[f.name] = v
        return type(node)(**kwargs)

    return Program([fix(it) for it in prog.items], prog.entry, file=prog.file)
