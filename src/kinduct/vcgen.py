"""Single-assignment conversion and verification-condition construction.

A loop-free GotoProgram is compiled into a linear chain of guarded
definitions: assignment under path guard g becomes

    v!n+1 = ite(g, rhs, v!n)

with the guard dropped when g is trivially true.  Merge points restore
the reach guard by OR-ing the guards parked on each incoming jump.
Nondeterministic draws become free symbols named after their (nid, ctx)
key; division and modulo route through ite(divisor == 0, fresh symbol,
quotient) so a division by zero is a fresh unconstrained value, matching
the interpreter.

Assumptions (including the unwinding assumptions) have sequential
semantics: an execution that violates an assertion stops there, so an
assume appearing after the assertion must not mask the violation.  Each
obligation therefore embeds the conjunction of the assume terms that
precede it, instead of every assume being conjoined globally.  The
prefix is grown as one shared expression node, so bitblasting stays
linear despite every obligation referencing it.

The phase query is the negation of the phase's implication, so UNSAT
means the phase succeeded.  Definitions are not part of it: the solver
binds each defined name to the bits of its right-hand side, so every
definition holds by construction and the query is just the goal

    BASE       not phi
    FORWARD    not (sigma and phi)
    INDUCTIVE  not phi

over the defined and the free names.  sigma and phi are conjunctions of
prefix-carrying verification conditions, one per unwinding assertion /
original assertion.  BASE and INDUCTIVE differ only in their unwinding:
the inductive step havocs the loop variables at the loop head, so their
initial values no longer constrain the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import (
    Binary, Cast, Cond, Const, Expr, IntType, Nondet, Unary, Var,
)
from .interp import eval_expr
from .transform import Phase, UnwoundProgram

_BOOL = IntType(32, True)

TRUE = Const(1, ty=_BOOL)
FALSE = Const(0, ty=_BOOL)


def is_true(e: Expr) -> bool:
    return isinstance(e, Const) and e.value != 0


def is_false(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def Not(e: Expr) -> Expr:
    if isinstance(e, Unary) and e.op == "!":
        return e.operand
    if isinstance(e, Const):
        return FALSE if e.value != 0 else TRUE
    return Unary("!", e, ty=_BOOL)


def And(a: Expr, b: Expr) -> Expr:
    if is_true(a):
        return b
    if is_true(b):
        return a
    if is_false(a) or is_false(b):
        return FALSE
    return Binary("&&", a, b, ty=_BOOL)


def Or(a: Expr, b: Expr) -> Expr:
    if is_false(a):
        return b
    if is_false(b):
        return a
    if is_true(a) or is_true(b):
        return TRUE
    return Binary("||", a, b, ty=_BOOL)


def conjoin(terms: list) -> Expr:
    out = TRUE
    for t in terms:
        out = And(out, t)
    return out


@dataclass
class SsaProgram:
    definitions: list = field(default_factory=list)   # (versioned name, Expr)
    assumptions: list = field(default_factory=list)   # guarded boolean Exprs
    obligations: list = field(default_factory=list)   # (guarded Expr, Loc)
    terminations: list = field(default_factory=list)  # guarded sigma terms
    symbols: dict = field(default_factory=dict)       # name -> IntType
    draw_symbols: dict = field(default_factory=dict)  # name -> (nid, ctx, IntType)
    havocs: set = field(default_factory=set)          # versions born from HAVOC


@dataclass
class VcFormula:
    definitions: list  # (versioned name, Expr), each reading only earlier names
    goal: Expr         # the satisfiability query, given the definitions
    symbols: dict      # name -> IntType, defined and free


def _draw_name(prefix: str, nid: int, ctx: tuple) -> str:
    base = f"{prefix}{nid}"
    if ctx:
        base += "@" + ".".join(str(c) for c in ctx)
    return base


class _SsaBuilder:
    def __init__(self, u: UnwoundProgram):
        self.u = u
        self.prog = u.body
        self.out = SsaProgram()
        self.versions: dict = {}  # var -> version count
        self.cur: dict = {}       # var -> current versioned name

    def fresh(self, var: str, ty: IntType) -> str:
        n = self.versions.get(var, -1) + 1
        self.versions[var] = n
        name = f"{var}!{n}"
        self.out.symbols[name] = ty
        return name

    def read(self, var: str) -> str:
        if var not in self.cur:
            # Read before any write: an unconstrained initial version.
            name = self.fresh(var, self.prog.symbols[var])
            self.cur[var] = name
        return self.cur[var]

    def draw(self, prefix: str, nid: int, ctx: tuple, ty: IntType) -> Var:
        name = _draw_name(prefix, nid, ctx)
        if name not in self.out.symbols:
            self.out.symbols[name] = ty
            self.out.draw_symbols[name] = (nid, ctx, ty)
        return Var(name, rid=name, ty=ty)

    def subst(self, e: Expr, ctx: tuple) -> Expr:
        if isinstance(e, Const):
            return e
        if isinstance(e, Var):
            name = self.read(e.rid or e.name)
            return Var(name, rid=name, ty=e.ty, loc=e.loc)
        if isinstance(e, Nondet):
            return self.draw("nd", e.nid, ctx, e.ty)
        if isinstance(e, Unary):
            return Unary(e.op, self.subst(e.operand, ctx), ty=e.ty, loc=e.loc)
        if isinstance(e, Binary):
            left = self.subst(e.left, ctx)
            right = self.subst(e.right, ctx)
            body = Binary(e.op, left, right, nid=e.nid, ty=e.ty, loc=e.loc)
            if e.op in ("/", "%"):
                zero = Binary("==", right, Const(0, ty=right.ty), ty=_BOOL)
                return Cond(zero, self.draw("dz", e.nid, ctx, e.ty), body,
                            ty=e.ty, loc=e.loc)
            return body
        if isinstance(e, Cast):
            return Cast(e.target, self.subst(e.operand, ctx),
                        explicit=e.explicit, ty=e.ty, loc=e.loc)
        if isinstance(e, Cond):
            return Cond(self.subst(e.cond, ctx), self.subst(e.then, ctx),
                        self.subst(e.els, ctx), ty=e.ty, loc=e.loc)
        raise TypeError(f"cannot convert {e!r}")

    def run(self) -> SsaProgram:
        guard: Expr = TRUE
        assumed: Expr = TRUE  # conjunction of assume terms seen so far
        pending: dict = {}  # target index -> accumulated incoming guard
        instrs = self.prog.instructions
        for i, ins in enumerate(instrs):
            if i in pending:
                guard = Or(guard, pending.pop(i))
            if is_false(guard):
                continue  # unreachable stretch, e.g. right after a GOTO
            if ins.op == "ASSIGN":
                rhs = self.subst(ins.expr, ins.ctx)
                ty = self.prog.symbols[ins.var]
                if is_true(guard):
                    value = rhs
                else:
                    prev = self.read(ins.var)
                    value = Cond(guard, rhs, Var(prev, rid=prev, ty=ty), ty=ty)
                name = self.fresh(ins.var, ty)
                self.out.definitions.append((name, value))
                self.cur[ins.var] = name
            elif ins.op == "HAVOC":
                ty = self.prog.symbols[ins.var]
                name = self.fresh(ins.var, ty)
                self.out.havocs.add(name)
                self.cur[ins.var] = name  # free: no definition
            elif ins.op == "ASSUME":
                term = Or(Not(guard), self.subst(ins.expr, ins.ctx))
                if ins.tag == "unwind_assumption":
                    self.out.terminations.append(term)
                else:
                    self.out.assumptions.append(term)
                assumed = And(assumed, term)
            elif ins.op == "ASSERT":
                claim = Or(Not(guard), self.subst(ins.expr, ins.ctx))
                term = Or(Not(assumed), claim)
                if ins.tag == "unwind_assertion":
                    self.out.terminations.append(term)
                else:
                    self.out.obligations.append((term, ins.loc))
            elif ins.op == "GOTO":
                if not is_false(guard):
                    pending[ins.target] = Or(pending.get(ins.target, FALSE), guard)
                guard = FALSE
            elif ins.op == "COND_GOTO":
                cond = self.subst(ins.expr, ins.ctx)
                jump = And(cond, guard)
                if not is_false(jump):
                    pending[ins.target] = Or(pending.get(ins.target, FALSE), jump)
                guard = And(Not(cond), guard)
            # SKIP: nothing
        return self.out


def to_ssa(u: UnwoundProgram) -> SsaProgram:
    """Compile a loop-free unwound program into guarded definitions."""
    from .goto_ir import count_backjumps
    if count_backjumps(u.body) != 0:
        raise ValueError("to_ssa requires a loop-free program")
    return _SsaBuilder(u).run()


def encode(s: SsaProgram, phase: Phase) -> VcFormula:
    """Build the phase's satisfiability query from an SsaProgram.

    Assume terms are not conjoined globally: they already appear in the
    prefix of every obligation that follows them, which is what gives an
    assume no power over violations that precede it.
    """
    prop = conjoin(term for term, _ in s.obligations)
    if phase is Phase.FORWARD:
        prop = And(conjoin(s.terminations), prop)
    return VcFormula(list(s.definitions), Not(prop), dict(s.symbols))


class _NoDraws:
    """Division by zero inside an ite's shadowed branch evaluates to 0;
    anything else is a bug in the encoding."""

    def draw(self, nid, ctx, ty, kind):
        if kind == "divzero":
            return 0
        raise AssertionError("formula contains an unsubstituted draw")


def eval_formula(e: Expr, assignment: dict) -> int:
    """Evaluate a word-level formula term under a total assignment."""
    return eval_expr(e, assignment, _NoDraws())


def dump_ssa(s: SsaProgram) -> str:
    from .frontend import pp_expr
    lines = [f"{name} = {pp_expr(expr)}" for name, expr in s.definitions]
    lines += [f"assume {pp_expr(a)}" for a in s.assumptions]
    lines += [f"sigma {pp_expr(t)}" for t in s.terminations]
    lines += [f"assert {pp_expr(ob)}" for ob, _ in s.obligations]
    return "\n".join(lines)
