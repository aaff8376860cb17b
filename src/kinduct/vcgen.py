"""Single-assignment conversion and verification-condition construction.

The loop-free tree of an unwound program is compiled into a linear
chain of guarded definitions: assignment under path guard g becomes

    v!n+1 = ite(g, rhs, v!n)

with the guard dropped when g is trivially true, and for a stutter
shadow (tag `shadow`).  A shadow's only reader is the stutter assume
that closes the same loop copy, under the same guard, and that assume
holds whenever the guard is false.  So `v__pre_l!m = v!n` is enough, and
the guarded form would only add an ite and a free fallback version per
bit that each SAT answer has to decide.

An IfItem with condition c walks its branches under c && g and !c && g,
skipping one whose guard folds to false.  The two split g, so after the
item the guard is g again and each variable joins through its own ites
(CBMC's guarded SSA: Clarke, Kroening & Lerda, TACAS 2004).
Nondeterministic draws become free symbols named after their (nid, ctx)
key, where ctx is the context its Instr carries or else that of its
innermost enclosing loop copy (the copies share their body's Instrs);
division and modulo route through ite(divisor == 0, fresh symbol,
quotient) so a division by zero is a fresh unconstrained value, matching
the interpreter.  A divisor that is a nonzero constant after
substitution cannot be zero, so it gets neither the ite nor the symbol,
whose bits no clause would mention.

Assumptions (including the unwinding assumptions) have sequential
semantics: an execution that violates an assertion stops there, so an
assume appearing after the assertion must not mask the violation.  Each
obligation therefore embeds the conjunction of the assume terms that
precede it, instead of every assume being conjoined globally.  The
prefix is grown as one shared expression node, so bitblasting stays
linear despite every obligation referencing it.  The conjunctions of
the obligations and of the unwinding assertions are grown the same way,
as they are added.

Queries of one phase family unwind the same program again and again,
each one copy deeper.  When `unwind` records where the copies of the
first top-level loop sit (`UnwoundProgram.layout`), copies 1..j of that
loop, and everything before it, are the same in every unwinding at
k >= j: BASE and FORWARD differ only in the terminator after copy k,
and the inductive step's havocs and shadows are the same at every k.
So the converter's whole state after copy j (versions, current names,
guard, assume prefix, obligation conjunction and the output so far) is
the same too.  A conversion leaves that state after copy k in
`SsaProgram.captured`; `to_ssa` resumes from such a state, converts the
new copies, the terminator and the code after the loop, and returns
the same SsaProgram a conversion from nothing would.  The new parts
share the state's guard, prefix and conjunction nodes, which is what
lets `solver.bitblast` skip the resumed part too.  The solver session
keeps the last state (`Session.snapshot`), so that is what the driver
resumes from.  A nested first loop is unwound k times in each outer
copy, so it changes with k, has no layout, and such programs convert
in full.

The phase query is the negation of the phase's implication, so UNSAT
means the phase succeeded.  Definitions are not part of it: the solver
binds each defined name to the bits of its right-hand side, so every
definition holds by construction and the query is just the goal

    BASE       not phi
    FORWARD    not (sigma and phi)
    INDUCTIVE  not phi

over the defined and the free names.  sigma and phi are conjunctions of
prefix-carrying verification conditions, one per unwinding assertion /
original assertion, both grown by the converter (`SsaProgram.sigma` and
`SsaProgram.prop`).  `encode` sets the goal on the SsaProgram, which is
what the solver blasts.  BASE and INDUCTIVE differ only in their
unwinding: the inductive step havocs the loop variables at the loop
head, so their initial values no longer constrain the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .frontend import (
    INT, Binary, Cast, Cond, Const, Expr, IntType, Nondet, Unary, Var,
)
from .goto_ir import GotoProgram, IfItem, Instr, walk_nested
from .interp import eval_expr
from .transform import CHECK_EVERY, Phase, UnwoundProgram, check_deadline

TRUE = Const(1, ty=INT)
FALSE = Const(0, ty=INT)


def is_true(e: Expr) -> bool:
    return isinstance(e, Const) and e.value != 0


def is_false(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def Not(e: Expr) -> Expr:
    if isinstance(e, Unary) and e.op == "!":
        return e.operand
    if isinstance(e, Const):
        return FALSE if e.value != 0 else TRUE
    return Unary("!", e, ty=INT)


def And(a: Expr, b: Expr) -> Expr:
    if is_true(a):
        return b
    if is_true(b):
        return a
    if is_false(a) or is_false(b):
        return FALSE
    return Binary("&&", a, b, ty=INT)


def Or(a: Expr, b: Expr) -> Expr:
    if is_false(a):
        return b
    if is_false(b):
        return a
    if is_true(a) or is_true(b):
        return TRUE
    return Binary("||", a, b, ty=INT)


@dataclass
class SsaProgram:
    definitions: list = field(default_factory=list)   # (versioned name, Expr)
    obligations: list = field(default_factory=list)   # (guarded Expr, Loc)
    symbols: dict = field(default_factory=dict)       # name -> IntType
    draw_symbols: dict = field(default_factory=dict)  # name -> (nid, ctx, IntType)
    # the conjunctions of the obligations and of the unwinding-assertion
    # terms, each grown as its terms are added
    prop: Expr = field(default_factory=lambda: TRUE)
    sigma: Expr = field(default_factory=lambda: TRUE)
    resumed: _Snapshot | None = None   # the state the conversion resumed from
    captured: _Snapshot | None = None  # its state after copy k, to resume from
    goal: Expr | None = None   # the phase's satisfiability query, set by encode


@dataclass
class _Snapshot:
    """A converter's state after the own items of copy `k` of the first
    top-level loop of `program`, unwound k deep in one phase family
    (`inductive` or not).  `ssa` holds the output so far; its lists and
    dicts are never changed, a resumed conversion copies them."""
    program: GotoProgram
    inductive: bool
    k: int
    ssa: SsaProgram
    versions: dict
    cur: dict
    guard: Expr
    assumed: Expr


def _draw_name(prefix: str, nid: int, ctx: tuple) -> str:
    base = f"{prefix}{nid}"
    if ctx:
        base += "@" + ".".join(str(c) for c in ctx)
    return base


class _SsaBuilder:
    def __init__(self, u: UnwoundProgram, deadline: float | None):
        self.u = u
        self.deadline = deadline
        self.out = SsaProgram()
        self.versions: dict = {}  # var -> version count
        self.cur: dict = {}       # var -> current versioned name
        self.guard: Expr = TRUE
        self.assumed: Expr = TRUE  # conjunction of assume terms seen so far
        self.ctx: tuple = ()  # the context of the innermost enclosing copy
        self.visited = 0  # tree items so far, for the deadline check
        self.capture = None  # copy k's IfItem: capture the state after its own items
        self.own = 0         # the number of own items of each copy

    def fresh(self, var: str, ty: IntType) -> str:
        n = self.versions.get(var, -1) + 1
        self.versions[var] = n
        name = f"{var}!{n}"
        self.out.symbols[name] = ty
        return name

    def read(self, var: str) -> str:
        if var not in self.cur:
            # Read before any write: an unconstrained initial version.
            name = self.fresh(var, self.u.symbols[var])
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
            if e.op in ("/", "%") and not (
                    isinstance(right, Const) and right.ty.wrap(right.value)):
                zero = Binary("==", right, Const(0, ty=right.ty), ty=INT)
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

    def tick(self):
        if self.visited % CHECK_EVERY == 0:
            check_deadline(self.deadline)
        self.visited += 1

    def _items(self, items: list):
        """Convert `items`, yielding each live branch of an IfItem after
        setting the guard it is walked under."""
        for item in items:
            self.tick()
            if isinstance(item, IfItem):
                g, ctx = self.guard, self.ctx
                self.ctx = item.ctx or ctx
                cond = self.subst(item.cond, self.ctx)
                for branch, guard in ((item.then, And(cond, g)),
                                      (item.els, And(Not(cond), g))):
                    if branch and not is_false(guard):
                        self.guard = guard
                        if item is self.capture:
                            yield branch[:self.own]
                            self.out.captured = self.save()
                            branch = branch[self.own:]
                        yield branch
                self.guard, self.ctx = g, ctx
                continue
            if not isinstance(item, Instr):
                raise TypeError(f"to_ssa requires a loop-free tree, got {item!r}")
            ins, guard = item, self.guard
            ctx = ins.ctx or self.ctx
            if ins.op == "ASSIGN":
                rhs = self.subst(ins.expr, ctx)
                ty = self.u.symbols[ins.var]
                if not is_true(guard) and ins.tag != "shadow":
                    prev = self.read(ins.var)
                    rhs = Cond(guard, rhs, Var(prev, rid=prev, ty=ty), ty=ty)
                name = self.fresh(ins.var, ty)
                self.out.definitions.append((name, rhs))
                self.cur[ins.var] = name
            elif ins.op == "HAVOC":
                # a fresh version without a definition: a free name
                self.cur[ins.var] = self.fresh(ins.var, self.u.symbols[ins.var])
            elif ins.op == "ASSUME":
                term = Or(Not(guard), self.subst(ins.expr, ctx))
                self.assumed = And(self.assumed, term)
            elif ins.op == "ASSERT":
                claim = Or(Not(guard), self.subst(ins.expr, ctx))
                term = Or(Not(self.assumed), claim)
                if ins.tag == "unwind_assertion":
                    self.out.sigma = And(self.out.sigma, term)
                else:
                    self.out.obligations.append((term, ins.loc))
                    self.out.prop = And(self.out.prop, term)

    def walk(self, items: list):
        walk_nested(self._items, items)

    def save(self) -> _Snapshot:
        u = self.u
        return _Snapshot(u.origin, u.phase is Phase.INDUCTIVE, u.k,
                         _copied(self.out), dict(self.versions),
                         dict(self.cur), self.guard, self.assumed)

    def restore(self, snap: _Snapshot):
        self.out = _copied(snap.ssa, snap)
        self.versions = dict(snap.versions)
        self.cur = dict(snap.cur)
        self.guard = snap.guard
        self.assumed = snap.assumed


def _copied(o: SsaProgram, resumed: _Snapshot | None = None) -> SsaProgram:
    """`o` with its own lists and dicts."""
    return SsaProgram(list(o.definitions), list(o.obligations),
                      dict(o.symbols), dict(o.draw_symbols), o.prop, o.sigma,
                      resumed)


def to_ssa(u: UnwoundProgram, deadline: float | None = None,
           resume: _Snapshot | None = None) -> SsaProgram:
    """Compile the loop-free tree of an unwound program into guarded
    definitions; a LoopItem left in the tree is a TypeError.  Past the
    time.monotonic() `deadline` (checked at the first item and every
    CHECK_EVERY items after it) it raises DeadlineExceeded.

    When `u.layout` places the copies of the first top-level loop, the
    conversion leaves its state after copy k in `captured`, unless
    `resume` is a state at least that deep.  Given a `resume` state of
    the same program and phase family, no deeper than k, it starts
    there: it converts only the copies past it and the items after the
    loop.  A state deeper than k gives a conversion from nothing, and
    one of another program or family a ValueError.  The result is the
    same SsaProgram a conversion from nothing gives; `resumed` names the
    state it started from.
    """
    if resume is not None and (resume.program is not u.origin or
                               resume.inductive != (u.phase is Phase.INDUCTIVE)):
        raise ValueError("a snapshot resumes one program's conversion "
                         "in one phase family")
    builder = _SsaBuilder(u, deadline)
    if u.layout is None:
        builder.walk(u.tree)
        return builder.out
    first, builder.own = u.layout
    copies = [u.tree[first]]   # copies[j - 1] is copy j's IfItem
    while len(copies) < u.k:
        copies.append(copies[-1].then[-1])
    if resume is None or resume.k < u.k:
        builder.capture = copies[-1]
    if resume is not None and resume.k <= u.k:
        builder.restore(resume)
        builder.walk(copies[resume.k - 1].then[builder.own:])
        builder.guard = TRUE
        builder.walk(u.tree[first + 1:])
    else:
        builder.walk(u.tree)
    return builder.out


def encode(s: SsaProgram, phase: Phase) -> SsaProgram:
    """`s` with the phase's satisfiability query as its `goal`, sharing
    its lists and dicts.

    Assume terms are not conjoined globally: they already appear in the
    prefix of every obligation that follows them, which is what gives an
    assume no power over violations that precede it.  The obligations'
    conjunction `s.prop` and the unwinding assertions' `s.sigma` are
    grown by the converter, so a resumed conversion shares the nodes of
    the checkpointed ones.  It takes no deadline: it builds two nodes,
    between `to_ssa` and `solver.bitblast`, which both poll the clock.
    """
    prop = And(s.sigma, s.prop) if phase is Phase.FORWARD else s.prop
    return replace(s, goal=Not(prop))


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
    lines.append(f"sigma {pp_expr(s.sigma)}")
    lines += [f"assert {pp_expr(ob)}" for ob, _ in s.obligations]
    return "\n".join(lines)
