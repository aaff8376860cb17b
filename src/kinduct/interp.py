"""Concrete interpreters for the AST and the GOTO IR.

Nondeterminism is externalized through a provider.  The GOTO interpreter
keys every draw by (nid, ctx) where ctx is the tuple of iteration
counters of the enclosing loops, outermost first; a counter increments
each time control reaches the loop head and nested counters reset when
an outer loop advances.  This is exactly the naming scheme the unwinder
uses for loop copies, so a satisfying assignment for an unwound formula
can be replayed here directly.  `LoopClock` holds that rule and `step`
executes one instruction; `run_goto` and the explicit-state
`oracle.explore`, which answers every bound up to its own in one run,
are both loops over the two.

Evaluation semantics: fixed-width two's-complement wrapping on every
operation, truncating division, shift amounts taken modulo the width,
and eager (non-short-circuiting) `&&`/`||`.  Eager evaluation gives C's
answer: the type checker rejects a call in an operand that C may skip
(the right operand of `&&`/`||`, either branch of `?:`), and a call-free
operand changes no variable.  Division or modulo by zero
yields a fresh nondeterministic value instead of halting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .frontend import (
    Assert, Assign, Assume, Binary, Block, Call, Cast, Cond, Const, DoWhile,
    ExprStmt, Expr, For, If, IntType, Loc, Nondet, Program, Return, Skip,
    Unary, Var, VarDecl, While,
)
from .goto_ir import GotoProgram


# ---------------------------------------------------------------------------
# nondet providers

class SequentialProvider:
    """Hands out a fixed list of values in draw order, then zeros."""

    def __init__(self, values=()):
        self.values = list(values)
        self.pos = 0

    def draw(self, nid, ctx, ty: IntType, kind: str) -> int:
        if self.pos < len(self.values):
            v = self.values[self.pos]
            self.pos += 1
            return ty.wrap(v)
        return 0


class RandomProvider:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def draw(self, nid, ctx, ty: IntType, kind: str) -> int:
        return self.rng.randint(ty.min, ty.max)


class MapProvider:
    """Replays a solver model: draws are looked up by (nid, ctx).
    Unconstrained draws default to zero; `misses` records them."""

    def __init__(self, values: dict):
        self.values = dict(values)
        self.misses: list = []

    def draw(self, nid, ctx, ty: IntType, kind: str) -> int:
        key = (nid, ctx)
        if key in self.values:
            return ty.wrap(self.values[key])
        self.misses.append(key)
        return 0


# ---------------------------------------------------------------------------
# expression evaluation

def trunc_div(a: int, b: int) -> tuple:
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q, a - q * b


def eval_expr(e: Expr, store: dict, provider, ctx: tuple = ()) -> int:
    ty = e.ty
    if isinstance(e, Const):
        return ty.wrap(e.value)
    if isinstance(e, Var):
        name = e.rid or e.name
        return store[name]
    if isinstance(e, Nondet):
        return ty.wrap(provider.draw(e.nid, ctx, ty, "nondet"))
    if isinstance(e, Unary):
        v = eval_expr(e.operand, store, provider, ctx)
        if e.op == "-":
            return ty.wrap(-v)
        if e.op == "~":
            return ty.wrap(~v)
        if e.op == "!":
            return 0 if v != 0 else 1
        raise ValueError(f"unknown unary operator {e.op}")
    if isinstance(e, Binary):
        a = eval_expr(e.left, store, provider, ctx)
        b = eval_expr(e.right, store, provider, ctx)
        op = e.op
        if op == "+":
            return ty.wrap(a + b)
        if op == "-":
            return ty.wrap(a - b)
        if op == "*":
            return ty.wrap(a * b)
        if op in ("/", "%"):
            if b == 0:
                return ty.wrap(provider.draw(e.nid, ctx, ty, "divzero"))
            q, r = trunc_div(a, b)
            return ty.wrap(q if op == "/" else r)
        if op in ("&", "|", "^"):
            v = a & b if op == "&" else a | b if op == "|" else a ^ b
            return ty.wrap(v)
        if op == "<<":
            return ty.wrap(a << (b % ty.width))
        if op == ">>":
            return ty.wrap(a >> (b % ty.width))
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        if op == "&&":
            return 1 if (a != 0 and b != 0) else 0
        if op == "||":
            return 1 if (a != 0 or b != 0) else 0
        raise ValueError(f"unknown binary operator {op}")
    if isinstance(e, Cast):
        return e.target.wrap(eval_expr(e.operand, store, provider, ctx))
    if isinstance(e, Cond):
        c = eval_expr(e.cond, store, provider, ctx)
        picked = e.then if c != 0 else e.els
        return ty.wrap(eval_expr(picked, store, provider, ctx))
    raise TypeError(f"cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# run results

VIOLATION = "VIOLATION"
COMPLETED = "COMPLETED"
BLOCKED = "BLOCKED"        # an assume evaluated to false
STEP_LIMIT = "STEP_LIMIT"


@dataclass
class RunResult:
    status: str
    store: dict
    violated: Loc | None = None
    states: list = field(default_factory=list)
    steps: int = 0


# ---------------------------------------------------------------------------
# GOTO interpreter

class LoopClock:
    """The iteration counters that name draws, built once per program.

    Counters are keyed by loop id.  `arrive(pc, counters)` is applied on
    reaching `pc`: at a loop head it returns a copy in which that loop's
    counter is one higher and the counters of the loops nested in it are
    zero; elsewhere it returns `counters` itself.  `ctx` is the draw
    context at `pc`: the live counters of its enclosing loops, outermost
    first.  An unwinding's flat view has no loops, so it is for dumps
    and counts, not for naming draws."""

    def __init__(self, p: GotoProgram):
        self.enclosing = [[] for _ in p.instructions]
        for loop in sorted(p.loops, key=lambda l: l.nesting_depth):
            for i in range(loop.head, loop.backjump + 1):
                self.enclosing[i].append(loop.loop_id)
        self.heads: dict = {}
        for loop in p.loops:
            inner = [o.loop_id for o in p.loops if o is not loop
                     and o.head >= loop.head and o.backjump <= loop.backjump]
            self.heads.setdefault(loop.head, []).append((loop.loop_id, inner))

    def arrive(self, pc: int, counters: dict) -> dict:
        loops = self.heads.get(pc)
        if loops is None:
            return counters
        counters = dict(counters)
        for lid, inner in loops:
            counters[lid] = counters.get(lid, 0) + 1
            for i in inner:
                counters[i] = 0
        return counters

    def ctx(self, pc: int, counters: dict) -> tuple:
        return tuple(counters.get(l, 0) for l in self.enclosing[pc])


def step(p: GotoProgram, pc: int, store: dict, ctx: tuple, provider) -> tuple:
    """Execute the instruction at `pc` without changing `store`.  Returns
    (status, next pc, write): status is VIOLATION or BLOCKED when the
    run ends there and None otherwise, and write is the (variable,
    value) pair to store, or None."""
    ins = p.instructions[pc]
    op = ins.op
    if op == "ASSIGN":
        return None, pc + 1, (ins.var, eval_expr(ins.expr, store, provider, ctx))
    if op in ("ASSUME", "ASSERT"):
        if eval_expr(ins.expr, store, provider, ctx) == 0:
            return (BLOCKED if op == "ASSUME" else VIOLATION), pc, None
        return None, pc + 1, None
    if op == "GOTO":
        return None, ins.target, None
    if op == "COND_GOTO":
        taken = eval_expr(ins.expr, store, provider, ctx) != 0
        return None, ins.target if taken else pc + 1, None
    if op == "SKIP":
        return None, pc + 1, None
    raise ValueError(f"cannot execute a {op} instruction")


def run_goto(p: GotoProgram, provider, max_steps: int = 1_000_000) -> RunResult:
    """Execute a GotoProgram.  `states` collects the counterexample
    snapshots: the store at the first loop-head arrival, after every
    executed backjump, and at the violated assertion."""
    clock = LoopClock(p)
    store: dict = {}
    counters: dict = {}
    states: list = []
    pc = 0
    steps = 0
    n = len(p.instructions)
    while pc < n:
        if steps >= max_steps:
            return RunResult(STEP_LIMIT, store, states=states, steps=steps)
        steps += 1
        counters = clock.arrive(pc, counters)
        # Counters stay empty until the first head arrival, and nothing
        # is snapshotted before it.
        if counters and not states:
            states.append(dict(store))
        status, nxt, write = step(p, pc, store, clock.ctx(pc, counters), provider)
        if status == BLOCKED:
            return RunResult(BLOCKED, store, states=states, steps=steps)
        if status == VIOLATION:
            states.append(dict(store))
            return RunResult(VIOLATION, store,
                             violated=p.instructions[pc].loc,
                             states=states, steps=steps)
        if write is not None:
            store[write[0]] = write[1]
        if nxt < pc:
            states.append(dict(store))
        pc = nxt
    return RunResult(COMPLETED, store, states=states, steps=steps)


# ---------------------------------------------------------------------------
# AST interpreter (reference semantics for differential testing)

class _Violation(Exception):
    def __init__(self, loc):
        self.loc = loc


class _Blocked(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def tick(self):
        if self.left <= 0:
            raise _OutOfFuel()
        self.left -= 1


class _OutOfFuel(Exception):
    pass


def run_ast(prog: Program, provider, max_steps: int = 1_000_000) -> RunResult:
    """Execute a type-checked Program directly (no lowering).  Stores are
    keyed by resolved variable id, so results line up with run_goto for
    variables of the entry function."""
    store: dict = {}
    fuel = _Fuel(max_steps)

    def exec_stmt(s):
        fuel.tick()
        if isinstance(s, Block):
            for st in s.stmts:
                exec_stmt(st)
        elif isinstance(s, VarDecl):
            if s.init is None:
                store[s.rid] = s.decl_ty.wrap(provider.draw(None, (), s.decl_ty, "nondet"))
            else:
                store[s.rid] = eval_rvalue(s.init, s.decl_ty)
        elif isinstance(s, Assign):
            store[s.rid] = eval_rvalue(s.value, None)
        elif isinstance(s, Assert):
            if eval_rvalue(s.cond, None) == 0:
                raise _Violation(s.loc)
        elif isinstance(s, Assume):
            if eval_rvalue(s.cond, None) == 0:
                raise _Blocked()
        elif isinstance(s, If):
            if eval_rvalue(s.cond, None) != 0:
                exec_stmt(s.then)
            elif s.els is not None:
                exec_stmt(s.els)
        elif isinstance(s, While):
            while eval_rvalue(s.cond, None) != 0:
                fuel.tick()
                exec_stmt(s.body)
        elif isinstance(s, DoWhile):
            while True:
                fuel.tick()
                exec_stmt(s.body)
                if eval_rvalue(s.cond, None) == 0:
                    break
        elif isinstance(s, For):
            if s.init is not None:
                exec_stmt(s.init)
            while eval_rvalue(s.cond, None) != 0:
                fuel.tick()
                exec_stmt(s.body)
                if s.step is not None:
                    exec_stmt(s.step)
        elif isinstance(s, Return):
            raise _ReturnSignal(None if s.value is None
                                else eval_rvalue(s.value, None))
        elif isinstance(s, ExprStmt):
            eval_rvalue(s.expr, None)
        elif isinstance(s, Skip):
            pass
        else:
            raise TypeError(f"unexpected statement {s!r}")

    def call(c: Call):
        fn = prog.function(c.name)
        args = [eval_rvalue(a, None) for a in c.args]
        for p, v in zip(fn.params, args):
            store[p.rid] = p.decl_ty.wrap(v)
        # Paths that fall off the end yield an arbitrary value; drawn up
        # front so the draw order matches the lowered program.
        fallback = 0
        if fn.ret_ty is not None:
            fallback = fn.ret_ty.wrap(provider.draw(None, (), fn.ret_ty, "nondet"))
        try:
            exec_stmt(fn.body)
        except _ReturnSignal as r:
            if r.value is not None:
                return r.value
        return fallback

    def hoist(e):
        """Replace every Call in e by a Const holding its value
        (left-to-right, matching the lowering's evaluation order)."""
        if isinstance(e, Call):
            return Const(call(e), ty=e.ty, loc=e.loc)
        if isinstance(e, Unary):
            return Unary(e.op, hoist(e.operand), ty=e.ty, loc=e.loc)
        if isinstance(e, Binary):
            return Binary(e.op, hoist(e.left), hoist(e.right),
                          nid=e.nid, ty=e.ty, loc=e.loc)
        if isinstance(e, Cast):
            return Cast(e.target, hoist(e.operand), explicit=e.explicit,
                        ty=e.ty, loc=e.loc)
        if isinstance(e, Cond):
            return Cond(hoist(e.cond), hoist(e.then), hoist(e.els),
                        ty=e.ty, loc=e.loc)
        return e

    def eval_rvalue(e, decl_ty):
        if isinstance(e, Nondet):
            ty = e.ty or decl_ty
            return ty.wrap(provider.draw(e.nid, (), ty, "nondet"))
        return eval_expr(hoist(e), store, provider, ())

    try:
        for g in prog.globals:
            init = g.init
            if init is None:
                store[g.rid] = 0
            else:
                store[g.rid] = eval_rvalue(init, g.decl_ty)
        main = prog.function(prog.entry)
        try:
            exec_stmt(main.body)
        except _ReturnSignal:
            pass
    except _Violation as v:
        return RunResult(VIOLATION, store, violated=v.loc)
    except _Blocked:
        return RunResult(BLOCKED, store)
    except _OutOfFuel:
        return RunResult(STEP_LIMIT, store)
    return RunResult(COMPLETED, store)
