"""GOTO-style intermediate representation.

`lower` turns a type-checked AST into a loop tree with all calls
inlined: OpItems (ASSIGN, ASSUME, ASSERT, HAVOC, SKIP), IfItems and
LoopItems.  for-loops lower as `B; while (c) { E; D; }` and do-while
loops are peeled as `E; while (c) { E; }`: the lowerer lowers the body
twice, so the peeled copy gets its own draw ids and its inner loops
their own loop ids.

The tree is the program: unwinding copies loop bodies from it.  The flat
GOTO listing, every loop in the top-test shape

    head:  COND_GOTO !(guard) -> exit
           ...body...
           GOTO head

is derived from the tree on first read, for the readers that run on
program counters: the replay, the oracle and the dumps.

Every nondeterministic value (nondet expressions and the fresh value
produced by division by zero) carries a unique numeric id `nid`, which
is how solver models are later mapped back onto concrete replays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

from .frontend import (
    INT, Assert, Assign, Assume, Binary, Block, Call, Cast, Cond, Const,
    DoWhile, ExprStmt, Expr, For, If, IntType, Loc, MiniCError, Nondet,
    Program, Return, Skip, Stmt, Unary, Var, VarDecl, While, pp_expr, walk,
)


class LoweringError(MiniCError):
    pass


# ---------------------------------------------------------------------------
# instructions and loop metadata

@dataclass
class Instr:
    op: str
    var: str | None = None
    expr: Expr | None = None
    target: int | None = None
    loc: Loc | None = None
    tag: str = ""           # provenance marker for transformed programs
    # Set by `unwind` on a terminator only: the copy indices of every
    # enclosing loop, outermost first, then k+1 for its own loop.
    ctx: tuple = ()

    def render(self) -> str:
        if self.op == "ASSIGN":
            return f"ASSIGN {self.var} := {pp_expr(self.expr)}"
        if self.op in ("ASSUME", "ASSERT"):
            return f"{self.op} {pp_expr(self.expr)}"
        if self.op == "GOTO":
            return f"GOTO {self.target}"
        if self.op == "COND_GOTO":
            return f"COND_GOTO {pp_expr(self.expr)} -> {self.target}"
        if self.op == "HAVOC":
            return f"HAVOC {self.var}"
        return "SKIP"


@dataclass
class LoopInfo:
    """One natural loop: `head` is the first instruction executed every
    iteration, `guard_index` the COND_GOTO testing the (negated) guard,
    `backjump` the jump back to `head`."""

    head: int
    backjump: int
    nesting_depth: int
    guard_index: int
    loop_id: int


# structured view ------------------------------------------------------------

@dataclass
class OpItem:
    instr: Instr


@dataclass
class IfItem:
    cond: Expr
    then: list
    els: list
    loc: Loc | None = None
    ctx: tuple = ()  # set by `unwind` on a loop copy: its copy indices


@dataclass
class LoopItem:
    guard: Expr
    body: list
    # OpItems run each iteration before the guard; the unwound copies
    # share them, so they must hold no draw (see `transform`)
    pre: list = field(default_factory=list)
    loc: Loc | None = None
    loop_id: int = 0


@dataclass
class GotoProgram:
    """A program as its loop tree.  The flat listing, `instructions` and
    `loops` (sorted by head), is built from the tree on first read."""

    tree: list
    symbols: dict  # variable -> IntType
    name: str = "<program>"
    file: str = "<input>"

    def __post_init__(self):
        ids = [i.loop_id for i in items_in(self.tree) if isinstance(i, LoopItem)]
        if len(ids) != len(set(ids)):
            raise ValueError("two loops share a loop id")

    @cached_property
    def _flat(self) -> tuple:
        return flatten(self.tree)

    @property
    def instructions(self) -> list:
        return self._flat[0]

    @property
    def loops(self) -> list:
        return self._flat[1]


def dump_goto(p: GotoProgram) -> str:
    """Numbered one-instruction-per-line listing (the --dump-goto format)."""
    return "\n".join(f"{i}: {ins.render()}" for i, ins in enumerate(p.instructions))


def free_vars(e: Expr) -> set:
    return {node.name for node in walk(e) if isinstance(node, Var)}


def items_in(tree: list):
    """Every item of `tree`, nested ones included, in no fixed order."""
    stack = [tree]
    while stack:
        for item in stack.pop():
            yield item
            if isinstance(item, IfItem):
                stack += (item.then, item.els)
            elif isinstance(item, LoopItem):
                stack += (item.pre, item.body)


def loop_variables(loop: LoopItem) -> frozenset:
    """Variables havocked in the inductive step: those used in the loop
    guard or assigned anywhere in the loop, nested loops included (loop
    counters are assigned in the body, so the two criteria cover all
    three)."""
    return frozenset(free_vars(loop.guard) | {
        i.instr.var for i in items_in([loop])
        if isinstance(i, OpItem) and i.instr.op == "ASSIGN"})


# ---------------------------------------------------------------------------
# lowering

class _Lowerer:
    def __init__(self, prog: Program):
        self.prog = prog
        self.symbols: dict = {}
        self.nids = itertools.count()
        self.loop_ids = itertools.count()
        self.site_count = 0

    def declare(self, name: str, ty: IntType):
        self.symbols[name] = ty

    def run(self) -> list:
        tree: list = []
        for g in self.prog.globals:
            if g.rid is None:
                raise ValueError("lowering requires a type-checked program")
            self.declare(g.rid, g.decl_ty)
            init = g.init
            if init is None:
                init = Const(0, ty=g.decl_ty, loc=g.loc)
            tree.append(OpItem(Instr(
                "ASSIGN", var=g.rid, expr=self.lower_call_free(init, {}),
                loc=g.loc)))
        main = self.prog.function(self.prog.entry)
        body, _ = self.single_exit(main.body.stmts)
        # The entry function's return value is never observed, so its
        # return variable is a plain assign target with no nondet seed.
        ret_var = f"{main.name}.ret"
        if main.ret_ty is not None and any(
                isinstance(n, Return) and n.value is not None for n in walk(main.body)):
            self.declare(ret_var, main.ret_ty)
        tree.extend(self.lower_stmts(body, {}, ret_var))
        return tree

    # single-exit conversion -------------------------------------------------
    def single_exit(self, stmts: list) -> tuple:
        """Rewrite a statement list so `Return` only appears in tail
        position of a branch; code after a return is dropped.  Returns
        (statements, always_returns)."""
        out: list = []
        for i, s in enumerate(stmts):
            if isinstance(s, Return):
                out.append(s)
                return out, True
            if isinstance(s, Block):
                inner, done = self.single_exit(s.stmts)
                out.append(Block(inner, loc=s.loc))
                if done:
                    return out, True
                continue
            if isinstance(s, If) and any(isinstance(n, Return) for n in walk(s)):
                then_stmts, then_done = self.single_exit(self.as_list(s.then))
                els_stmts, els_done = self.single_exit(self.as_list(s.els))
                rest, rest_done = self.single_exit(stmts[i + 1:])
                if then_done and els_done:
                    out.append(If(s.cond, Block(then_stmts), Block(els_stmts), loc=s.loc))
                    return out, True
                if then_done:
                    out.append(If(s.cond, Block(then_stmts), Block(els_stmts + rest), loc=s.loc))
                else:
                    out.append(If(s.cond, Block(then_stmts + rest), Block(els_stmts), loc=s.loc))
                return out, rest_done
            if isinstance(s, (While, For, DoWhile)) and any(
                    isinstance(n, Return) for n in walk(s)):
                raise LoweringError("return inside a loop is not supported",
                                    s.loc, self.prog.file)
            out.append(s)
        return out, False

    @staticmethod
    def as_list(s) -> list:
        if s is None:
            return []
        return list(s.stmts) if isinstance(s, Block) else [s]

    # statements -------------------------------------------------------------
    def lower_stmts(self, stmts: list, rename: dict, ret_var: str) -> list:
        out: list = []
        for s in stmts:
            out.extend(self.lower_stmt(s, rename, ret_var))
        return out

    def lower_stmt(self, s: Stmt, rename: dict, ret_var: str) -> list:
        if isinstance(s, Block):
            return self.lower_stmts(s.stmts, rename, ret_var)
        if isinstance(s, Skip):
            return [OpItem(Instr("SKIP", loc=s.loc))]
        if isinstance(s, VarDecl):
            name = rename.get(s.rid, s.rid)
            self.declare(name, s.decl_ty)
            init = s.init
            if init is None:
                init = Nondet(star=True, ty=s.decl_ty, loc=s.loc)
            out, expr = self.lower_expr(init, rename)
            out.append(OpItem(Instr("ASSIGN", var=name, expr=expr, loc=s.loc)))
            return out
        if isinstance(s, Assign):
            name = rename.get(s.rid, s.rid)
            out, expr = self.lower_expr(s.value, rename)
            out.append(OpItem(Instr("ASSIGN", var=name, expr=expr, loc=s.loc)))
            return out
        if isinstance(s, Assert):
            out, expr = self.lower_expr(s.cond, rename)
            out.append(OpItem(Instr("ASSERT", expr=expr, loc=s.loc)))
            return out
        if isinstance(s, Assume):
            out, expr = self.lower_expr(s.cond, rename)
            out.append(OpItem(Instr("ASSUME", expr=expr, loc=s.loc)))
            return out
        if isinstance(s, If):
            out, cond = self.lower_expr(s.cond, rename)
            then = self.lower_stmt(s.then, rename, ret_var)
            els = self.lower_stmt(s.els, rename, ret_var) if s.els is not None else []
            out.append(IfItem(cond, then, els, loc=s.loc))
            return out
        if isinstance(s, While):
            guard = self.lower_call_free(s.cond, rename)
            body = self.lower_stmt(s.body, rename, ret_var)
            return [LoopItem(guard, body, loc=s.loc, loop_id=next(self.loop_ids))]
        if isinstance(s, For):
            out = self.lower_stmt(s.init, rename, ret_var) if s.init is not None else []
            guard = self.lower_call_free(s.cond, rename)
            body = self.lower_stmt(s.body, rename, ret_var)
            if s.step is not None:
                body.extend(self.lower_stmt(s.step, rename, ret_var))
            out.append(LoopItem(guard, body, loc=s.loc, loop_id=next(self.loop_ids)))
            return out
        if isinstance(s, DoWhile):
            peeled = self.lower_stmt(s.body, rename, ret_var)
            guard = self.lower_call_free(s.cond, rename)
            body = self.lower_stmt(s.body, rename, ret_var)
            return peeled + [LoopItem(guard, body, loc=s.loc,
                                      loop_id=next(self.loop_ids))]
        if isinstance(s, Return):
            if s.value is None:
                return []
            out, expr = self.lower_expr(s.value, rename)
            out.append(OpItem(Instr("ASSIGN", var=ret_var, expr=expr, loc=s.loc)))
            return out
        if isinstance(s, ExprStmt):
            out, _ = self.lower_expr(s.expr, rename)
            return out
        raise TypeError(f"unexpected statement {s!r}")

    # expressions (calls hoisted and inlined) ---------------------------------
    def lower_expr(self, e: Expr, rename: dict) -> tuple:
        """Returns (emitted items, call-free cloned expression)."""
        out: list = []

        def copy(node: Expr) -> Expr:
            if isinstance(node, Call):
                pre, result = self.inline_call(node, rename)
                out.extend(pre)
                return result
            if isinstance(node, Const):
                return replace(node)
            if isinstance(node, Var):
                name = node.rid or node.name
                name = rename.get(name, name)
                return Var(name, rid=name, ty=node.ty, loc=node.loc)
            if isinstance(node, Nondet):
                return replace(node, nid=next(self.nids))
            if isinstance(node, Unary):
                return Unary(node.op, copy(node.operand), ty=node.ty, loc=node.loc)
            if isinstance(node, Binary):
                nid = next(self.nids) if node.op in ("/", "%") else None
                return Binary(node.op, copy(node.left), copy(node.right),
                              nid=nid, ty=node.ty, loc=node.loc)
            if isinstance(node, Cast):
                return Cast(node.target, copy(node.operand),
                            explicit=node.explicit, ty=node.ty, loc=node.loc)
            if isinstance(node, Cond):
                return Cond(copy(node.cond), copy(node.then), copy(node.els),
                            ty=node.ty, loc=node.loc)
            raise TypeError(f"cannot lower expression {node!r}")

        return out, copy(e)

    def lower_call_free(self, e: Expr, rename: dict) -> Expr:
        """Lower a loop guard or a global initializer, which the type
        checker keeps free of calls."""
        pre, expr = self.lower_expr(e, rename)
        if pre:
            raise ValueError("unexpected function call")
        return expr

    def inline_call(self, call: Call, rename: dict) -> tuple:
        fn = self.prog.function(call.name)
        self.site_count += 1
        site = self.site_count
        decls = fn.params + [n for n in walk(fn.body) if isinstance(n, VarDecl)]
        sub = {d.rid: f"{fn.name}.{site}.{d.rid}" for d in decls}
        ret_var = f"{fn.name}.{site}.ret"

        out: list = []
        for p, arg in zip(fn.params, call.args):
            self.declare(sub[p.rid], p.decl_ty)
            pre, expr = self.lower_expr(arg, rename)
            out.extend(pre)
            out.append(OpItem(Instr("ASSIGN", var=sub[p.rid], expr=expr, loc=call.loc)))
        if fn.ret_ty is not None:
            self.declare(ret_var, fn.ret_ty)
            out.append(OpItem(Instr(
                "ASSIGN", var=ret_var,
                expr=Nondet(star=True, ty=fn.ret_ty, nid=next(self.nids)), loc=call.loc)))
        body, _ = self.single_exit(fn.body.stmts)
        out.extend(self.lower_stmts(body, sub, ret_var))
        result = Var(ret_var, rid=ret_var, ty=fn.ret_ty, loc=call.loc)
        return out, result


# ---------------------------------------------------------------------------
# flattening

def walk_nested(items, tree: list):
    """Run the generator function `items` over `tree`.  Unwinding nests
    one IfItem per loop copy, so the walk keeps an explicit stack of
    generators instead of recursing: each yields a nested list at the
    point where it is to be walked, and resumes once that list is done."""
    stack = [items(tree)]
    while stack:
        nested = next(stack[-1], None)
        if nested is None:
            stack.pop()
        else:
            stack.append(items(nested))


class _Flattener:
    def __init__(self):
        self.instrs: list = []
        self.loops: list = []
        self.depth = 0

    def emit(self, ins: Instr) -> int:
        self.instrs.append(ins)
        return len(self.instrs) - 1

    def _items(self, tree: list):
        for item in tree:
            if isinstance(item, OpItem):
                self.emit(item.instr)
            elif isinstance(item, IfItem):
                neg = Unary("!", item.cond, ty=INT, loc=item.loc)
                branch = self.emit(Instr("COND_GOTO", expr=neg, loc=item.loc))
                yield item.then
                if item.els:
                    skip = self.emit(Instr("GOTO", loc=item.loc))
                    self.instrs[branch].target = len(self.instrs)
                    yield item.els
                    self.instrs[skip].target = len(self.instrs)
                else:
                    self.instrs[branch].target = len(self.instrs)
            elif isinstance(item, LoopItem):
                head = len(self.instrs)
                self.depth += 1
                yield item.pre
                neg = Unary("!", item.guard, ty=INT, loc=item.loc)
                guard_idx = self.emit(Instr("COND_GOTO", expr=neg, loc=item.loc))
                yield item.body
                backjump = self.emit(Instr("GOTO", target=head, loc=item.loc))
                self.instrs[guard_idx].target = len(self.instrs)
                self.depth -= 1
                self.loops.append(LoopInfo(
                    head, backjump, self.depth, guard_idx, item.loop_id))
            else:
                raise TypeError(f"unexpected tree item {item!r}")


def flatten(tree: list) -> tuple:
    """The flat listing of `tree`: (instructions, loops sorted by head)."""
    fl = _Flattener()
    walk_nested(fl._items, tree)
    return fl.instrs, sorted(fl.loops, key=lambda l: l.head)


def lower(prog: Program) -> GotoProgram:
    """Lower a type-checked Program to a GotoProgram; do-while loops come
    out peeled into top-test form."""
    lo = _Lowerer(prog)
    return GotoProgram(lo.run(), lo.symbols, prog.entry, prog.file)
