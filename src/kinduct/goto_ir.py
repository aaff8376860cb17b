"""GOTO-style intermediate representation.

`lower` turns a type-checked AST into a flat list of instructions
(ASSIGN, ASSUME, ASSERT, GOTO, COND_GOTO, HAVOC, SKIP) with all calls
inlined and every loop in a canonical top-test shape:

    head:  COND_GOTO !(guard) -> exit
           ...body...
           GOTO head

for-loops lower as `B; while (c) { E; D; }` and do-while loops are
peeled as `E; while (c) { E; }`: the lowerer lowers the body twice, so
the peeled copy gets its own draw ids and its inner loops their own loop
ids.  Alongside the flat view, a structured region tree is kept so later
passes can copy loop bodies without re-discovering structure from jumps.

Every nondeterministic value in the IR (nondet expressions, havocs, and
the fresh value produced by division by zero) carries a unique numeric id
`nid`, which is how solver models are later mapped back onto concrete
replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .frontend import (
    Assert, Assign, Assume, Binary, Block, Call, Cast, Cond, Const, DoWhile,
    ExprStmt, Expr, For, If, IntType, Loc, MiniCError, Nondet, Program,
    Return, Skip, Stmt, Unary, Var, VarDecl, While, pp_expr, walk,
)


class LoweringError(MiniCError):
    pass


# ---------------------------------------------------------------------------
# instructions and loop metadata

OPS = ("ASSIGN", "ASSUME", "ASSERT", "GOTO", "COND_GOTO", "HAVOC", "SKIP")


@dataclass
class Instr:
    op: str
    var: str | None = None
    expr: Expr | None = None
    target: int | None = None
    loc: Loc | None = None
    nid: int | None = None  # draw id for HAVOC
    tag: str = ""           # provenance marker for transformed programs
    # Set on unwound copies: the copy indices of every enclosing loop,
    # outermost first.
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
    exit_condition: Expr  # the guard c; the loop exits when c is false
    loop_vars: frozenset
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
    ctx: tuple = ()  # loop-copy context stamped by the unwinder


@dataclass
class LoopItem:
    guard: Expr
    body: list
    pre: list = field(default_factory=list)  # run each iteration before the guard
    loc: Loc | None = None
    loop_id: int = 0


@dataclass
class GotoProgram:
    instructions: list
    loops: list
    symbols: dict  # variable -> IntType
    tree: list
    name: str = "<program>"
    file: str = "<input>"
    next_nid: int = 0


def dump_goto(p: GotoProgram) -> str:
    """Numbered one-instruction-per-line listing (the --dump-goto format)."""
    return "\n".join(f"{i}: {ins.render()}" for i, ins in enumerate(p.instructions))


def count_backjumps(p: GotoProgram) -> int:
    return sum(
        1
        for i, ins in enumerate(p.instructions)
        if ins.op in ("GOTO", "COND_GOTO") and ins.target is not None and ins.target < i
    )


def free_vars(e: Expr) -> set:
    return {node.name for node in walk(e) if isinstance(node, Var)}


def loop_variables(p: GotoProgram, loop: LoopInfo) -> frozenset:
    """Variables havocked in the inductive step: those used in the loop
    guard or assigned anywhere in the loop (loop counters are assigned in
    the body, so the two criteria cover all three)."""
    out = set(free_vars(loop.exit_condition))
    for ins in p.instructions[loop.head:loop.backjump + 1]:
        if ins.op in ("ASSIGN", "HAVOC"):
            out.add(ins.var)
    return frozenset(out)


def check_structure(p: GotoProgram):
    """Validate jump targets, loop nesting and ids, and the backjump
    count."""
    n = len(p.instructions)
    for i, ins in enumerate(p.instructions):
        if ins.op in ("GOTO", "COND_GOTO"):
            if ins.target is None or not (0 <= ins.target <= n):
                raise LoweringError(f"instruction {i} jumps out of range")
    for loop in p.loops:
        if not loop.backjump > loop.head:
            raise LoweringError(f"loop {loop.loop_id} backjump does not follow head")
        if p.instructions[loop.backjump].target != loop.head:
            raise LoweringError(f"loop {loop.loop_id} backjump does not target head")
    if len({l.loop_id for l in p.loops}) != len(p.loops):
        raise LoweringError("two loops share a loop id")
    spans = sorted(((l.head, l.backjump) for l in p.loops))
    stack: list = []
    for lo, hi in spans:
        while stack and stack[-1] < lo:
            stack.pop()
        if stack and hi > stack[-1]:
            raise LoweringError("loops overlap without nesting")
        stack.append(hi)
    if count_backjumps(p) != len(p.loops):
        raise LoweringError("backjump count does not match loop count")


# ---------------------------------------------------------------------------
# lowering

class _NidSource:
    def __init__(self, start: int = 0):
        self.next = start

    def take(self) -> int:
        nid = self.next
        self.next += 1
        return nid


class _Lowerer:
    def __init__(self, prog: Program):
        self.prog = prog
        self.symbols: dict = {}
        self.nids = _NidSource()
        self.loop_ids = _NidSource()
        self.site_count = 0

    def fail(self, msg: str, loc):
        raise LoweringError(msg, loc, self.prog.file)

    def declare(self, name: str, ty: IntType):
        self.symbols[name] = ty

    def run(self) -> list:
        tree: list = []
        for g in self.prog.globals:
            if g.rid is None:
                self.fail("lowering requires a type-checked program", g.loc)
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
                self.fail("return inside a loop is not supported", s.loc)
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
            return [LoopItem(guard, body, loc=s.loc, loop_id=self.loop_ids.take())]
        if isinstance(s, For):
            out = self.lower_stmt(s.init, rename, ret_var) if s.init is not None else []
            guard = self.lower_call_free(s.cond, rename)
            body = self.lower_stmt(s.body, rename, ret_var)
            if s.step is not None:
                body.extend(self.lower_stmt(s.step, rename, ret_var))
            out.append(LoopItem(guard, body, loc=s.loc, loop_id=self.loop_ids.take()))
            return out
        if isinstance(s, DoWhile):
            peeled = self.lower_stmt(s.body, rename, ret_var)
            guard = self.lower_call_free(s.cond, rename)
            body = self.lower_stmt(s.body, rename, ret_var)
            return peeled + [LoopItem(guard, body, loc=s.loc,
                                      loop_id=self.loop_ids.take())]
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
                return replace(node, nid=self.nids.take())
            if isinstance(node, Unary):
                return Unary(node.op, copy(node.operand), ty=node.ty, loc=node.loc)
            if isinstance(node, Binary):
                nid = self.nids.take() if node.op in ("/", "%") else None
                return Binary(node.op, copy(node.left), copy(node.right),
                              nid=nid, ty=node.ty, loc=node.loc)
            if isinstance(node, Cast):
                return Cast(node.target, copy(node.operand),
                            explicit=node.explicit, ty=node.ty, loc=node.loc)
            if isinstance(node, Cond):
                return Cond(copy(node.cond), copy(node.then), copy(node.els),
                            ty=node.ty, loc=node.loc)
            raise LoweringError(f"cannot lower expression {node!r}", node.loc)

        return out, copy(e)

    def lower_call_free(self, e: Expr, rename: dict) -> Expr:
        """Lower a loop guard or a global initializer, which the type
        checker keeps free of calls."""
        pre, expr = self.lower_expr(e, rename)
        if pre:
            self.fail("unexpected function call", e.loc)
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
                expr=Nondet(star=True, ty=fn.ret_ty, nid=self.nids.take()), loc=call.loc)))
        body, _ = self.single_exit(fn.body.stmts)
        out.extend(self.lower_stmts(body, sub, ret_var))
        result = Var(ret_var, rid=ret_var, ty=fn.ret_ty, loc=call.loc)
        return out, result


# ---------------------------------------------------------------------------
# flattening

class _Flattener:
    def __init__(self):
        self.instrs: list = []
        self.loops: list = []
        self.depth = 0

    def emit(self, ins: Instr) -> int:
        self.instrs.append(ins)
        return len(self.instrs) - 1

    def flatten(self, tree: list):
        """Emit `tree`.  Unwinding nests one IfItem per loop copy, so the
        walk keeps an explicit stack of `_items` generators instead of
        recursing: each yields a nested list where it is to be emitted."""
        stack = [self._items(tree)]
        while stack:
            nested = next(stack[-1], None)
            if nested is None:
                stack.pop()
            else:
                stack.append(self._items(nested))

    def _items(self, tree: list):
        for item in tree:
            if isinstance(item, OpItem):
                self.emit(item.instr)
            elif isinstance(item, IfItem):
                neg = Unary("!", item.cond, ty=IntType(32, True), loc=item.loc)
                branch = self.emit(Instr("COND_GOTO", expr=neg, loc=item.loc,
                                         ctx=item.ctx))
                yield item.then
                if item.els:
                    skip = self.emit(Instr("GOTO", loc=item.loc, ctx=item.ctx))
                    self.instrs[branch].target = len(self.instrs)
                    yield item.els
                    self.instrs[skip].target = len(self.instrs)
                else:
                    self.instrs[branch].target = len(self.instrs)
            elif isinstance(item, LoopItem):
                head = len(self.instrs)
                self.depth += 1
                yield item.pre
                neg = Unary("!", item.guard, ty=IntType(32, True), loc=item.loc)
                guard_idx = self.emit(Instr("COND_GOTO", expr=neg, loc=item.loc))
                yield item.body
                backjump = self.emit(Instr("GOTO", target=head, loc=item.loc))
                self.instrs[guard_idx].target = len(self.instrs)
                self.depth -= 1
                self.loops.append(LoopInfo(
                    head, backjump, item.guard, frozenset(),
                    self.depth, guard_idx, item.loop_id))
            else:
                raise TypeError(f"unexpected tree item {item!r}")


def flatten_tree(tree: list, symbols: dict, name: str, file: str,
                 next_nid: int) -> GotoProgram:
    fl = _Flattener()
    fl.flatten(tree)
    prog = GotoProgram(fl.instrs, sorted(fl.loops, key=lambda l: l.head),
                       dict(symbols), tree, name=name, file=file, next_nid=next_nid)
    for loop in prog.loops:
        loop.loop_vars = loop_variables(prog, loop)
    check_structure(prog)
    return prog


def lower(prog: Program) -> GotoProgram:
    """Lower a type-checked Program to a GotoProgram; do-while loops come
    out peeled into top-test form."""
    lo = _Lowerer(prog)
    return flatten_tree(lo.run(), lo.symbols, prog.entry, prog.file, lo.nids.next)
