"""Loop unwinding for the three k-induction phases.

Each loop is replaced by k copies of its body, each guarded by the loop
condition, nested so that copy i+1 only runs if copy i's guard held.
The innermost position (after all k copies) carries the phase's
terminator over sigma = !(guard):

    BASE, INDUCTIVE   ASSUME(sigma)   cuts paths needing > k iterations
    FORWARD           ASSERT(sigma)   demands the loop finish within k

The inductive step additionally rewrites every loop per
`A; while (c) { S; E; U; } R;`: A havocs the loop variables before copy
1 (tag `havoc`; any instrumented head invariant is assumed right after,
as part of copy 1's head), S snapshots each loop variable into a
per-copy shadow (tag `shadow`), U is subsumed by SSA renaming
downstream, and R assumes after each executed copy that some loop
variable changed, banning stuttering iterations (tag `stutter`).

Every produced instruction carries `ctx`, the tuple of copy indices of
its enclosing unwound loops (outermost first).  Nondeterministic draws
are therefore named (nid, ctx), the same keys a concrete replay of the
original program produces, which is what makes model replay possible.

`unwind` takes an optional time.monotonic() deadline and raises
DeadlineExceeded once it has run past it, checked every COPIES_PER_CHECK
loop copies; `solver.bitblast` does the same for definitions.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

from .frontend import Binary, IntType, Unary, Var
from .goto_ir import (
    GotoProgram, IfItem, Instr, LoopItem, OpItem, _NidSource, flatten_tree,
)


class TransformError(Exception):
    pass


class DeadlineExceeded(Exception):
    """A query stage ran past its caller's deadline."""


COPIES_PER_CHECK = 256


class Phase(enum.Enum):
    BASE = "base"
    FORWARD = "forward"
    INDUCTIVE = "inductive"


_BOOL = IntType(32, True)


@dataclass
class UnwoundProgram:
    body: GotoProgram
    phase: Phase
    k: int
    origin: GotoProgram | None = None  # the program that was unwound


def shadow_name(var: str, ctx: tuple) -> str:
    return f"{var}__pre_{'_'.join(str(c) for c in ctx)}"


def unwind(p: GotoProgram, k: int, phase: Phase,
           deadline: float | None = None) -> UnwoundProgram:
    """Replace every loop with k guarded copies plus the phase terminator.

    Nested loops are unwound recursively with the same global k, once per
    copy of their enclosing loop.
    """
    if k < 1:
        raise TransformError(f"unwinding depth must be >= 1, got {k}")
    copies = 0
    nids = _NidSource(p.next_nid)
    symbols = dict(p.symbols)
    loop_vars = {l.loop_id: l.loop_vars for l in p.loops}
    inductive = phase is Phase.INDUCTIVE

    def stamp(items: list, ctx: tuple) -> list:
        out: list = []
        for item in items:
            if isinstance(item, OpItem):
                out.append(OpItem(replace(item.instr, ctx=ctx)))
            elif isinstance(item, IfItem):
                out.append(IfItem(item.cond, stamp(item.then, ctx),
                                  stamp(item.els, ctx), loc=item.loc, ctx=ctx))
            elif isinstance(item, LoopItem):
                out.extend(unwind_loop(item, ctx))
            else:
                raise TypeError(f"unexpected tree item {item!r}")
        return out

    def unwind_loop(loop: LoopItem, ctx: tuple) -> list:
        nonlocal copies
        sigma = Unary("!", loop.guard, ty=_BOOL, loc=loop.loc)
        lv = sorted(loop_vars[loop.loop_id])
        term_op, term_tag = (("ASSERT", "unwind_assertion") if phase is Phase.FORWARD
                             else ("ASSUME", "unwind_assumption"))
        inner: list = [OpItem(Instr(term_op, expr=sigma, tag=term_tag,
                                    loc=loop.loc, ctx=ctx + (k + 1,)))]
        for i in range(k, 0, -1):
            if copies % COPIES_PER_CHECK == 0 and deadline is not None \
                    and time.monotonic() > deadline:
                raise DeadlineExceeded
            copies += 1
            cctx = ctx + (i,)
            pre_i = stamp(loop.pre, cctx)
            body_i = stamp(loop.body, cctx)
            seq = body_i
            if inductive:
                stores: list = []
                pairs: list = []
                for v in lv:
                    sh = shadow_name(v, cctx)
                    symbols[sh] = symbols[v]
                    stores.append(OpItem(Instr(
                        "ASSIGN", var=sh,
                        expr=Var(v, rid=v, ty=symbols[v], loc=loop.loc),
                        tag="shadow", loc=loop.loc, ctx=cctx)))
                    pairs.append(Binary(
                        "!=", Var(v, rid=v, ty=symbols[v]),
                        Var(sh, rid=sh, ty=symbols[v]), ty=_BOOL, loc=loop.loc))
                changed = pairs[0]
                for e in pairs[1:]:
                    changed = Binary("||", changed, e, ty=_BOOL, loc=loop.loc)
                stutter = OpItem(Instr("ASSUME", expr=changed, tag="stutter",
                                       loc=loop.loc, ctx=cctx))
                seq = stores + body_i + [stutter]
            inner = pre_i + [IfItem(loop.guard, seq + inner, [],
                                    loc=loop.loc, ctx=cctx)]
        havocs = [OpItem(Instr("HAVOC", var=v, nid=nids.take(), tag="havoc",
                               loc=loop.loc, ctx=ctx))
                  for v in lv] if inductive else []
        return havocs + inner

    tree = stamp(p.tree, ())
    body = flatten_tree(tree, symbols, p.name, p.file, nids.next)
    return UnwoundProgram(body, phase, k, p)


def dump_unwound(u: UnwoundProgram) -> str:
    from .goto_ir import dump_goto
    head = f"phase={u.phase.value} k={u.k}"
    return head + "\n" + dump_goto(u.body)
