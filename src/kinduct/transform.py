"""Loop unwinding for the three k-induction phases.

Each loop is replaced by k copies of its body, each guarded by the loop
condition, nested so that copy i+1 only runs if copy i's guard held.
The innermost position (after all k copies) carries the phase's
terminator over sigma = !(guard):

    BASE, INDUCTIVE   ASSUME(sigma)   cuts paths needing > k iterations
    FORWARD           ASSERT(sigma)   demands the loop finish within k

The inductive step first rewrites each loop, once, as
`A; while (c) { S; E; U; } R;`: A havocs the loop variables
(`goto_ir.loop_variables`, tag `havoc`) before the loop, so any head
invariant is assumed right after; S stores each loop variable v in its
shadow `v__pre_<loop id>` (tag `shadow`); U is SSA renaming; R assumes
that some loop variable differs from its shadow (tag `stutter`).  SSA
versions tell the copies' shadows apart.  With no loop variable R is
FALSE: such a loop changes no state, every iteration repeats the first,
whose draws can take any value a later one's can, so copy 1 decides.
A HAVOC has no draw id, and nothing replays an INDUCTIVE unwinding.
A copy's shadow stores and stutter assume share its guard G_j, and the
assume is the shadows' only reader, so `vcgen.to_ssa` defines a shadow
unguarded, as an alias: when G_j is false the assume holds anyway.

Queries convert the unwound tree itself (`vcgen.to_ssa`); its flat GOTO
view, `body`, is built only when read (`--dump-unwound`, tests).  When
the first loop of the top-level list holds no loop and none comes
before it, `unwind` records where it put that loop's copies
(`UnwoundProgram.layout`).  Those copies, and everything before them,
are then the same at every k, so `to_ssa` can resume a conversion from
the state an earlier, shallower query left after one of them.

The copies of a loop share its body's and its `pre` Instrs: `unwind`
makes only each copy's IfItem, whose `ctx` holds the copy indices of its
enclosing loops (outermost first) and its own, and the terminator, with
`ctx + (k+1,)`.  Any other Instr takes its innermost copy's context.
Draws are named (nid, ctx), the keys a concrete replay of the original
program produces, which is what makes model replay possible.  Copy i's
`pre` Instrs sit inside copy i-1 and take its context, so a `pre` Instr
must hold no draw (nondet or division): the replay of a FALSE would miss
it (`ReplayError`); its names stay distinct, so no wrong TRUE.

Every stage that takes a time.monotonic() `deadline` polls it through
`check_deadline`, which raises DeadlineExceeded once the clock is past
it; a loop polls every CHECK_EVERY steps (`unwind` loop copies, `to_ssa`
items, `bitblast` definitions, extension clauses, search iterations).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from functools import cached_property

from .frontend import INT, Binary, Const, Unary, Var
from .goto_ir import (
    GotoProgram, IfItem, Instr, LoopItem, items_in, loop_variables,
)


class TransformError(Exception):
    pass


class DeadlineExceeded(Exception):
    """A stage ran past its caller's deadline."""


CHECK_EVERY = 256   # loop steps between two polls of the clock


def check_deadline(deadline: float | None):
    """Raise DeadlineExceeded once time.monotonic() is past `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded


class Phase(enum.Enum):
    BASE = "base"
    FORWARD = "forward"
    INDUCTIVE = "inductive"


@dataclass
class UnwoundProgram:
    tree: list       # loop-free: Instrs and IfItems only
    symbols: dict    # variable -> IntType, shadows included
    phase: Phase
    k: int
    origin: GotoProgram | None = None  # the program that was unwound
    # where the copies of the first top-level loop sit, when that loop
    # holds no loop and none comes before it: (i, n), where `tree[i]` is
    # copy 1's IfItem and the then-branch of copy j's IfItem opens with
    # the n items of copy j itself (shadows, body, stutter assume),
    # followed by copy j+1 (its `pre` items, then its IfItem) or by the
    # terminator.  None otherwise: then the copies change with k.
    layout: tuple | None = None

    @cached_property
    def body(self) -> GotoProgram:
        """The flat view of `tree`, built on first access."""
        return GotoProgram(self.tree, self.symbols, self.origin.name,
                           self.origin.file)


def induct(items: list, symbols: dict) -> list:
    """`items` with every loop rewritten as `A; while (c) { S; E; R }`;
    the shadows are added to `symbols`."""
    out: list = []
    for item in items:
        if isinstance(item, IfItem):
            item = IfItem(item.cond, induct(item.then, symbols),
                          induct(item.els, symbols), loc=item.loc)
        elif isinstance(item, LoopItem):
            loc, lv = item.loc, sorted(loop_variables(item))
            out += [Instr("HAVOC", var=v, tag="havoc", loc=loc) for v in lv]
            stores, changed = [], Const(0, ty=INT, loc=loc)
            for v in lv:
                sh = f"{v}__pre_{item.loop_id}"
                symbols[sh] = ty = symbols[v]
                stores.append(Instr("ASSIGN", var=sh, tag="shadow", loc=loc,
                                    expr=Var(v, rid=v, ty=ty, loc=loc)))
                pair = Binary("!=", Var(v, rid=v, ty=ty), Var(sh, rid=sh, ty=ty),
                              ty=INT, loc=loc)
                changed = pair if len(stores) == 1 else \
                    Binary("||", changed, pair, ty=INT, loc=loc)
            stutter = Instr("ASSUME", expr=changed, tag="stutter", loc=loc)
            item = replace(item, body=stores + induct(item.body, symbols)
                           + [stutter])
        out.append(item)
    return out


def unwind(p: GotoProgram, k: int, phase: Phase,
           deadline: float | None = None) -> UnwoundProgram:
    """Replace every loop with k guarded copies plus the phase terminator,
    after the inductive rewrite for INDUCTIVE.

    Nested loops are unwound recursively with the same global k, once per
    copy of their enclosing loop.
    """
    if k < 1:
        raise TransformError(f"unwinding depth must be >= 1, got {k}")
    copies = own = 0
    layout = None
    symbols = dict(p.symbols)
    tree = induct(p.tree, symbols) if phase is Phase.INDUCTIVE else p.tree
    term_op, term_tag = (("ASSERT", "unwind_assertion") if phase is Phase.FORWARD
                         else ("ASSUME", "unwind_assumption"))

    def stamp(items: list, ctx: tuple) -> list:
        """`items` with their loops unwound in `ctx`, other items shared."""
        nonlocal layout
        out: list = []
        for item in items:
            if isinstance(item, Instr):
                out.append(item)
            elif isinstance(item, IfItem):
                out.append(IfItem(item.cond, stamp(item.then, ctx),
                                  stamp(item.els, ctx), loc=item.loc))
            elif isinstance(item, LoopItem):
                before = copies
                out.extend(unwind_loop(item, ctx))
                # the first loop of the top level, no loop in or before it
                if items is tree and before == 0 and copies == k:
                    layout = (len(out) - 1, own)
            else:
                raise TypeError(f"unexpected tree item {item!r}")
        return out

    def unwind_loop(loop: LoopItem, ctx: tuple) -> list:
        nonlocal copies, own
        nested = any(isinstance(i, LoopItem) for i in items_in(loop.body))
        sigma = Unary("!", loop.guard, ty=INT, loc=loop.loc)
        inner: list = [Instr(term_op, expr=sigma, tag=term_tag,
                             loc=loop.loc, ctx=ctx + (k + 1,))]
        for i in range(k, 0, -1):
            if copies % CHECK_EVERY == 0:
                check_deadline(deadline)
            copies += 1
            cctx = ctx + (i,)
            seq = stamp(loop.body, cctx) if nested else loop.body
            own = len(seq)
            inner = loop.pre + [
                IfItem(loop.guard, seq + inner, [], loc=loop.loc, ctx=cctx)]
        return inner

    return UnwoundProgram(stamp(tree, ()), symbols, phase, k, p, layout)


def dump_unwound(u: UnwoundProgram) -> str:
    from .goto_ir import dump_goto
    head = f"phase={u.phase.value} k={u.k}"
    return head + "\n" + dump_goto(u.body)
