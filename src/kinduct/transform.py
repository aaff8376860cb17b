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
variable changed, banning stuttering iterations (tag `stutter`).  The
loop variables are read off the loop's tree item
(`goto_ir.loop_variables`).  A HAVOC carries no draw id: only INDUCTIVE
unwindings hold one, and nothing replays them.  The
shadow stores open copy j's then-branch and its stutter assume closes
it: they are siblings under the one guard G_j, and the assume is the
shadows' only reader.  So `vcgen.to_ssa` defines a shadow without that
guard, as a plain alias of the variable's current version; when G_j is
false the assume holds whatever the shadow is.

Queries convert the unwound tree itself (`vcgen.to_ssa`); its flat GOTO
view, `body`, is built only when read (`--dump-unwound`, tests).  When
the first loop of the top-level list holds no loop and none comes
before it, `unwind` records where it put that loop's copies
(`UnwoundProgram.layout`).  Those copies, and everything before them,
are then the same at every k, so `to_ssa` can resume a conversion from
the state an earlier, shallower query left after one of them.

Every produced instruction carries `ctx`, the tuple of copy indices of
its enclosing unwound loops (outermost first).  Nondeterministic draws
are therefore named (nid, ctx), the same keys a concrete replay of the
original program produces, which is what makes model replay possible.

`unwind` takes an optional time.monotonic() deadline and raises
DeadlineExceeded once it has run past it, checked every COPIES_PER_CHECK
loop copies; `vcgen.to_ssa` does the same for tree items, `vcgen.encode`
for termination terms and `solver.bitblast` for definitions.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from functools import cached_property

from .frontend import Binary, IntType, Unary, Var
from .goto_ir import (
    GotoProgram, IfItem, Instr, LoopItem, OpItem, loop_variables,
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
    tree: list       # loop-free: OpItems and IfItems only
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
    copies = own = 0
    layout = None
    symbols = dict(p.symbols)
    inductive = phase is Phase.INDUCTIVE

    def stamp(items: list, ctx: tuple) -> list:
        nonlocal layout
        out: list = []
        for item in items:
            if isinstance(item, OpItem):
                out.append(OpItem(replace(item.instr, ctx=ctx)))
            elif isinstance(item, IfItem):
                out.append(IfItem(item.cond, stamp(item.then, ctx),
                                  stamp(item.els, ctx), loc=item.loc, ctx=ctx))
            elif isinstance(item, LoopItem):
                before = copies
                out.extend(unwind_loop(item, ctx))
                # the first loop of the top level, no loop in or before it
                if items is p.tree and before == 0 and copies == k:
                    layout = (len(out) - 1, own)
            else:
                raise TypeError(f"unexpected tree item {item!r}")
        return out

    def unwind_loop(loop: LoopItem, ctx: tuple) -> list:
        nonlocal copies, own
        sigma = Unary("!", loop.guard, ty=_BOOL, loc=loop.loc)
        lv = sorted(loop_variables(loop))
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
            seq = stamp(loop.body, cctx)
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
                seq = stores + seq + [stutter]
            own = len(seq)
            inner = pre_i + [IfItem(loop.guard, seq + inner, [],
                                    loc=loop.loc, ctx=cctx)]
        havocs = [OpItem(Instr("HAVOC", var=v, tag="havoc",
                               loc=loop.loc, ctx=ctx))
                  for v in lv] if inductive else []
        return havocs + inner

    tree = stamp(p.tree, ())
    return UnwoundProgram(tree, symbols, phase, k, p, layout)


def dump_unwound(u: UnwoundProgram) -> str:
    from .goto_ir import dump_goto
    head = f"phase={u.phase.value} k={u.k}"
    return head + "\n" + dump_goto(u.body)
