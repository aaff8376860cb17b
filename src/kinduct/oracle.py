"""Explicit-state enumeration over small domains.

A ground-truth engine for the SAT pipeline, used only by the test suite:
it explores every execution of a GotoProgram by branching on each
nondeterministic draw over the full domain of its type (hence the domain
width cap), deduplicating on (pc, store, counters, pending draws).  It
runs on the interpreter's `step` and `LoopClock`, so it is no check of
`run_goto`.

Under a bound k a path is cut where a loop activation takes its guard
more than k times; an unwinding assertion at depth k fails on exactly the
cut paths.  One `explore(g, k)` answers every bound k' <= k: each state's
label is the least bound under which it is reachable, the largest counter
at which a guard held on a path to it, minimised over paths (a bottleneck
path, as in Pollack, "The maximum capacity through a network", 1960).
Labels never fall along a path, so states are expanded in label order,
each key once, at its least label, and none of label > k.  So `max_states`
bounds the distinct states reachable under k, the deepest bound.

A violation at label h fails BASE for every k' >= h.  A guard that holds
at counter c in a state of label h fails FORWARD for h <= k' < c.  Those
bounds are kept one by one, not folded into a least passing bound, so
that FORWARD's monotonicity in k is checked by the tests, not assumed by
the answer.  Then

    base_holds(k')      == no assertion violation within bound k'
    forward_holds(k')   == base_holds(k') and no path cut at bound k'

matching what the unwound BASE and FORWARD formulas check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import IntType
from .goto_ir import GotoProgram
from .interp import BLOCKED, VIOLATION, LoopClock, step


class OracleLimit(Exception):
    """The fixture is too large for exhaustive enumeration."""


class _NeedDraw(Exception):
    """A draw the state has not branched on yet; args are (key, type)."""


class _Asker:
    def __init__(self, pending: dict):
        self.pending = pending

    def draw(self, nid, ctx, ty: IntType, kind: str) -> int:
        key = (nid, ctx)
        if key not in self.pending:
            raise _NeedDraw(key, ty)
        return self.pending[key]


@dataclass
class Exploration:
    bound: int | None                 # the k explored to; None: no bound
    violation_k: int | None = None    # the least label of a violation
    forward_fails: set = field(default_factory=set)  # bounds with a cut path
    blocked: int = 0

    @property
    def violated(self) -> bool:
        return self.violation_k is not None

    def base_holds(self, k: int) -> bool:
        """True iff no run within k iterations per loop violates."""
        if k < 1 or (self.bound is not None and k > self.bound):
            raise ValueError(f"bound {k} is outside 1..{self.bound}")
        return self.violation_k is None or k < self.violation_k

    def forward_holds(self, k: int) -> bool:
        """True iff base_holds(k) and no run is cut at bound k."""
        return self.base_holds(k) and k not in self.forward_fails


def explore(g: GotoProgram, k: int | None = None, max_states: int = 500_000,
            max_draw_width: int = 8) -> Exploration:
    clock = LoopClock(g)
    guard_of = {loop.guard_index: loop.loop_id for loop in g.loops}
    out = Exploration(k)
    n = len(g.instructions)
    todo = {1: [(0, {}, clock.arrive(0, {}), {})]}   # one stack per label
    seen = set()

    while todo:
        h = min(todo)
        stack = todo[h]
        while stack:
            pc, store, counters, pending = stack.pop()
            key = (pc, tuple(sorted(store.items())),
                   tuple(sorted(counters.items())),
                   tuple(sorted(pending.items())))
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise OracleLimit("state budget exhausted")
            if pc >= n:
                continue
            try:
                status, nxt, write = step(g, pc, store, clock.ctx(pc, counters),
                                          _Asker(pending))
            except _NeedDraw as need:
                draw, ty = need.args
                if ty.width > max_draw_width:
                    raise OracleLimit(
                        f"draw domain of width {ty.width} exceeds the cap") from None
                for v in range(ty.min, ty.max + 1):
                    stack.append((pc, store, counters, {**pending, draw: v}))
                continue
            if status == BLOCKED:
                out.blocked += 1
                continue
            if status == VIOLATION:   # in label order, the first is least
                out.violation_k = out.violation_k or h
                continue
            label = h
            if nxt == pc + 1 and pc in guard_of:
                # The guard holds at iteration c: bounds h..c-1 cut the path.
                c = counters.get(guard_of[pc], 0)
                out.forward_fails.update(
                    range(h, c if k is None else min(c, k + 1)))
                label = max(h, c)
                if k is not None and label > k:
                    continue
            if write is not None:
                store = {**store, write[0]: write[1]}
            todo.setdefault(label, []).append(
                (nxt, store, clock.arrive(nxt, counters), {}))
        del todo[h]
    return out
