"""Explicit-state enumeration over small domains.

A ground-truth engine for the SAT pipeline, used only by the test suite:
it explores every execution of a GotoProgram by branching on each
nondeterministic draw over the full domain of its type (hence the domain
width cap), deduplicating on (pc, store, counters).  It runs on the
interpreter's `step` and `LoopClock`, so it is no check of `run_goto`.

With a bound k, paths are cut when any loop activation takes its guard
more than k times; `sigma_failures` counts those cut paths, which is
exactly the set of paths on which an unwinding assertion at depth k
fails.  So

    base_case_holds(g, k)   == no assertion violation within the bound
    forward_holds(g, k)     == base_case_holds and sigma_failures == 0

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
    def __init__(self, key, ty):
        self.key = key
        self.ty = ty


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
    violations: list = field(default_factory=list)  # property locations hit
    sigma_failures: int = 0
    blocked: int = 0
    completed: int = 0
    states: int = 0

    @property
    def violated(self) -> bool:
        return bool(self.violations)


def explore(g: GotoProgram, k: int | None = None, max_states: int = 500_000,
            max_draw_width: int = 8) -> Exploration:
    clock = LoopClock(g)
    guard_of = {loop.guard_index: loop.loop_id for loop in g.loops}
    out = Exploration()
    n = len(g.instructions)
    stack = [(0, {}, clock.arrive(0, {}), {})]
    seen = set()

    while stack:
        pc, store, counters, pending = stack.pop()
        key = (pc, tuple(sorted(store.items())),
               tuple(sorted(counters.items())),
               tuple(sorted(pending.items())))
        if key in seen:
            continue
        seen.add(key)
        out.states += 1
        if out.states > max_states:
            raise OracleLimit("state budget exhausted")
        if pc >= n:
            out.completed += 1
            continue
        ins = g.instructions[pc]
        try:
            status, nxt, write = step(g, pc, store, clock.ctx(pc, ins, counters),
                                      _Asker(pending))
        except _NeedDraw as need:
            ty = need.ty
            if ty.width > max_draw_width:
                raise OracleLimit(
                    f"draw domain of width {ty.width} exceeds the cap") from None
            for v in range(ty.min, ty.max + 1):
                stack.append((pc, store, counters, {**pending, need.key: v}))
            continue
        if status == BLOCKED:
            out.blocked += 1
        elif status == VIOLATION:
            out.violations.append(ins.loc)
        elif k is not None and nxt == pc + 1 and pc in guard_of \
                and counters.get(guard_of[pc], 0) > k:
            # The loop's guard still holds after k full iterations.
            out.sigma_failures += 1
        else:
            if write is not None:
                store = {**store, write[0]: write[1]}
            stack.append((nxt, store, clock.arrive(nxt, counters), {}))
    return out


def base_case_holds(g: GotoProgram, k: int, **kw) -> bool:
    """True iff no execution bounded by k iterations per loop activation
    violates an assertion."""
    return not explore(g, k, **kw).violated


def forward_holds(g: GotoProgram, k: int, **kw) -> bool:
    """True iff every execution leaves each loop within k iterations and
    no bounded execution violates an assertion."""
    ex = explore(g, k, **kw)
    return not ex.violated and ex.sigma_failures == 0


def min_violation_k(g: GotoProgram, k_max: int, **kw):
    for k in range(1, k_max + 1):
        if not base_case_holds(g, k, **kw):
            return k
    return None


def min_forward_k(g: GotoProgram, k_max: int, **kw):
    for k in range(1, k_max + 1):
        if forward_holds(g, k, **kw):
            return k
    return None
