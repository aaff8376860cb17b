"""Affine invariant generation and instrumentation.

Two producers feed the same consumer:

* `infer_invariants` runs a small abstract interpreter (intervals plus
  constant-difference / constant-sum facts between variable pairs) over
  a GotoProgram and emits affine constraints at every loop head.
* `translate_invariants` accepts invariant comments of the form
  `// P(w,x) {w==0, x#init>10}` and rewrites them into
  `__ESBMC_assume(...)` statements, synthesizing `v_init` snapshot
  declarations for `#init`-marked variables.

`instrument` plants the inferred constraints as ASSUME instructions at
the loop heads, which later survive into every unwound copy (and in the
inductive step end up immediately after the havoc block).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .frontend import (
    Binary, Cast, Cond, Const, Expr, IntType, MiniCError, Nondet, Unary, Var,
    lex, promote, _Parser,
)
from .goto_ir import (
    GotoProgram, Instr, LoopItem, IfItem, OpItem, flatten_tree,
)


class InvariantError(MiniCError):
    pass


_BOOL = IntType(32, True)


# ---------------------------------------------------------------------------
# constraint representation

@dataclass(frozen=True)
class AffineConstraint:
    """sum(coef * var for coef, var in terms)  <relation>  constant."""

    terms: tuple  # ((coefficient, variable), ...)
    relation: str  # ==, <=, <
    constant: int

    def __post_init__(self):
        if not any(c for c, _ in self.terms):
            raise InvariantError("constraint needs a nonzero term")
        names = [v for _, v in self.terms]
        if len(names) != len(set(names)):
            raise InvariantError("constraint repeats a variable")


def lower_bound(v: str, lo: int) -> AffineConstraint:
    return AffineConstraint(((-1, v),), "<=", -lo)


def upper_bound(v: str, hi: int) -> AffineConstraint:
    return AffineConstraint(((1, v),), "<=", hi)


def point(v: str, c: int) -> AffineConstraint:
    return AffineConstraint(((1, v),), "==", c)


def difference(a: str, b: str, c: int) -> AffineConstraint:
    return AffineConstraint(((1, a), (-1, b)), "==", c)


def var_sum(a: str, b: str, c: int) -> AffineConstraint:
    return AffineConstraint(((1, a), (1, b)), "==", c)


def render_constraint(c: AffineConstraint) -> str:
    terms = c.terms
    if len(terms) == 1:
        coef, v = terms[0]
        if coef == 1:
            return f"{v} {c.relation} {c.constant}"
        if coef == -1 and c.relation in ("<=", "<"):
            return f"{-c.constant} {c.relation} {v}"
    if len(terms) == 2 and c.relation == "==":
        (ca, a), (cb, b) = terms
        if ca == 1 and cb == -1:
            if c.constant == 0:
                return f"{a} == {b}"
            sign = "+" if c.constant > 0 else "-"
            return f"{a} == {b} {sign} {abs(c.constant)}"
        if ca == 1 and cb == 1:
            return f"{a} + {b} == {c.constant}"
    lhs = " + ".join(f"{coef}*{v}" for coef, v in terms)
    return f"{lhs} {c.relation} {c.constant}"


def constraint_to_expr(c: AffineConstraint, symbols: dict) -> Expr:
    """Build a typed MiniC expression for a constraint.  Operands are
    promoted to a common type; equality facts remain sound under
    wrapping because exact equality implies modular equality."""
    for _, v in c.terms:
        if v not in symbols:
            raise InvariantError(f"constraint references unknown variable {v}")
    ty = symbols[c.terms[0][1]]
    for _, v in c.terms[1:]:
        ty = promote(ty, symbols[v])

    def var(name: str) -> Expr:
        e: Expr = Var(name, rid=name, ty=symbols[name])
        if symbols[name] != ty:
            e = Cast(ty, e, ty=ty)
        return e

    def const(value: int) -> Expr:
        return Const(ty.wrap(value), ty=ty)

    terms = c.terms
    if len(terms) == 1:
        coef, v = terms[0]
        if coef == 1:
            return Binary(c.relation, var(v), const(c.constant), ty=_BOOL)
        if coef == -1:
            return Binary(c.relation, const(-c.constant), var(v), ty=_BOOL)
    if len(terms) == 2 and c.relation == "==":
        (ca, a), (cb, b) = terms
        if ca == 1 and cb == -1:
            if c.constant == 0:
                rhs: Expr = var(b)
            else:
                op = "+" if c.constant > 0 else "-"
                rhs = Binary(op, var(b), const(abs(c.constant)), ty=ty)
            return Binary("==", var(a), rhs, ty=_BOOL)
        if ca == 1 and cb == 1:
            return Binary("==", Binary("+", var(a), var(b), ty=ty),
                          const(c.constant), ty=_BOOL)
    lhs: Expr | None = None
    for coef, v in terms:
        term: Expr = var(v)
        if coef != 1:
            term = Binary("*", const(coef), term, ty=ty)
        lhs = term if lhs is None else Binary("+", lhs, term, ty=ty)
    return Binary(c.relation, lhs, const(c.constant), ty=_BOOL)


@dataclass
class InvariantSet:
    by_location: dict = field(default_factory=dict)  # head index -> [AffineConstraint]

    def __bool__(self):
        return bool(self.by_location)


def dump_invariants(p: GotoProgram, inv: InvariantSet) -> str:
    lines = []
    for loc in sorted(inv.by_location):
        cs = inv.by_location[loc]
        body = ", ".join(render_constraint(c) for c in cs) if cs else "(none)"
        lines.append(f"head@{loc}: {body}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# abstract interpretation: intervals + pair equalities

_WIDEN_AFTER = 3


@dataclass
class _Abs:
    intervals: dict  # var -> (lo, hi) in the var's canonical value range
    diffs: dict      # (a, b) with a < b -> a - b
    sums: dict       # (a, b) with a < b -> a + b

    def copy(self) -> "_Abs":
        return _Abs(dict(self.intervals), dict(self.diffs), dict(self.sums))


def _full(ty: IntType) -> tuple:
    return (ty.min, ty.max)


def _canon_diff(a: str, b: str, c: int):
    return ((a, b), c) if a < b else ((b, a), -c)


def _canon_sum(a: str, b: str, c: int):
    return ((a, b) if a < b else (b, a), c)


def _point_pairs(s: _Abs) -> _Abs:
    """Augment with pair facts implied by singleton intervals."""
    pts = [(v, lo) for v, (lo, hi) in s.intervals.items() if lo == hi]
    if len(pts) < 2:
        return s
    s = s.copy()
    for i, (a, av) in enumerate(pts):
        for b, bv in pts[i + 1:]:
            k, c = _canon_diff(a, b, av - bv)
            s.diffs.setdefault(k, c)
            k, c = _canon_sum(a, b, av + bv)
            s.sums.setdefault(k, c)
    return s


def _join(a: _Abs | None, b: _Abs | None) -> _Abs | None:
    if a is None:
        return b.copy() if b is not None else None
    if b is None:
        return a.copy()
    a, b = _point_pairs(a), _point_pairs(b)
    intervals = {}
    for v in a.intervals.keys() & b.intervals.keys():
        (alo, ahi), (blo, bhi) = a.intervals[v], b.intervals[v]
        intervals[v] = (min(alo, blo), max(ahi, bhi))
    diffs = {k: c for k, c in a.diffs.items() if b.diffs.get(k) == c}
    sums = {k: c for k, c in a.sums.items() if b.sums.get(k) == c}
    return _Abs(intervals, diffs, sums)


def _meet_intervals(old: _Abs, new: _Abs | None) -> _Abs | None:
    """Narrowing meet: refine old's intervals with new's, keep old facts."""
    if new is None:
        return None
    intervals = dict(old.intervals)
    for v, (nlo, nhi) in new.intervals.items():
        lo, hi = intervals.get(v, (nlo, nhi))
        lo, hi = max(lo, nlo), min(hi, nhi)
        if lo > hi:
            return None
        intervals[v] = (lo, hi)
    return _Abs(intervals, dict(old.diffs), dict(old.sums))


def _widen(old: _Abs, new: _Abs, symbols: dict, counts: dict) -> _Abs:
    """Per-bound widening: a bound jumps to its type bound once it has
    moved _WIDEN_AFTER times at this head.  `counts` maps var ->
    [lo moves, hi moves] and is updated in place."""
    intervals = {}
    for v, (nlo, nhi) in new.intervals.items():
        olo, ohi = old.intervals.get(v, (nlo, nhi))
        ty = symbols[v]
        cnt = counts.setdefault(v, [0, 0])
        if nlo < olo:
            cnt[0] += 1
            if cnt[0] >= _WIDEN_AFTER:
                nlo = ty.min
        if nhi > ohi:
            cnt[1] += 1
            if cnt[1] >= _WIDEN_AFTER:
                nhi = ty.max
        intervals[v] = (nlo, nhi)
    return _Abs(intervals, dict(new.diffs), dict(new.sums))


def _effective(s: _Abs, v: str, ty: IntType) -> tuple:
    """The interval of v sharpened through pair facts."""
    lo, hi = s.intervals.get(v, _full(ty))
    for (a, b), c in s.diffs.items():
        other = b if a == v else a if b == v else None
        if other is None or other not in s.intervals:
            continue
        olo, ohi = s.intervals[other]
        d = c if a == v else -c  # v - other
        lo, hi = max(lo, olo + d), min(hi, ohi + d)
    for (a, b), c in s.sums.items():
        other = b if a == v else a if b == v else None
        if other is None or other not in s.intervals:
            continue
        olo, ohi = s.intervals[other]
        lo, hi = max(lo, c - ohi), min(hi, c - olo)
    return (lo, hi)


def _eval(e: Expr, s: _Abs) -> tuple:
    """Abstract evaluation; returns (lo, hi, exact).  exact is False when
    the result had to be clipped because a subterm may wrap."""
    ty = e.ty
    if isinstance(e, Const):
        v = ty.wrap(e.value)
        return (v, v, True)
    if isinstance(e, Var):
        lo, hi = _effective(s, e.rid or e.name, ty)
        return (lo, hi, True)
    if isinstance(e, Nondet):
        return (*_full(ty), True)
    if isinstance(e, Unary):
        lo, hi, ok = _eval(e.operand, s)
        if e.op == "-":
            return _clip((-hi, -lo), ty, ok)
        if e.op == "!":
            if lo == hi == 0:
                return (1, 1, ok)
            if lo > 0 or hi < 0:
                return (0, 0, ok)
            return (0, 1, ok)
        return (*_full(ty), True)  # ~
    if isinstance(e, Cast):
        lo, hi, ok = _eval(e.operand, s)
        return _clip((lo, hi), e.target, ok)
    if isinstance(e, Cond):
        clo, chi, _ = _eval(e.cond, s)
        tlo, thi, tok = _eval(e.then, s)
        elo, ehi, eok = _eval(e.els, s)
        if clo > 0 or chi < 0:
            return (tlo, thi, tok)
        if clo == chi == 0:
            return (elo, ehi, eok)
        return (min(tlo, elo), max(thi, ehi), tok and eok)
    if isinstance(e, Binary):
        return _eval_binary(e, s)
    return (*_full(ty), True)


def _clip(bounds: tuple, ty: IntType, ok: bool) -> tuple:
    lo, hi = bounds
    if lo >= ty.min and hi <= ty.max:
        return (lo, hi, ok)
    return (*_full(ty), False)


def _eval_binary(e: Binary, s: _Abs) -> tuple:
    ty = e.ty
    op = e.op
    if op in ("==", "!=", "<", "<=", ">", ">="):
        alo, ahi, _ = _eval(e.left, s)
        blo, bhi, _ = _eval(e.right, s)
        table = {
            "<": (ahi < blo, alo >= bhi), "<=": (ahi <= blo, alo > bhi),
            ">": (alo > bhi, ahi <= blo), ">=": (alo >= bhi, ahi < blo),
            "==": (alo == ahi == blo == bhi, ahi < blo or alo > bhi),
            "!=": (ahi < blo or alo > bhi, alo == ahi == blo == bhi),
        }
        surely, never = table[op]
        if surely:
            return (1, 1, True)
        if never:
            return (0, 0, True)
        return (0, 1, True)
    if op in ("&&", "||"):
        alo, ahi, _ = _eval(e.left, s)
        blo, bhi, _ = _eval(e.right, s)
        at = (1, 1) if (alo > 0 or ahi < 0) else (0, 0) if alo == ahi == 0 else (0, 1)
        bt = (1, 1) if (blo > 0 or bhi < 0) else (0, 0) if blo == bhi == 0 else (0, 1)
        if op == "&&":
            return (min(at[0], bt[0]), min(at[1], bt[1]), True)
        return (max(at[0], bt[0]), max(at[1], bt[1]), True)
    alo, ahi, aok = _eval(e.left, s)
    blo, bhi, bok = _eval(e.right, s)
    ok = aok and bok
    if op == "+":
        return _clip((alo + blo, ahi + bhi), ty, ok)
    if op == "-":
        return _clip((alo - bhi, ahi - blo), ty, ok)
    if op == "*":
        cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return _clip((min(cands), max(cands)), ty, ok)
    if op == "/":
        if blo > 0 or bhi < 0:
            cands = [_tdiv(x, y) for x in (alo, ahi) for y in (blo, bhi)]
            return _clip((min(cands), max(cands)), ty, ok)
        return (*_full(ty), False)
    if op == "%":
        if blo > 0 and alo >= 0:
            return _clip((0, min(ahi, bhi - 1)), ty, ok)
        return (*_full(ty), False)
    if op == "&":
        if alo >= 0 and blo >= 0:
            return _clip((0, min(ahi, bhi)), ty, ok)
        return (*_full(ty), False)
    if op in ("|", "^", "<<", ">>"):
        if alo == ahi and blo == bhi:
            from .interp import eval_expr as conc
            stub = replace(e, left=Const(alo, ty=e.left.ty),
                           right=Const(blo, ty=e.right.ty))
            v = conc(stub, {}, None)
            return (v, v, True)
        if op == ">>" and alo >= 0 and 0 <= blo == bhi:
            return _clip((alo >> blo, ahi >> blo), ty, ok)
        return (*_full(ty), False)
    return (*_full(ty), False)


def _tdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# condition refinement -------------------------------------------------------

_FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _as_var(e: Expr):
    """Unwrap value-preserving casts down to a variable, or None."""
    while isinstance(e, Cast):
        inner = e.operand
        if inner.ty is None or not (e.target.min <= inner.ty.min
                                    and inner.ty.max <= e.target.max):
            return None
        e = inner
    if isinstance(e, Var):
        return e.rid or e.name
    return None


def _as_const(e: Expr):
    while isinstance(e, Cast):
        e = e.operand
    if isinstance(e, Const):
        return e.value
    return None


def _refine(s: _Abs | None, cond: Expr, truth: bool) -> _Abs | None:
    """Constrain s with cond == truth; None means infeasible."""
    if s is None:
        return None
    if isinstance(cond, Unary) and cond.op == "!":
        return _refine(s, cond.operand, not truth)
    if isinstance(cond, Binary) and cond.op in ("&&", "||"):
        if (cond.op == "&&" and truth) or (cond.op == "||" and not truth):
            s = _refine(s, cond.left, truth)
            return _refine(s, cond.right, truth)
        return s  # disjunctive information is dropped
    if not (isinstance(cond, Binary) and cond.op in _FLIP):
        lo, hi, _ = _eval(cond, s)
        if truth and lo == hi == 0:
            return None
        if not truth and (lo > 0 or hi < 0):
            return None
        return s
    op = cond.op if truth else _FLIP[cond.op]
    left, right = cond.left, cond.right
    lv, rv = _as_var(left), _as_var(right)
    lc, rc = _as_const(left), _as_const(right)

    def clamp(v: str, ty: IntType, lo=None, hi=None) -> bool:
        clo, chi = s.intervals.get(v, _full(ty))
        if lo is not None:
            clo = max(clo, lo)
        if hi is not None:
            chi = min(chi, hi)
        if clo > chi:
            return False
        s.intervals[v] = (clo, chi)
        return True

    s = s.copy()
    if lv is not None and rc is not None:
        ty = s_type(lv, left)
        c = rc
        ok = {"<": lambda: clamp(lv, ty, hi=c - 1),
              "<=": lambda: clamp(lv, ty, hi=c),
              ">": lambda: clamp(lv, ty, lo=c + 1),
              ">=": lambda: clamp(lv, ty, lo=c),
              "==": lambda: clamp(lv, ty, lo=c, hi=c),
              "!=": lambda: True}[op]()
        return s if ok else None
    if rv is not None and lc is not None:
        ty = s_type(rv, right)
        c = lc
        op2 = _SWAP[op]
        ok = {"<": lambda: clamp(rv, ty, hi=c - 1),
              "<=": lambda: clamp(rv, ty, hi=c),
              ">": lambda: clamp(rv, ty, lo=c + 1),
              ">=": lambda: clamp(rv, ty, lo=c),
              "==": lambda: clamp(rv, ty, lo=c, hi=c),
              "!=": lambda: True}[op2]()
        return s if ok else None
    if lv is not None and rv is not None:
        lt, rt = s_type(lv, left), s_type(rv, right)
        llo, lhi = _effective(s, lv, lt)
        rlo, rhi = _effective(s, rv, rt)
        ok = True
        if op == "<":
            ok = clamp(lv, lt, hi=rhi - 1) and clamp(rv, rt, lo=llo + 1)
        elif op == "<=":
            ok = clamp(lv, lt, hi=rhi) and clamp(rv, rt, lo=llo)
        elif op == ">":
            ok = clamp(lv, lt, lo=rlo + 1) and clamp(rv, rt, hi=lhi - 1)
        elif op == ">=":
            ok = clamp(lv, lt, lo=rlo) and clamp(rv, rt, hi=lhi)
        elif op == "==":
            ok = clamp(lv, lt, lo=rlo, hi=rhi) and clamp(rv, rt, lo=llo, hi=lhi)
        return s if ok else None
    lo, hi, _ = _eval(cond, s)
    if truth and lo == hi == 0:
        return None
    if not truth and (lo > 0 or hi < 0):
        return None
    return s


def s_type(name: str, e: Expr) -> IntType:
    while isinstance(e, Cast):
        e = e.operand
    return e.ty


# transfer ---------------------------------------------------------------------

def _match_affine(e: Expr):
    """Recognize v := w + k / w - k / k - w / w / k, looking through
    casts.  Returns ("var+", w, k) | ("neg", w, k) | ("const", None, k) |
    None.  Callers must separately prove the evaluation cannot wrap."""
    while isinstance(e, Cast):
        e = e.operand
    c = _as_const(e)
    if c is not None:
        return ("const", None, c)
    v = _as_var(e)
    if v is not None:
        return ("var+", v, 0)
    if isinstance(e, Binary) and e.op in ("+", "-"):
        lv, rv = _as_var(e.left), _as_var(e.right)
        lc, rc = _as_const(e.left), _as_const(e.right)
        if lv is not None and rc is not None:
            return ("var+", lv, rc if e.op == "+" else -rc)
        if lc is not None and rv is not None:
            return ("var+", rv, lc) if e.op == "+" else ("neg", rv, lc)
    return None


def _assign(s: _Abs, var: str, e: Expr, ty: IntType) -> _Abs:
    lo, hi, exact = _eval(e, s)
    lo, hi = max(lo, ty.min), min(hi, ty.max)
    out = s.copy()
    old_diffs, old_sums = s.diffs, s.sums

    def facts_of(w: str):
        for (a, b), c in old_diffs.items():
            if a == w or b == w:
                other = b if a == w else a
                yield ("diff", other, c if a == w else -c)  # w - other
        for (a, b), c in old_sums.items():
            if a == w or b == w:
                yield ("sum", b if a == w else a, c)

    out.diffs = {k: c for k, c in out.diffs.items() if var not in k}
    out.sums = {k: c for k, c in out.sums.items() if var not in k}
    out.intervals[var] = (lo, hi)
    if not exact:
        return out
    m = _match_affine(e)
    if m is None:
        return out
    kind, w, k = m
    if kind == "var+":
        if w != var:
            key, c = _canon_diff(var, w, k)
            out.diffs[key] = c
        for fk, other, c in facts_of(w):
            if other == var:
                continue
            if fk == "diff":  # w - other = c, var = w + k
                key, cc = _canon_diff(var, other, c + k)
                out.diffs[key] = cc
            else:             # w + other = c
                key, cc = _canon_sum(var, other, c + k)
                out.sums[key] = cc
    elif kind == "neg":  # var = k - w
        if w != var:
            key, c = _canon_sum(var, w, k)
            out.sums[key] = c
        for fk, other, c in facts_of(w):
            if other == var:
                continue
            if fk == "diff":  # w = other + c -> var + other = k - c
                key, cc = _canon_sum(var, other, k - c)
                out.sums[key] = cc
            else:             # w = c - other -> var - other = k - c
                key, cc = _canon_diff(var, other, k - c)
                out.diffs[key] = cc
    return out


def _successors(p: GotoProgram, i: int, s: _Abs):
    """Yield (next index, state) pairs for instruction i."""
    ins = p.instructions[i]
    if ins.op == "ASSIGN":
        yield (i + 1, _assign(s, ins.var, ins.expr, p.symbols[ins.var]))
    elif ins.op == "HAVOC":
        out = s.copy()
        out.intervals[ins.var] = _full(p.symbols[ins.var])
        out.diffs = {k: c for k, c in out.diffs.items() if ins.var not in k}
        out.sums = {k: c for k, c in out.sums.items() if ins.var not in k}
        yield (i + 1, out)
    elif ins.op in ("ASSUME", "ASSERT"):
        refined = _refine(s, ins.expr, True)
        if refined is not None:
            yield (i + 1, refined)
    elif ins.op == "GOTO":
        yield (ins.target, s.copy())
    elif ins.op == "COND_GOTO":
        taken = _refine(s, ins.expr, True)
        if taken is not None:
            yield (ins.target, taken)
        fall = _refine(s, ins.expr, False)
        if fall is not None:
            yield (i + 1, fall)
    else:
        yield (i + 1, s.copy())


def _analyze(p: GotoProgram) -> list:
    """Abstract states before each instruction (None = unreachable)."""
    n = len(p.instructions)
    heads = {l.head for l in p.loops}
    state: list = [None] * (n + 1)
    state[0] = _Abs({}, {}, {})
    moves: dict = {h: {} for h in heads}
    work = [0]
    iterations = 0
    while work:
        iterations += 1
        if iterations > 200_000:
            # Not converged: only the empty (no-information) result is a
            # sound over-approximation.
            return [None] * (n + 1)
        i = work.pop()
        if i >= n or state[i] is None:
            continue
        for j, out in _successors(p, i, state[i]):
            merged = _join(state[j], out)
            if merged == state[j]:
                continue
            if j in heads and state[j] is not None:
                merged = _widen(state[j], merged, p.symbols, moves[j])
                if merged == state[j]:
                    continue
            state[j] = merged
            work.append(j)

    preds: list = [[] for _ in range(n + 1)]
    for i, ins in enumerate(p.instructions):
        if ins.op == "GOTO":
            preds[ins.target].append(i)
        elif ins.op == "COND_GOTO":
            preds[ins.target].append(i)
            preds[i + 1].append(i)
        else:
            preds[i + 1].append(i)

    for _ in range(2):  # narrowing passes
        for j in range(n + 1):
            if j == 0 or state[j] is None:
                continue
            incoming = None
            for i in preds[j]:
                if state[i] is None:
                    continue
                for tgt, out in _successors(p, i, state[i]):
                    if tgt == j:
                        incoming = _join(incoming, out)
            state[j] = _meet_intervals(state[j], incoming)
    return state


def infer_invariants(p: GotoProgram) -> InvariantSet:
    """Constraints over-approximating every reachable store at each loop
    head.  Unreachable heads get the empty list."""
    states = _analyze(p)
    out = InvariantSet()
    for loop in p.loops:
        s = states[loop.head]
        cs: list = []
        if s is not None:
            pairs_done = set()
            for v in sorted(s.intervals):
                ty = p.symbols[v]
                lo, hi = _effective(s, v, ty)
                lo, hi = max(lo, ty.min), min(hi, ty.max)
                if lo == hi:
                    cs.append(point(v, lo))
                    continue
                if lo > ty.min or lo == 0:
                    cs.append(lower_bound(v, lo))
                if hi < ty.max:
                    cs.append(upper_bound(v, hi))
            for (a, b), c in sorted(s.diffs.items()):
                ia, ib = s.intervals.get(a), s.intervals.get(b)
                if ia and ib and not (ia[0] == ia[1] and ib[0] == ib[1]):
                    cs.append(difference(a, b, c))
                    pairs_done.add((a, b))
            for (a, b), c in sorted(s.sums.items()):
                ia, ib = s.intervals.get(a), s.intervals.get(b)
                if ia and ib and not (ia[0] == ia[1] and ib[0] == ib[1]):
                    cs.append(var_sum(a, b, c))
        out.by_location[loop.head] = cs
    return out


def instrument(p: GotoProgram, inv: InvariantSet) -> GotoProgram:
    """Insert one ASSUME per annotated loop head, as the first
    instruction of the head (so back edges re-enter through it and every
    unwound copy inherits it)."""
    if not inv.by_location:
        return p
    by_loop = {}
    for loop in p.loops:
        cs = inv.by_location.get(loop.head, [])
        if cs:
            by_loop[loop.loop_id] = cs

    def conj(cs: list) -> Expr:
        exprs = [constraint_to_expr(c, p.symbols) for c in cs]
        out = exprs[0]
        for e in exprs[1:]:
            out = Binary("&&", out, e, ty=_BOOL)
        return out

    def rebuild(items: list) -> list:
        out = []
        for item in items:
            if isinstance(item, IfItem):
                out.append(IfItem(item.cond, rebuild(item.then),
                                  rebuild(item.els), loc=item.loc))
            elif isinstance(item, LoopItem):
                body = rebuild(item.body)
                pre = list(item.pre)
                if item.loop_id in by_loop:
                    pre.insert(0, OpItem(Instr(
                        "ASSUME", expr=conj(by_loop[item.loop_id]),
                        tag="invariant", loc=item.loc)))
                out.append(LoopItem(item.guard, body, pre=pre,
                                    loc=item.loc, loop_id=item.loop_id))
            else:
                out.append(item)
        return out

    tree = rebuild(p.tree)
    return flatten_tree(tree, p.symbols, p.name, p.file, p.next_nid)


# ---------------------------------------------------------------------------
# invariant comments (the PIPS-style path)

@dataclass
class PipsComment:
    line: int
    raw: str


_P_COMMENT = re.compile(r"^(\s*)//\s*P\(([^)]*)\)\s*\{(.*)\}\s*$")
_P_LIKE = re.compile(r"^\s*//\s*P\s*\(")
_INIT_MARK = re.compile(r"([a-zA-Z0-9_]+)#init")


def find_comments(source: str, problems: list | None = None) -> list:
    """All well-formed PIPS comments; malformed P-comments are recorded
    in `problems` as (line, message) and skipped."""
    out = []
    for i, text in enumerate(source.splitlines(), start=1):
        m = _P_COMMENT.match(text)
        if m:
            out.append(PipsComment(i, text))
        elif _P_LIKE.match(text):
            if problems is not None:
                problems.append((i, f"malformed invariant comment: {text.strip()}"))
    return out


def _split_constraints(body: str) -> list:
    return [c.strip() for c in body.split(",") if c.strip()]


def scan_init_markers(source: str, problems: list | None = None) -> dict:
    """Map line -> #init-marked variable names (in order of appearance)."""
    out: dict = {}
    for comment in find_comments(source, problems):
        body = _P_COMMENT.match(comment.raw).group(3)
        marked = []
        for name in _INIT_MARK.findall(body):
            if name not in marked:
                marked.append(name)
        if marked:
            out[comment.line] = marked
    return out


def rewrite_expression(raw: str) -> str:
    """Insert `*` between a numeric literal and a following identifier
    and turn the #init marker into the _init snapshot suffix."""
    out = re.sub(r"\b(?!0[xX])(\d+)(?=[A-Za-z_])", r"\1*", raw)
    out = out.replace("#init", "_init")
    tokens = lex(out, "<invariant>")
    parser = _Parser(tokens, "<invariant>")
    try:
        parser.parse_ternary()
        bad = parser.peek().kind != "EOF"
    except MiniCError:
        bad = True
    if bad:
        raise InvariantError(
            f"constraint {raw!r} rewrote to {out!r}, which does not parse")
    return out


def _function_spans(prog, source: str) -> list:
    """(fn, start line, end line, body brace line) per function."""
    from .frontend import FunctionDef
    fns = [it for it in prog.items if isinstance(it, FunctionDef)]
    spans = []
    total = source.count("\n") + 1
    for i, fn in enumerate(fns):
        end = fns[i + 1].loc.line - 1 if i + 1 < len(fns) else total
        spans.append((fn, fn.loc.line, end, fn.body.loc.line))
    return spans


def synthesize_snapshots(source: str, markers: dict) -> str:
    """Insert `T v_init = v;` declarations at the start of every function
    containing an #init-marked comment line."""
    if not markers:
        return source
    from .frontend import VarDecl, parse, walk

    prog = parse(source)
    spans = _function_spans(prog, source)
    per_function: dict = {}
    for line in sorted(markers):
        home = None
        for fn, start, end, brace in spans:
            if start <= line <= end:
                home = (fn, brace)
                break
        if home is None:
            raise InvariantError(
                f"invariant comment on line {line} is outside any function")
        bucket = per_function.setdefault((home[0].name, home[1]), (home[0], []))
        for v in markers[line]:
            if v not in bucket[1]:
                bucket[1].append(v)

    def decl_type(fn, name: str) -> IntType | None:
        for param in fn.params:
            if param.name == name:
                return param.decl_ty
        for node in walk(fn.body):
            if isinstance(node, VarDecl) and node.name == name:
                return node.decl_ty
        for g in prog.globals:
            if g.name == name:
                return g.decl_ty
        return None

    lines = source.splitlines()
    inserts = []  # (brace line, [decl text, ...])
    for (fname, brace), (fn, names) in per_function.items():
        decls = []
        for v in names:
            ty = decl_type(fn, v)
            if ty is None:
                marked_at = min(l for l in markers if v in markers[l])
                raise InvariantError(
                    f"variable {v} marked #init on line {marked_at} is not "
                    f"declared in function {fname}")
            indent = "  "
            decls.append(f"{indent}{ty} {v}_init = {v};")
        inserts.append((brace, decls))
    for brace, decls in sorted(inserts, reverse=True):
        lines[brace:brace] = decls
    return "\n".join(lines) + ("\n" if source.endswith("\n") else "")


def translate_invariants(source: str, problems: list | None = None) -> str:
    """The full comment pipeline: scan markers, rewrite each P-comment to
    an __ESBMC_assume statement, then add the snapshot declarations."""
    markers = scan_init_markers(source, problems)
    lines = source.splitlines()
    for comment in find_comments(source):
        m = _P_COMMENT.match(comment.raw)
        indent, body = m.group(1), m.group(3)
        constraints = [rewrite_expression(c) for c in _split_constraints(body)]
        if constraints:
            lines[comment.line - 1] = f"{indent}__ESBMC_assume({' && '.join(constraints)});"
        else:
            lines[comment.line - 1] = ""
    text = "\n".join(lines) + ("\n" if source.endswith("\n") else "")
    return synthesize_snapshots(text, markers)
