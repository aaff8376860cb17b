"""Affine invariant generation and instrumentation.

Two producers feed the same consumer:

* `infer_invariants` runs a small abstract interpreter over the loop
  tree of a GotoProgram and emits affine constraints at every loop
  head, keyed by loop id.  Its domain is an interval per variable plus
  one table of pair facts `a + b == c` and `a - b == c`, keyed by the
  pair and the sign.
* `translate_invariants` accepts invariant comments of the form
  `// P(w,x) {w==0, x#init>10}` and rewrites them into
  `__ESBMC_assume(...)` statements, synthesizing `v_init` snapshot
  declarations for `#init`-marked variables.

`instrument` plants each loop's constraints as an ASSUME opening its
`pre` items, which every unwound copy shares (and which in the
inductive step comes right after the havoc block).  `dump_invariants`
is the one reader that names a loop by its head in the flat listing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .frontend import (
    INT, Binary, Cast, Cond, Const, Expr, IntType, MiniCError, Nondet, Unary,
    Var, lex, pp_expr, promote, _Parser,
)
from .goto_ir import GotoProgram, Instr, LoopItem, IfItem, items_in
from .interp import eval_expr, trunc_div
from .transform import check_deadline


class InvariantError(MiniCError):
    pass


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
            raise ValueError("constraint needs a nonzero term")
        names = [v for _, v in self.terms]
        if len(names) != len(set(names)):
            raise ValueError("constraint repeats a variable")


def lower_bound(v: str, lo: int) -> AffineConstraint:
    return AffineConstraint(((-1, v),), "<=", -lo)


def upper_bound(v: str, hi: int) -> AffineConstraint:
    return AffineConstraint(((1, v),), "<=", hi)


def point(v: str, c: int) -> AffineConstraint:
    return AffineConstraint(((1, v),), "==", c)


_SHAPES = {((1,), "<="), ((-1,), "<="), ((1,), "=="),
           ((1, -1), "=="), ((1, 1), "==")}


def _shape(c: AffineConstraint) -> tuple:
    """(coefficients, relation) of c, which must be a shape that
    `infer_invariants` emits: a bound, a point, a difference or a sum."""
    shape = (tuple(coef for coef, _ in c.terms), c.relation)
    if shape not in _SHAPES:
        raise ValueError(f"unsupported constraint shape {c}")
    return shape


def constraint_to_expr(c: AffineConstraint, symbols: dict) -> Expr:
    """Build a typed MiniC expression for a constraint.  Operands are
    promoted to a common type; equality facts remain sound under
    wrapping because exact equality implies modular equality."""
    for _, v in c.terms:
        if v not in symbols:
            raise ValueError(f"constraint references unknown variable {v}")
    coefs, relation = _shape(c)
    names, k = [v for _, v in c.terms], c.constant
    ty = symbols[names[0]]
    for v in names[1:]:
        ty = promote(ty, symbols[v])

    def var(name: str) -> Expr:
        e: Expr = Var(name, rid=name, ty=symbols[name])
        if symbols[name] != ty:
            e = Cast(ty, e, ty=ty)
        return e

    def const(value: int) -> Expr:
        return Const(ty.wrap(value), ty=ty)

    if coefs == (-1,):
        return Binary("<=", const(-k), var(names[0]), ty=INT)
    if len(coefs) == 1:
        return Binary(relation, var(names[0]), const(k), ty=INT)
    a, b = names
    if coefs == (1, 1):
        return Binary("==", Binary("+", var(a), var(b), ty=ty), const(k), ty=INT)
    rhs = var(b)
    if k != 0:
        rhs = Binary("+" if k > 0 else "-", rhs, const(abs(k)), ty=ty)
    return Binary("==", var(a), rhs, ty=INT)


@dataclass
class InvariantSet:
    by_location: dict = field(default_factory=dict)  # loop id -> [AffineConstraint]


def dump_invariants(p: GotoProgram, inv: InvariantSet) -> str:
    """One `head@<pc>: facts` line per loop, by its head in `p`'s listing;
    each fact prints as the expression `instrument` plants for it."""
    heads = {loop.loop_id: loop.head for loop in p.loops}
    lines = []
    for lid in sorted(inv.by_location, key=heads.__getitem__):
        cs = inv.by_location[lid]
        body = ", ".join(pp_expr(constraint_to_expr(c, p.symbols))
                         for c in cs) if cs else "(none)"
        lines.append(f"head@{heads[lid]}: {body}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# abstract interpretation: intervals + one table of pair facts a ± b == c

_WIDEN_AFTER = 3


@dataclass
class _Abs:
    intervals: dict  # var -> (lo, hi) in the var's canonical value range
    pairs: dict      # (a, b, sign) with a < b, sign in (-1, 1) -> c: a + sign*b == c

    def copy(self) -> "_Abs":
        return _Abs(dict(self.intervals), dict(self.pairs))


def _full(ty: IntType) -> tuple:
    return (ty.min, ty.max)


def _pair(a: str, b: str, sign: int, c: int) -> tuple:
    """The table entry (key, c) stating a + sign*b == c."""
    return ((a, b, sign), c) if a < b else ((b, a, sign), sign * c)


def _facts_of(pairs: dict, w: str):
    """Each fact on w as (other, sign, c), meaning w + sign*other == c."""
    for (a, b, sign), c in pairs.items():
        if a == w:
            yield (b, sign, c)
        elif b == w:
            yield (a, sign, sign * c)


def _point_pairs(s: _Abs) -> _Abs:
    """Augment with pair facts implied by singleton intervals."""
    pts = [(v, lo) for v, (lo, hi) in s.intervals.items() if lo == hi]
    if len(pts) < 2:
        return s
    s = s.copy()
    for i, (a, av) in enumerate(pts):
        for b, bv in pts[i + 1:]:
            for sign in (-1, 1):
                s.pairs.setdefault(*_pair(a, b, sign, av + sign * bv))
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
    return _Abs(intervals, {k: c for k, c in a.pairs.items() if b.pairs.get(k) == c})


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
    return _Abs(intervals, dict(old.pairs))


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
    return _Abs(intervals, dict(new.pairs))


def _effective(s: _Abs, v: str, ty: IntType) -> tuple:
    """The interval of v sharpened through pair facts."""
    lo, hi = s.intervals.get(v, _full(ty))
    for other, sign, c in _facts_of(s.pairs, v):  # v == c - sign*other
        if other in s.intervals:
            ends = [c - sign * bound for bound in s.intervals[other]]
            lo, hi = max(lo, min(ends)), min(hi, max(ends))
    return (lo, hi)


def _truth(lo: int, hi: int) -> tuple:
    """The truth values, as (lo, hi) in 0..1, of a value in [lo, hi]."""
    if lo > 0 or hi < 0:
        return (1, 1)
    if lo == hi == 0:
        return (0, 0)
    return (0, 1)


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
            tlo, thi = _truth(lo, hi)
            return (1 - thi, 1 - tlo, ok)
        return (*_full(ty), True)  # ~
    if isinstance(e, Cast):
        lo, hi, ok = _eval(e.operand, s)
        return _clip((lo, hi), e.target, ok)
    if isinstance(e, Cond):
        clo, chi, _ = _eval(e.cond, s)
        tlo, thi, tok = _eval(e.then, s)
        elo, ehi, eok = _eval(e.els, s)
        truth = _truth(clo, chi)
        if truth == (1, 1):
            return (tlo, thi, tok)
        if truth == (0, 0):
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
        at = _truth(*_eval(e.left, s)[:2])
        bt = _truth(*_eval(e.right, s)[:2])
        pick = min if op == "&&" else max
        return (pick(at[0], bt[0]), pick(at[1], bt[1]), True)
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
            cands = [trunc_div(x, y)[0] for x in (alo, ahi) for y in (blo, bhi)]
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
            stub = replace(e, left=Const(alo, ty=e.left.ty),
                           right=Const(blo, ty=e.right.ty))
            v = eval_expr(stub, {}, None)
            return (v, v, True)
        if op == ">>" and alo >= 0 and 0 <= blo == bhi:
            # The effective amount is taken mod the width, as in interp.
            sh = blo % ty.width
            return _clip((alo >> sh, ahi >> sh), ty, ok)
        return (*_full(ty), False)
    return (*_full(ty), False)


# condition refinement -------------------------------------------------------

_FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_SWAP = {">": "<", ">=": "<="}


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


def _operand(s: _Abs, e: Expr):
    """A comparison operand that refinement can use: (var, type, lo, hi)
    for a variable, (None, None, c, c) for a constant, else None."""
    v = _as_var(e)
    if v is not None:
        while isinstance(e, Cast):
            e = e.operand
        return (v, e.ty, *_effective(s, v, e.ty))
    c = _as_const(e)
    return None if c is None else (None, None, c, c)


def _refine(s: _Abs | None, cond: Expr, truth: bool) -> _Abs | None:
    """Constrain s with cond == truth; None means infeasible."""
    if s is None:
        return None
    if isinstance(cond, Unary) and cond.op == "!":
        return _refine(s, cond.operand, not truth)
    if isinstance(cond, Binary) and cond.op in ("&&", "||"):
        if (cond.op == "&&") == truth:
            return _refine(_refine(s, cond.left, truth), cond.right, truth)
        return s  # disjunctive information is dropped
    if isinstance(cond, Binary) and cond.op in _FLIP:
        op = cond.op if truth else _FLIP[cond.op]
        left, right = cond.left, cond.right
        if op in _SWAP:
            op, left, right = _SWAP[op], right, left
        lside, rside = _operand(s, left), _operand(s, right)
        if lside and rside and (lside[0] or rside[0]):
            return _compare(s, op, lside, rside)
    lo, hi = _truth(*_eval(cond, s)[:2])
    return s if lo <= truth <= hi else None


def _compare(s: _Abs, op: str, lside: tuple, rside: tuple) -> _Abs | None:
    """Refine s with `left op right` for op in <, <=, ==, !=, where each
    side is an `_operand` and at least one is a variable."""
    s = s.copy()
    if op == "!=":
        return s
    (lv, lt, llo, lhi), (rv, rt, rlo, rhi) = lside, rside
    gap = 1 if op == "<" else 0
    eq = op == "=="

    def clamp(v, ty: IntType, lo, hi) -> bool:
        if v is None:
            return True
        clo, chi = s.intervals.get(v, _full(ty))
        if lo is not None:
            clo = max(clo, lo)
        if hi is not None:
            chi = min(chi, hi)
        if clo > chi:
            return False
        s.intervals[v] = (clo, chi)
        return True

    ok = (clamp(lv, lt, rlo if eq else None, rhi - gap)
          and clamp(rv, rt, llo + gap, lhi if eq else None))
    return s if ok else None


# transfer ---------------------------------------------------------------------

def _match_affine(e: Expr):
    """Recognize v := w + k / w - k / k - w / w, looking through casts,
    as (sw, w, k) meaning sw*w + k.  Callers must separately prove the
    evaluation cannot wrap."""
    while isinstance(e, Cast):
        e = e.operand
    v = _as_var(e)
    if v is not None:
        return (1, v, 0)
    if isinstance(e, Binary) and e.op in ("+", "-"):
        lv, rv = _as_var(e.left), _as_var(e.right)
        lc, rc = _as_const(e.left), _as_const(e.right)
        if lv is not None and rc is not None:
            return (1, lv, rc if e.op == "+" else -rc)
        if lc is not None and rv is not None:
            return (1 if e.op == "+" else -1, rv, lc)
    return None


def _assign(s: _Abs, var: str, e: Expr, ty: IntType) -> _Abs:
    lo, hi, exact = _eval(e, s)
    out = _Abs(dict(s.intervals), {k: c for k, c in s.pairs.items() if var not in k})
    out.intervals[var] = (max(lo, ty.min), min(hi, ty.max))
    m = _match_affine(e) if exact else None
    if m is None:
        return out
    sw, w, k = m  # var == sw*w + k
    if w != var:
        key, c = _pair(var, w, -sw, k)
        out.pairs[key] = c
    for other, sign, c in _facts_of(s.pairs, w):  # w == c - sign*other
        if other != var:
            key, cc = _pair(var, other, sw * sign, sw * c + k)
            out.pairs[key] = cc
    return out


def _head_states(p: GotoProgram, deadline: float | None = None) -> dict:
    """The state at each loop head reached, keyed by loop id (None:
    unreachable).  The walk follows the loop tree (Bourdoncle's recursive
    strategy): a loop runs its `pre` items, guard and body back to its
    head, joining and widening there, until the head state is stable.
    Head states and widening counts persist across the iterations of
    enclosing loops.  Two descending passes then meet each head's
    intervals with its entry and its back edge.

    No iteration cap is needed: head intervals only grow, and `_widen`
    sends a bound to its type limit after `_WIDEN_AFTER` moves; a
    variable dropped from a head never returns; a pair fact leaves a
    head for good, and one is added only while both its variables are
    singletons.  Past the time.monotonic() `deadline`, checked at every
    ascending iteration of a head, it raises DeadlineExceeded."""
    heads: dict = {}  # loop id -> state
    backs: dict = {}  # loop id -> state arriving on the back edge
    moves: dict = {}  # loop id -> `_widen` counts

    def run(items: list, s: _Abs | None, through) -> _Abs | None:
        for item in items:
            if isinstance(item, IfItem):
                s = _join(run(item.then, _refine(s, item.cond, True), through),
                          run(item.els, _refine(s, item.cond, False), through))
            elif isinstance(item, LoopItem):
                s = through(item, s)
            elif item.op == "ASSIGN":
                s = None if s is None else _assign(s, item.var, item.expr, p.symbols[item.var])
            elif item.op in ("ASSUME", "ASSERT"):
                s = _refine(s, item.expr, True)
            else:
                raise ValueError(f"cannot analyse a {item.op} instruction")
        return s

    def ascend(loop: LoopItem, s: _Abs | None) -> _Abs | None:
        if s is None:
            return None
        lid = loop.loop_id
        while True:
            check_deadline(deadline)
            old = heads.get(lid)
            new = _join(old, s)
            if old is not None:
                new = _widen(old, new, p.symbols, moves.setdefault(lid, {}))
            if new == old:
                return _refine(run(loop.pre, old, ascend), loop.guard, False)
            heads[lid] = new
            top = run(loop.pre, new, ascend)
            s = backs[lid] = run(loop.body, _refine(top, loop.guard, True), ascend)

    def descend(loop: LoopItem, s: _Abs | None) -> _Abs | None:
        lid = loop.loop_id
        if heads.get(lid) is None:
            return None
        heads[lid] = head = _meet_intervals(heads[lid], _join(s, backs[lid]))
        top = run(loop.pre, head, descend)
        backs[lid] = run(loop.body, _refine(top, loop.guard, True), descend)
        return _refine(top, loop.guard, False)

    run(p.tree, _Abs({}, {}), ascend)
    for _ in range(2):
        run(p.tree, _Abs({}, {}), descend)
    return heads


def infer_invariants(p: GotoProgram,
                     deadline: float | None = None) -> InvariantSet:
    """Constraints over-approximating every reachable store at each loop
    head, keyed by loop id.  Unreachable heads get the empty list.  Past
    the time.monotonic() `deadline` it raises DeadlineExceeded."""
    heads = _head_states(p, deadline)
    out = InvariantSet()
    for loop in items_in(p.tree):
        if not isinstance(loop, LoopItem):
            continue
        s = heads.get(loop.loop_id)
        cs: list = []
        if s is not None:
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
            # differences first, then sums, each in (a, b) order
            for (a, b, sign), c in sorted(s.pairs.items(), key=lambda f: (f[0][2], f[0])):
                ia, ib = s.intervals.get(a), s.intervals.get(b)
                if ia and ib and not (ia[0] == ia[1] and ib[0] == ib[1]):
                    cs.append(AffineConstraint(((1, a), (sign, b)), "==", c))
        out.by_location[loop.loop_id] = cs
    return out


def instrument(p: GotoProgram, inv: InvariantSet) -> GotoProgram:
    """Insert one ASSUME per annotated loop head, as the first
    instruction of the head (so back edges re-enter through it and every
    unwound copy inherits it)."""
    if not inv.by_location:
        return p

    def conj(cs: list) -> Expr:
        exprs = [constraint_to_expr(c, p.symbols) for c in cs]
        out = exprs[0]
        for e in exprs[1:]:
            out = Binary("&&", out, e, ty=INT)
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
                if inv.by_location.get(item.loop_id):
                    pre.insert(0, Instr(
                        "ASSUME", expr=conj(inv.by_location[item.loop_id]),
                        tag="invariant", loc=item.loc))
                out.append(LoopItem(item.guard, body, pre=pre,
                                    loc=item.loc, loop_id=item.loop_id))
            else:
                out.append(item)
        return out

    return GotoProgram(rebuild(p.tree), p.symbols, p.name, p.file)


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


def synthesize_snapshots(source: str, markers: dict) -> str:
    """Insert a `T v_init = v;` declaration for every #init-marked
    variable.  A local's goes right after the statement that declares
    it; a parameter's or a global's right after the opening brace of the
    function holding the comment.  Each goes on a line that is already
    there, so every later line keeps its number and reported locations
    match the user's source."""
    if not markers:
        return source
    from .frontend import For, VarDecl, parse, walk

    prog = parse(source)
    semicolons = [t.loc for t in lex(source) if t.value == ";"]
    inserts: dict = {}  # (line, col) -> declarations to put after that column
    done: set = set()   # (function, variable)
    for line in sorted(markers):
        homes = [fn for fn in prog.functions if fn.loc.line <= line]
        if not homes:
            raise InvariantError(
                f"invariant comment on line {line} is outside any function")
        fn = homes[-1]
        headers = {id(d) for n in walk(fn.body) if isinstance(n, For)
                   and n.init is not None for d in walk(n.init)}
        for v in markers[line]:
            if (fn.name, v) in done:
                continue
            done.add((fn.name, v))
            decls = [n for n in walk(fn.body) if isinstance(n, VarDecl) and n.name == v]
            above = [d for d in decls if d.loc.line < line]
            outer = [d for d in fn.params + prog.globals if d.name == v]
            if above:
                decl = max(above, key=lambda d: (d.loc.line, d.loc.col))
                if id(decl) in headers:
                    raise InvariantError(
                        f"variable {v} marked #init on line {line} is "
                        f"declared in a for header on line {decl.loc.line}")
                end = next(s for s in semicolons
                           if (s.line, s.col) > (decl.loc.line, decl.loc.col))
                at = (end.line, end.col)
            elif outer:
                decl, at = outer[0], (fn.body.loc.line, fn.body.loc.col)
            elif decls:
                raise InvariantError(
                    f"variable {v} marked #init on line {line} is declared "
                    f"below it, on line {decls[0].loc.line}")
            else:
                raise InvariantError(
                    f"variable {v} marked #init on line {line} is not "
                    f"declared in function {fn.name}")
            inserts.setdefault(at, []).append(f" {decl.decl_ty} {v}_init = {v};")

    lines = source.splitlines()
    # Right to left, so two insertions on one line keep their columns.
    for (line, col), texts in sorted(inserts.items(), reverse=True):
        lines[line - 1] = lines[line - 1][:col] + "".join(texts) + lines[line - 1][col:]
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
