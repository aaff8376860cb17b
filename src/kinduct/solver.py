"""Bit-level decision procedure: Tseitin bitblasting plus a small CDCL solver.

Words become vectors of propositional literals, least significant bit
first.  Gates are cached per expression node so shared subterms blast
once.  Propositional variable 1 is reserved as the constant TRUE, which
lets constant bits be plain literals instead of special cases.

The gates are exact Tseitin definitions: 2-input AND (3 clauses), XOR
and if-then-else (4), majority (6), 3-input parity (8) and n-ary AND/OR
(n+1).  A full adder is one parity and one majority gate (Een &
Sorensson, "Translating Pseudo-Boolean Constraints into SAT", JSAT 2006).
Equality and non-zero tests are one n-ary gate.  A comparison reads only
the carry out of a + ~b + 1, so it builds the carry chain alone, one
majority gate per bit: the sum bits of a subtractor would be dead
gates, outside the goal's cone but still loaded and propagated by the
solver.  Each gate first folds constant, repeated and complementary
inputs, then looks itself up in its cache.

Only names without a definition get fresh variables.  A defined name is
bound to the literals its right-hand side blasts to, so a constant
initialiser and everything computed from it fold into constant bits at
blast time, and copying or negating a word adds no clause.  A symbol bit
may therefore be any literal, negated or constant; `bit_map` records it
and `decode_model` reads it.  The expression walk keeps an explicit
stack, so deep unwindings do not hit Python's recursion limit.

Queries are blasted and solved in a `Session`: one blaster and one CDCL
engine that live across the queries of a phase family (Een & Sorensson,
"Temporal induction by incremental SAT solving", BMC 2003).  The gate
caches persist and a free name (draw, havoc, read-before-write version)
keeps its bits in every query, so a copy shared with an earlier query
blasts to the gates that already exist and adds no clause.  The goal is
not a clause but a literal, `CnfInstance.goal`, passed to the search as
its one assumption, as in MiniSat's solve(assumptions) (Een & Sorensson,
"An Extensible SAT-solver", SAT 2003).  This is sound because every
session clause is the Tseitin definition of a fresh gate variable: for
any values of the free bits the clauses have exactly one satisfying
extension, so each query is equisatisfiable with "clauses and goal".
An UNSAT answer keeps -goal at level 0, so asking the same goal again
costs no search.

The SAT core is a conventional CDCL: two watched literals, first-UIP
conflict analysis, VSIDS-style activity, Luby restarts, phase saving.
No preprocessing.  A conflict budget turns into a BUDGET outcome so the
caller can report unknown instead of looping forever.  Level 0 holds
what the clauses imply, and level 1 the goal and what it implies;
restarts go back to level 1.  Conflict analysis folds every level-1
literal into one -goal and does not bump it, so a learned clause does
not carry the goal's whole cone, and one query makes exactly the
decisions and conflicts the goal made as a unit clause.  Learned
clauses stay in the engine for later queries.

Its state lives in flat lists, as in MiniSat.  Per-literal data
(values, watch lists) has 2n+1 slots, and a literal is its own index:
slot `lit` for positive literals, and Python's negative indexing puts
-n..-1 in the upper half.  So `val[lit]` and `watches[lit]` need no
translation.  Growing by m variables inserts 2m slots after slot n, so
the negative slots stay at the end.

The engine adopts the clause lists it loads, as it loads them: a
session's clauses are stored once, and the engine reorders their
literals.  `solve` without a session hands the engine copies, so the
caller's CnfInstance is left intact.  A 2- or 3-literal clause of
distinct, non-complementary, unassigned literals (nearly all
bit-blaster output) is stored as is.  Any other clause is deduplicated,
dropped if it is a tautology, and stripped of literals false at level
0; a unit is enqueued but not propagated until search starts.  Literals
must be nonzero with magnitude at most num_vars.

The VSIDS order is a lazy binary heap of (-activity, var) entries.
`pushed[v]` is the activity in v's newest entry.  A variable is pushed
when it is bumped while free, or freed by backtracking after a bump or
after pick_branch popped its newest entry; otherwise its entry is still
there.  So every free variable has an entry keyed by its current
activity, the heap holds no duplicates, and the pick is always the free
variable of highest activity, ties to the lowest index.  When activities
are rescaled past 1e100 the heap is rebuilt from the scaled values.
"""

from __future__ import annotations

import gc
import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .frontend import (
    Binary, Cast, Cond, Const, Expr, Nondet, Unary, Var,
)
from .transform import DeadlineExceeded
from .vcgen import VcFormula

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET = "BUDGET"

TRUE_LIT = 1
FALSE_LIT = -1

DEFAULT_CONFLICT_LIMIT = 10 ** 6


class SolverError(Exception):
    pass


@dataclass
class CnfInstance:
    num_vars: int = 1
    clauses: list = field(default_factory=list)
    bit_map: dict = field(default_factory=dict)   # (symbol, bit) -> literal
    symbols: dict = field(default_factory=dict)   # symbol -> IntType
    goal: int | None = None   # the literal the query assumes, if any


@dataclass
class SolverOutcome:
    status: str
    model: dict | None = None   # symbol -> bit-exact integer
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0


# ---------------------------------------------------------------------------
# Bitblasting


class _Blaster:
    def __init__(self):
        self.num_vars = 1  # var 1 is constant TRUE
        self.clauses = [[TRUE_LIT]]
        self.cache = {}      # id(expr) -> bit vector
        self.and_cache = {}  # sorted input literals -> output literal
        self.xor_cache = {}
        self.ite_cache = {}
        self.maj_cache = {}
        self.parity_cache = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits):
        self.clauses.append(list(lits))

    # -- gate primitives; inputs and outputs are literals ------------------

    def g_and(self, a: int, b: int) -> int:
        if a == FALSE_LIT or b == FALSE_LIT or a == -b:
            return FALSE_LIT
        if a == TRUE_LIT or a == b:
            return b
        if b == TRUE_LIT:
            return a
        key = (a, b) if a < b else (b, a)
        out = self.and_cache.get(key)
        if out is None:
            out = self.new_var()
            self.add(-a, -b, out)
            self.add(a, -out)
            self.add(b, -out)
            self.and_cache[key] = out
        return out

    def g_or(self, a: int, b: int) -> int:
        return -self.g_and(-a, -b)

    def g_xor(self, a: int, b: int) -> int:
        if a == FALSE_LIT:
            return b
        if b == FALSE_LIT:
            return a
        if a == TRUE_LIT:
            return -b
        if b == TRUE_LIT:
            return -a
        if a == b:
            return FALSE_LIT
        if a == -b:
            return TRUE_LIT
        key = (a, b) if abs(a) < abs(b) else (b, a)
        out = self.xor_cache.get(key)
        if out is None:
            out = self.new_var()
            self.add(-a, -b, -out)
            self.add(a, b, -out)
            self.add(-a, b, out)
            self.add(a, -b, out)
            self.xor_cache[key] = out
        return out

    def g_ite(self, c: int, a: int, b: int) -> int:
        if c == TRUE_LIT:
            return a
        if c == FALSE_LIT:
            return b
        if a == b:
            return a
        if a == TRUE_LIT and b == FALSE_LIT:
            return c
        if a == FALSE_LIT and b == TRUE_LIT:
            return -c
        key = (c, a, b)
        out = self.ite_cache.get(key)
        if out is None:
            out = self.new_var()
            self.add(-c, -a, out)
            self.add(-c, a, -out)
            self.add(c, -b, out)
            self.add(c, b, -out)
            self.ite_cache[key] = out
        return out

    def g_and_n(self, lits) -> int:
        """AND of any number of literals: one gate of n+1 clauses.  TRUE
        and repeated inputs drop out; FALSE or a complementary pair gives
        FALSE; zero, one or two inputs left need no new gate."""
        ins = set()
        for x in lits:
            if x == FALSE_LIT or -x in ins:
                return FALSE_LIT
            if x != TRUE_LIT:
                ins.add(x)
        key = tuple(sorted(ins))
        if len(key) == 2:
            return self.g_and(*key)
        if len(key) < 2:
            return key[0] if key else TRUE_LIT
        out = self.and_cache.get(key)
        if out is None:
            out = self.new_var()
            self.add(out, *[-x for x in key])
            for x in key:
                self.add(x, -out)
            self.and_cache[key] = out
        return out

    def g_or_n(self, lits) -> int:
        return -self.g_and_n([-x for x in lits])

    def g_maj(self, a: int, b: int, c: int) -> int:
        """At least two of a, b, c: one gate of 6 clauses."""
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if x == TRUE_LIT:
                return self.g_or(y, z)
            if x == FALSE_LIT:
                return self.g_and(y, z)
            if y == z:
                return y
            if y == -z:
                return x
        key = tuple(sorted((a, b, c)))
        out = self.maj_cache.get(key)
        if out is None:
            out = self.new_var()
            self.add(-a, -b, out)
            self.add(-a, -c, out)
            self.add(-b, -c, out)
            self.add(a, b, -out)
            self.add(a, c, -out)
            self.add(b, c, -out)
            self.maj_cache[key] = out
        return out

    def g_parity(self, a: int, b: int, c: int) -> int:
        """a XOR b XOR c: one gate of 8 clauses, or two XORs when an input
        is constant or two inputs share a variable (they then fold)."""
        va, vb, vc = abs(a), abs(b), abs(c)
        if (va == TRUE_LIT or vb == TRUE_LIT or vc == TRUE_LIT
                or va == vb or va == vc or vb == vc):
            return self.g_xor(self.g_xor(a, b), c)
        key = tuple(sorted((a, b, c), key=abs))
        out = self.parity_cache.get(key)
        if out is None:
            out = self.new_var()
            # One clause per input row: the row forces out to its parity.
            for sa in (1, -1):
                for sb in (1, -1):
                    for sc in (1, -1):
                        odd = (sa < 0) ^ (sb < 0) ^ (sc < 0)
                        self.add(sa * a, sb * b, sc * c, out if odd else -out)
            self.parity_cache[key] = out
        return out

    # -- vector helpers -----------------------------------------------------

    def const_bits(self, value: int, width: int) -> list:
        value &= (1 << width) - 1
        return [TRUE_LIT if (value >> i) & 1 else FALSE_LIT
                for i in range(width)]

    def full_add(self, a: int, b: int, cin: int):
        s = self.g_parity(a, b, cin)
        cout = self.g_maj(a, b, cin)
        return s, cout

    def v_add(self, a: list, b: list, cin: int = FALSE_LIT):
        out = []
        carry = cin
        for x, y in zip(a, b):
            s, carry = self.full_add(x, y, carry)
            out.append(s)
        return out, carry

    def v_neg(self, a: list) -> list:
        out, _ = self.v_add([-x for x in a], self.const_bits(1, len(a)))
        return out

    def v_sub(self, a: list, b: list):
        # a + ~b + 1; carry out == 1 iff no borrow (a >= b unsigned)
        return self.v_add(a, [-x for x in b], TRUE_LIT)

    def v_ult(self, a: list, b: list) -> int:
        # The carry chain of a + ~b + 1 alone: carry out == 1 iff a >= b.
        carry = TRUE_LIT
        for x, y in zip(a, b):
            carry = self.g_maj(x, -y, carry)
        return -carry

    def v_lt(self, a: list, b: list, signed: bool) -> int:
        if not signed:
            return self.v_ult(a, b)
        # Flip sign bits to map signed order onto unsigned order.
        a2 = a[:-1] + [-a[-1]]
        b2 = b[:-1] + [-b[-1]]
        return self.v_ult(a2, b2)

    def v_eq(self, a: list, b: list) -> int:
        return self.g_and_n([-self.g_xor(x, y) for x, y in zip(a, b)])

    def v_ite(self, c: int, a: list, b: list) -> list:
        return [self.g_ite(c, x, y) for x, y in zip(a, b)]

    def v_nonzero(self, a: list) -> int:
        return self.g_or_n(a)

    def v_mul(self, a: list, b: list) -> list:
        width = len(a)
        acc = self.const_bits(0, width)
        for i, bi in enumerate(b):
            partial = [FALSE_LIT] * i + [self.g_and(x, bi) for x in a[:width - i]]
            acc, _ = self.v_add(acc, partial)
        return acc

    def v_shift(self, a: list, amt: list, kind: str) -> list:
        # Barrel shifter; the effective amount is amt mod width.
        width = len(a)
        stages = width.bit_length() - 1  # width is a power of two
        fill = a[-1] if kind == "asr" else FALSE_LIT
        cur = a
        for s in range(stages):
            k = 1 << s
            bit = amt[s]
            if kind == "shl":
                shifted = [FALSE_LIT] * k + cur[:width - k]
            else:
                shifted = cur[k:] + [fill] * k
            cur = self.v_ite(bit, shifted, cur)
        return cur

    def v_udivmod(self, a: list, b: list):
        # Restoring long division, most significant bit first.
        width = len(a)
        rem = self.const_bits(0, width)
        quo = [FALSE_LIT] * width
        for i in range(width - 1, -1, -1):
            rem = [a[i]] + rem[:-1]
            diff, carry = self.v_sub(rem, b)
            quo[i] = carry  # carry == 1 iff rem >= b
            rem = self.v_ite(carry, diff, rem)
        return quo, rem

    def v_divmod(self, a: list, b: list, signed: bool):
        width = len(a)
        if signed:
            sa, sb = a[-1], b[-1]
            abs_a = self.v_ite(sa, self.v_neg(a), a)
            abs_b = self.v_ite(sb, self.v_neg(b), b)
            q, r = self.v_udivmod(abs_a, abs_b)
            qneg = self.g_xor(sa, sb)
            q = self.v_ite(qneg, self.v_neg(q), q)
            r = self.v_ite(sa, self.v_neg(r), r)
        else:
            q, r = self.v_udivmod(a, b)
        # Division by zero yields zero, matching the evaluator; the
        # surrounding ite from the SSA builder shadows it anyway.
        zero = -self.v_nonzero(b)
        zeros = self.const_bits(0, width)
        return self.v_ite(zero, zeros, q), self.v_ite(zero, zeros, r)

    def v_extend(self, a: list, width: int, signed: bool) -> list:
        if width <= len(a):
            return a[:width]
        fill = a[-1] if signed else FALSE_LIT
        return a + [fill] * (width - len(a))

    def bool_word(self, bit: int, width: int) -> list:
        return [bit] + [FALSE_LIT] * (width - 1)

    # -- expression walk ----------------------------------------------------

    def blast(self, root: Expr, symbol_bits: dict) -> list:
        """The bit vector of `root`.  The walk is an explicit post-order
        stack, not recursion: guard and assume-prefix chains grow with the
        unwinding depth and would pass Python's recursion limit.  Operands
        are blasted left to right, each node once (cached by identity)."""
        cache = self.cache
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in cache:
                stack.pop()
                continue
            operands = _operands(e)
            ready = True
            for o in reversed(operands):
                if id(o) not in cache:
                    stack.append(o)
                    ready = False
            if ready:
                stack.pop()
                bits = self._node(e, [cache[id(o)] for o in operands],
                                  symbol_bits)
                assert len(bits) == e.ty.width
                cache[id(e)] = bits
        return cache[id(root)]

    def _node(self, e: Expr, args: list, symbol_bits: dict) -> list:
        """Gates for one node, given the bit vectors of its operands."""
        ty = e.ty
        if isinstance(e, Const):
            return self.const_bits(e.value, ty.width)
        if isinstance(e, Var):
            return symbol_bits[e.rid or e.name]
        if isinstance(e, Nondet):
            raise SolverError("formula contains an unsubstituted nondet")
        if isinstance(e, Unary):
            a = args[0]
            if e.op == "-":
                return self.v_neg(a)
            if e.op == "~":
                return [-x for x in a]
            if e.op == "!":
                return self.bool_word(-self.v_nonzero(a), ty.width)
            raise SolverError(f"unknown unary {e.op}")
        if isinstance(e, Binary):
            return self._binary(e, args[0], args[1])
        if isinstance(e, Cast):
            return self.v_extend(args[0], ty.width, e.operand.ty.signed)
        if isinstance(e, Cond):
            return self.v_ite(self.v_nonzero(args[0]), args[1], args[2])
        raise SolverError(f"cannot blast {e!r}")

    def _binary(self, e: Binary, a: list, b: list) -> list:
        op = e.op
        width = e.ty.width
        if op in ("&&", "||"):
            a, b = self.v_nonzero(a), self.v_nonzero(b)
            bit = self.g_and(a, b) if op == "&&" else self.g_or(a, b)
            return self.bool_word(bit, width)
        signed = e.left.ty.signed
        if op == "+":
            out, _ = self.v_add(a, b)
            return out
        if op == "-":
            out, _ = self.v_sub(a, b)
            return out
        if op == "*":
            return self.v_mul(a, b)
        if op == "/":
            return self.v_divmod(a, b, signed)[0]
        if op == "%":
            return self.v_divmod(a, b, signed)[1]
        if op == "&":
            return [self.g_and(x, y) for x, y in zip(a, b)]
        if op == "|":
            return [self.g_or(x, y) for x, y in zip(a, b)]
        if op == "^":
            return [self.g_xor(x, y) for x, y in zip(a, b)]
        if op == "<<":
            return self.v_shift(a, b, "shl")
        if op == ">>":
            return self.v_shift(a, b, "asr" if signed else "lsr")
        if op == "==":
            return self.bool_word(self.v_eq(a, b), width)
        if op == "!=":
            return self.bool_word(-self.v_eq(a, b), width)
        if op == "<":
            return self.bool_word(self.v_lt(a, b, signed), width)
        if op == ">":
            return self.bool_word(self.v_lt(b, a, signed), width)
        if op == "<=":
            return self.bool_word(-self.v_lt(b, a, signed), width)
        if op == ">=":
            return self.bool_word(-self.v_lt(a, b, signed), width)
        raise SolverError(f"unknown binary {op}")


def _operands(e: Expr) -> tuple:
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, (Unary, Cast)):
        return (e.operand,)
    if isinstance(e, Cond):
        return (e.cond, e.then, e.els)
    return ()


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector.  Building clause lists
    allocates a list or tuple per clause or gate and makes no reference
    cycles; with the collector running it would rescan the growing heap
    every few hundred allocations."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Session:
    """One bit-blaster and one CDCL engine that live across a family of
    queries.  A free name keeps its bits in every query of the session,
    so the copies a query shares with earlier ones blast to the gates
    that already exist and add no clause.  `loaded` counts the blaster's
    clauses the engine has taken."""

    def __init__(self):
        self.blaster = _Blaster()
        self.free = {}   # free name -> its bits
        self.engine = _Cdcl()
        self.loaded = 0


DEFS_PER_CHECK = 256


def bitblast(f: VcFormula, session: Session | None = None,
             deadline: float | None = None) -> CnfInstance:
    """Reduce the word-level query to CNF over per-bit variables.

    Only names without a definition (draws, carriers, havocked versions)
    get fresh variables, and only the first time the session meets them.
    Each definition, in order, binds its name to the literals its
    right-hand side blasts to, so `bit_map` sends a (symbol, bit) to any
    literal: a variable, a negated one, or the constant TRUE_LIT /
    FALSE_LIT.  There is no root clause: the goal is returned as a
    literal, and `clauses` lists every clause of the session so far, each
    the definition of a gate.  Without a session the query gets a fresh
    one.  Past `deadline` (checked every DEFS_PER_CHECK
    definitions) it raises DeadlineExceeded.
    """
    for name, ty in f.symbols.items():
        if ty.width > 64:
            raise SolverError(f"width {ty.width} of {name} not supported")
    session = session or Session()
    bl = session.blaster
    free = session.free
    defined = {name for name, _ in f.definitions}
    symbol_bits = {}
    # The node cache is keyed by id(): it must not outlive the formula,
    # whose dead nodes' ids get reused.
    try:
        with _gc_paused():
            for name, ty in f.symbols.items():
                if name not in defined:
                    bits = free.get(name)
                    if bits is None:
                        bits = free[name] = [bl.new_var() for _ in range(ty.width)]
                    symbol_bits[name] = bits
            for i, (name, expr) in enumerate(f.definitions):
                if i % DEFS_PER_CHECK == 0 and deadline is not None \
                        and time.monotonic() > deadline:
                    raise DeadlineExceeded
                symbol_bits[name] = bl.blast(expr, symbol_bits)
            goal = bl.v_nonzero(bl.blast(f.goal, symbol_bits))
            bit_map = {(name, i): lit for name in f.symbols
                       for i, lit in enumerate(symbol_bits[name])}
    finally:
        bl.cache.clear()
    return CnfInstance(bl.num_vars, list(bl.clauses), bit_map,
                       dict(f.symbols), goal)


def decode_model(val: list, cnf: CnfInstance) -> dict:
    """Turn a solver's literal-indexed values (1 true, -1 false) into
    per-symbol integers."""
    model = {}
    for name, ty in cnf.symbols.items():
        value = 0
        for i in range(ty.width):
            if val[cnf.bit_map[(name, i)]] == 1:
                value |= 1 << i
        model[name] = ty.wrap(value)
    return model


# ---------------------------------------------------------------------------
# CDCL


def _luby(i: int) -> int:
    """1-based Luby sequence: 1 1 2 1 1 2 4 1 1 2 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class _Cdcl:
    RESTART_UNIT = 100
    VAR_DECAY = 0.95
    RESCALE_AT = 1e100

    def __init__(self, num_vars: int = 0, clauses=()):
        self.n = 0
        self.clauses = []          # each: a list of literals, adopted
        # Literal-indexed: slot `lit` for lit in -n..n (negative literals
        # index from the end).  val[lit] is 1 true, -1 false, 0 free.
        self.val = [0]
        self.watches = [[]]
        self.level = [0]
        self.reason = [None]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.activity = [0.0]
        self.var_inc = 1.0
        self.saved_phase = [False]
        self.order = []            # a heap of (-activity, var)
        # pushed[v]: the activity in v's newest heap entry, or -1.0 once
        # pick_branch has popped that entry.
        self.pushed = [0.0]
        self.seen = [False]
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.ok = True
        self.add(num_vars, clauses)

    def add(self, num_vars: int, clauses):
        """Grow to num_vars variables and load `clauses` at level 0.  The
        engine adopts the clause lists and reorders their literals."""
        if self.trail_lim:
            self.backtrack(0)
        n = self.n
        extra = num_vars - n
        with _gc_paused():
            if extra > 0:
                # New positive slots go after n, new negative ones right
                # before the old negative ones, which stay at the end.
                self.val[n + 1:n + 1] = [0] * (2 * extra)
                self.watches[n + 1:n + 1] = [[] for _ in range(2 * extra)]
                self.level += [0] * extra
                self.reason += [None] * extra
                self.activity += [0.0] * extra
                self.saved_phase += [False] * extra
                self.pushed += [0.0] * extra
                self.seen += [False] * extra
                # Keyed 0.0 and numbered above every entry: still a heap.
                self.order += [(0.0, v) for v in range(n + 1, num_vars + 1)]
                self.n = num_vars
            if self.ok:
                self.ok = self._load(clauses)

    def _load(self, clauses) -> bool:
        """Add the input clauses; False if one is empty at level 0."""
        val = self.val
        watches = self.watches
        store = self.clauses
        ci = len(store)
        for c in clauses:
            # Fast path: distinct, non-complementary, unassigned literals
            # need no dedupe or filtering (most bit-blaster clauses).
            size = len(c)
            if size == 3:
                a, b, d = c
                if (a != b and a != -b and a != d and a != -d
                        and b != d and b != -d
                        and not (val[a] or val[b] or val[d])):
                    watches[a].append(ci)
                    watches[b].append(ci)
                    store.append(c)
                    ci += 1
                    continue
            elif size == 2:
                a, b = c
                if a != b and a != -b and not (val[a] or val[b]):
                    watches[a].append(ci)
                    watches[b].append(ci)
                    store.append(c)
                    ci += 1
                    continue
            if not self.add_clause(c):
                return False
            ci = len(store)
        return True

    def add_clause(self, lits: list) -> bool:
        """Add one clause at level 0: drop duplicates and literals false
        at level 0, skip tautologies, enqueue (not propagate) a unit."""
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        val = self.val
        out = [l for l in out if val[l] != -1]
        if not out:
            return False
        if len(out) == 1:
            if not val[out[0]]:
                self.enqueue(out[0], None)
            return True
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(ci)
        self.watches[out[1]].append(ci)
        return True

    def enqueue(self, lit: int, reason):
        self.val[lit] = 1
        self.val[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def propagate(self):
        """Unit-propagate the trail from qhead; a conflict clause index
        or None.  Watchers are visited in list order and a moved watch is
        swap-removed, so the trail order is a function of the clause
        order alone."""
        trail = self.trail
        val = self.val
        watches = self.watches
        clauses = self.clauses
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        start = qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            i = 0
            end = len(watchers)
            while i < end:
                ci = watchers[i]
                cl = clauses[ci]
                first = cl[0]
                if first == false_lit:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = false_lit
                # cl[1] is the false literal now
                first_val = val[first]
                if first_val == 1:
                    i += 1
                    continue
                j = 2
                size = len(cl)
                while j < size:
                    q = cl[j]
                    if val[q] != -1:
                        cl[1] = q
                        cl[j] = false_lit
                        watches[q].append(ci)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        break
                    j += 1
                else:
                    if first_val == -1:
                        conflict = ci
                        break
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = ci
                    trail.append(first)
                    i += 1
            if conflict is not None:
                break
        self.qhead = qhead
        self.propagations += qhead - start
        return conflict

    def _rescale(self):
        """Scale activities down and rebuild the heap from them, so no
        entry keyed by a pre-rescale activity outranks a fresh one."""
        activity = self.activity
        for i in range(1, self.n + 1):
            activity[i] *= 1e-100
        self.var_inc *= 1e-100
        val = self.val
        pushed = self.pushed
        order = self.order
        order.clear()
        for v in range(1, self.n + 1):
            if val[v]:
                pushed[v] = -1.0
            else:
                pushed[v] = activity[v]
                order.append((-activity[v], v))
        heapq.heapify(order)

    def analyze(self, conflict_ci: int, goal: int | None):
        # First-UIP: walk the implication graph backwards along the trail.
        # A propagated literal sits at index 0 of its reason clause, so
        # reason clauses are scanned from index 1.  Every literal met is
        # false, so bumping a variable never pushes a heap entry here;
        # backtrack pushes it on unassignment.  Level 1 holds the goal and
        # what it implies, so its literals fold into one -goal, appended
        # last and not bumped; with no goal they are implied by the
        # clauses alone and drop out, as level 0 does.
        clauses = self.clauses
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        seen = self.seen
        inc = self.var_inc
        learned = [0]
        counter = 0
        folded = False
        ci = conflict_ci
        first = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            cl = clauses[ci]
            for j in range(first, len(cl)):
                q = cl[j]
                v = q if q > 0 else -q
                if not seen[v]:
                    lv = level[v]
                    if lv > 1:
                        seen[v] = True
                        activity[v] += inc
                        if activity[v] > self.RESCALE_AT:
                            self._rescale()
                            inc = self.var_inc
                        if lv == cur_level:
                            counter += 1
                        else:
                            learned.append(q)
                    elif lv == 1:
                        folded = True
            first = 1
            lit = trail[idx]
            while not seen[lit if lit > 0 else -lit]:
                idx -= 1
                lit = trail[idx]
            v = lit if lit > 0 else -lit
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            ci = reason[v]
        learned[0] = -lit
        if folded and goal is not None:
            learned.append(-goal)
        back = 1
        mi = 1
        for j in range(1, len(learned)):
            q = learned[j]
            v = q if q > 0 else -q
            seen[v] = False
            if level[v] > back:
                back = level[v]
                mi = j
        if len(learned) > 2:
            learned[1], learned[mi] = learned[mi], learned[1]
        return learned, back

    def backtrack(self, level: int):
        trail_lim = self.trail_lim
        trail = self.trail
        if len(trail_lim) > level:
            limit = trail_lim[level]
            del trail_lim[level:]
            val = self.val
            saved_phase = self.saved_phase
            activity = self.activity
            pushed = self.pushed
            order = self.order
            for i in range(len(trail) - 1, limit - 1, -1):
                lit = trail[i]
                val[lit] = 0
                val[-lit] = 0
                if lit > 0:
                    v = lit
                    saved_phase[v] = True
                else:
                    v = -lit
                    saved_phase[v] = False
                a = activity[v]
                if pushed[v] != a:
                    pushed[v] = a
                    heapq.heappush(order, (-a, v))
            del trail[limit:]
        self.qhead = len(trail)

    def pick_branch(self):
        # Lazy heap: entries for assigned variables are popped and
        # dropped; the module docstring says why the top free entry is
        # the free variable of highest activity.
        order = self.order
        val = self.val
        pushed = self.pushed
        while order:
            key, v = order[0]
            if val[v]:
                heapq.heappop(order)
                if pushed[v] == -key:
                    pushed[v] = -1.0
                continue
            return v if self.saved_phase[v] else -v
        return 0

    def solve(self, conflict_limit: int, deadline: float | None = None,
              goal: int | None = None) -> str:
        """Search for a model of the clauses in which `goal` holds.  Level
        0 holds what the clauses imply; level 1 opens with the goal as an
        assumption, and restarts go back to it.  At most conflict_limit
        conflicts are spent on this call."""
        if self.trail_lim:
            self.backtrack(0)
        if not self.ok:
            return UNSAT
        limit = self.conflicts + conflict_limit
        restart_idx = 1
        budget_next = _luby(restart_idx) * self.RESTART_UNIT
        since_restart = 0
        ticks = 0
        while True:
            ticks += 1
            if deadline is not None and ticks % 512 == 0 \
                    and time.monotonic() > deadline:
                return BUDGET
            conflict = self.propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if self.conflicts >= limit:
                    return BUDGET
                if len(self.trail_lim) <= 1:
                    self._refute(goal)
                    return UNSAT
                learned, back = self.analyze(conflict, goal)
                self.backtrack(back)
                if len(learned) == 1:
                    self.enqueue(learned[0], None)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(ci)
                    self.watches[learned[1]].append(ci)
                    self.enqueue(learned[0], ci)
                self.var_inc /= self.VAR_DECAY
                continue
            if not self.trail_lim:
                if goal is not None and self.val[goal] == -1:
                    return UNSAT
                self.trail_lim.append(len(self.trail))
                if goal is not None and not self.val[goal]:
                    self.enqueue(goal, None)
                continue
            if since_restart >= budget_next:
                restart_idx += 1
                budget_next = _luby(restart_idx) * self.RESTART_UNIT
                since_restart = 0
                self.backtrack(1)
                continue
            lit = self.pick_branch()
            if lit == 0:
                return SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self.enqueue(lit, None)

    def _refute(self, goal: int | None):
        """A conflict at level 1 or below: the clauses imply -goal.  Keep
        it at level 0, so asking the same goal again costs nothing; with
        no goal (or a goal level 0 already made true) the clauses alone
        are contradictory."""
        if not self.trail_lim:
            self.ok = False
            return
        self.backtrack(0)
        if goal is None or self.val[goal] == 1:
            self.ok = False
            return
        self.enqueue(-goal, None)
        if self.propagate() is not None:
            self.ok = False


def solve(cnf: CnfInstance,
          conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
          deadline: float | None = None,
          session: Session | None = None) -> SolverOutcome:
    """Decide a CNF instance under its goal; decode the model through
    bit_map when SAT.  Counts and the conflict limit are this query's.

    `deadline` is a time.monotonic() timestamp; running past it yields
    the same BUDGET outcome as exceeding the conflict limit.

    With the `session` the instance was blasted in, the session's engine
    loads only the clauses it has not seen and keeps what it learned.
    Without one, a fresh engine gets copies, and `cnf` is left intact.
    """
    if session is None:
        engine = _Cdcl(cnf.num_vars, [list(c) for c in cnf.clauses])
    else:
        engine = session.engine
        engine.add(cnf.num_vars, cnf.clauses[session.loaded:])
        session.loaded = len(cnf.clauses)
    before = (engine.decisions, engine.conflicts, engine.propagations)
    status = engine.solve(conflict_limit, deadline, cnf.goal)
    outcome = SolverOutcome(status, None, engine.decisions - before[0],
                            engine.conflicts - before[1],
                            engine.propagations - before[2])
    if status == SAT:
        outcome.model = decode_model(engine.val, cnf)
    return outcome


def emit_dimacs(cnf: CnfInstance) -> str:
    """DIMACS text, preceded by one `c <literal> = <symbol>[<bit>]` line
    per symbol bit, ordered by variable.  The goal is written as a unit
    clause, so the file is the query on its own."""
    clauses = cnf.clauses if cnf.goal is None else cnf.clauses + [[cnf.goal]]
    lines = [f"c {lit} = {name}[{bit}]" for (name, bit), lit in
             sorted(cnf.bit_map.items(), key=lambda kv: abs(kv[1]))]
    lines.append(f"p cnf {cnf.num_vars} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SMT-LIB emission (cross-check channel)


def _bv(value: int, width: int) -> str:
    return f"(_ bv{value & ((1 << width) - 1)} {width})"


def _nonzero(text: str, width: int) -> str:
    return f"(distinct {text} {_bv(0, width)})"


def _smt(root: Expr) -> str:
    """The term for `root`, each shared subterm written out in full.  The
    walk keeps an explicit stack, as `_Blaster.blast` does: guard and
    assume-prefix chains grow with the unwinding depth.  `done` holds the
    rendered operands of the nodes still open, left to right."""
    done = []
    stack = [(root, False)]
    while stack:
        e, ready = stack.pop()
        operands = _operands(e)
        if ready:
            args = done[len(done) - len(operands):]
            del done[len(done) - len(operands):]
            done.append(_smt_node(e, args))
        else:
            stack.append((e, True))
            stack.extend((o, False) for o in reversed(operands))
    return done[0]


def _smt_node(e: Expr, args: list) -> str:
    """The term for one node, given the terms of its operands."""
    ty = e.ty
    if isinstance(e, Const):
        return _bv(e.value, ty.width)
    if isinstance(e, Var):
        return e.rid or e.name
    if isinstance(e, Unary):
        a = args[0]
        if e.op == "-":
            return f"(bvneg {a})"
        if e.op == "~":
            return f"(bvnot {a})"
        if e.op == "!":
            return (f"(ite (= {a} {_bv(0, e.operand.ty.width)}) "
                    f"{_bv(1, ty.width)} {_bv(0, ty.width)})")
        raise SolverError(f"unknown unary {e.op}")
    if isinstance(e, Binary):
        op = e.op
        a, b = args
        if op in ("&&", "||"):
            word = "and" if op == "&&" else "or"
            return (f"(ite ({word} {_nonzero(a, e.left.ty.width)} "
                    f"{_nonzero(b, e.right.ty.width)}) "
                    f"{_bv(1, ty.width)} {_bv(0, ty.width)})")
        signed = e.left.ty.signed
        width = e.left.ty.width
        simple = {"+": "bvadd", "-": "bvsub", "*": "bvmul",
                  "&": "bvand", "|": "bvor", "^": "bvxor"}
        if op in simple:
            return f"({simple[op]} {a} {b})"
        if op in ("/", "%"):
            inner = {("/", True): "bvsdiv", ("/", False): "bvudiv",
                     ("%", True): "bvsrem", ("%", False): "bvurem"}[(op, signed)]
            # Division by zero is a zero word here; the SSA ite shadows it.
            return (f"(ite (= {b} {_bv(0, width)}) {_bv(0, width)} "
                    f"({inner} {a} {b}))")
        if op in ("<<", ">>"):
            amt = f"(bvand {b} {_bv(width - 1, width)})"
            inner = "bvshl" if op == "<<" else ("bvashr" if signed else "bvlshr")
            return f"({inner} {a} {amt})"
        cmps = {"==": "=", "!=": "distinct",
                "<": "bvslt" if signed else "bvult",
                ">": "bvsgt" if signed else "bvugt",
                "<=": "bvsle" if signed else "bvule",
                ">=": "bvsge" if signed else "bvuge"}
        if op in cmps:
            return (f"(ite ({cmps[op]} {a} {b}) "
                    f"{_bv(1, ty.width)} {_bv(0, ty.width)})")
        raise SolverError(f"unknown binary {op}")
    if isinstance(e, Cast):
        src = e.operand.ty
        a = args[0]
        if ty.width == src.width:
            return a
        if ty.width < src.width:
            return f"((_ extract {ty.width - 1} 0) {a})"
        ext = "sign_extend" if src.signed else "zero_extend"
        return f"((_ {ext} {ty.width - src.width}) {a})"
    if isinstance(e, Cond):
        c, a, b = args
        return f"(ite {_nonzero(c, e.cond.ty.width)} {a} {b})"
    raise SolverError(f"cannot emit {e!r}")


def emit_smtlib(f: VcFormula) -> str:
    """Render the query as a QF_BV script for external cross-checking:
    the free names declared, each definition a `define-fun`, in order,
    then the goal asserted."""
    lines = ["(set-logic QF_BV)"]
    defined = {name for name, _ in f.definitions}
    for name in sorted(f.symbols.keys() - defined):
        lines.append(f"(declare-const {name} (_ BitVec {f.symbols[name].width}))")
    for name, expr in f.definitions:
        lines.append(f"(define-fun {name} () (_ BitVec {f.symbols[name].width}) "
                     f"{_smt(expr)})")
    lines.append(f"(assert {_nonzero(_smt(f.goal), f.goal.ty.width)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
