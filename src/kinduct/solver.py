"""Bit-level decision procedure: Tseitin bitblasting plus a small CDCL solver.

Words become vectors of propositional literals, least significant bit
first.  Gates are cached per expression node so shared subterms blast
once.  Propositional variable 1 is reserved as the constant TRUE, which
lets constant bits be plain literals instead of special cases.

The SAT core is a conventional CDCL: two watched literals, first-UIP
conflict analysis, VSIDS-style activity, Luby restarts, phase saving.
No preprocessing.  A conflict budget turns into a BUDGET outcome so the
caller can report unknown instead of looping forever.

Its state lives in flat lists, as in MiniSat (Een & Sorensson, "An
Extensible SAT-solver", SAT 2003).  Per-literal data (values, watch
lists) has 2n+1 slots, and a literal is its own index: slot `lit` for
positive literals, and Python's negative indexing puts -n..-1 in the
upper half.  So `val[lit]` and `watches[lit]` need no translation.

Loading copies the input clauses, so the caller's CnfInstance is never
changed.  A 2- or 3-literal clause of distinct, non-complementary,
unassigned literals (nearly all bit-blaster output) is stored as is.
Any other clause is deduplicated, dropped if it is a tautology, and
stripped of literals false at level 0; a unit is enqueued but not
propagated until search starts.  Literals must be nonzero with magnitude
at most num_vars.

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
from dataclasses import dataclass, field

from .frontend import (
    Binary, Cast, Cond, Const, Expr, IntType, Nondet, Unary, Var,
)
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
    bit_map: dict = field(default_factory=dict)   # (symbol, bit) -> var
    symbols: dict = field(default_factory=dict)   # symbol -> IntType


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
        self.and_cache = {}  # (a, b) -> output literal
        self.or_cache = {}
        self.xor_cache = {}
        self.ite_cache = {}

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

    def g_maj(self, a: int, b: int, c: int) -> int:
        return self.g_or(self.g_and(a, b),
                         self.g_or(self.g_and(a, c), self.g_and(b, c)))

    # -- vector helpers -----------------------------------------------------

    def const_bits(self, value: int, width: int) -> list:
        value &= (1 << width) - 1
        return [TRUE_LIT if (value >> i) & 1 else FALSE_LIT
                for i in range(width)]

    def full_add(self, a: int, b: int, cin: int):
        s = self.g_xor(self.g_xor(a, b), cin)
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
        _, carry = self.v_sub(a, b)
        return -carry

    def v_lt(self, a: list, b: list, signed: bool) -> int:
        if not signed:
            return self.v_ult(a, b)
        # Flip sign bits to map signed order onto unsigned order.
        a2 = a[:-1] + [-a[-1]]
        b2 = b[:-1] + [-b[-1]]
        return self.v_ult(a2, b2)

    def v_eq(self, a: list, b: list) -> int:
        out = TRUE_LIT
        for x, y in zip(a, b):
            out = self.g_and(out, -self.g_xor(x, y))
        return out

    def v_ite(self, c: int, a: list, b: list) -> list:
        return [self.g_ite(c, x, y) for x, y in zip(a, b)]

    def v_nonzero(self, a: list) -> int:
        out = FALSE_LIT
        for x in a:
            out = self.g_or(out, x)
        return out

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

    def blast(self, e: Expr, symbol_bits: dict) -> list:
        cached = self.cache.get(id(e))
        if cached is not None:
            return cached
        bits = self._blast(e, symbol_bits)
        assert len(bits) == e.ty.width
        self.cache[id(e)] = bits
        return bits

    def _blast(self, e: Expr, symbol_bits: dict) -> list:
        ty = e.ty
        if isinstance(e, Const):
            return self.const_bits(e.value, ty.width)
        if isinstance(e, Var):
            return symbol_bits[e.rid or e.name]
        if isinstance(e, Nondet):
            raise SolverError("formula contains an unsubstituted nondet")
        if isinstance(e, Unary):
            a = self.blast(e.operand, symbol_bits)
            if e.op == "-":
                return self.v_neg(a)
            if e.op == "~":
                return [-x for x in a]
            if e.op == "!":
                return self.bool_word(-self.v_nonzero(a), ty.width)
            raise SolverError(f"unknown unary {e.op}")
        if isinstance(e, Binary):
            return self._blast_binary(e, symbol_bits)
        if isinstance(e, Cast):
            a = self.blast(e.operand, symbol_bits)
            return self.v_extend(a, ty.width, e.operand.ty.signed)
        if isinstance(e, Cond):
            c = self.v_nonzero(self.blast(e.cond, symbol_bits))
            a = self.blast(e.then, symbol_bits)
            b = self.blast(e.els, symbol_bits)
            return self.v_ite(c, a, b)
        raise SolverError(f"cannot blast {e!r}")

    def _blast_binary(self, e: Binary, symbol_bits: dict) -> list:
        op = e.op
        width = e.ty.width
        if op in ("&&", "||"):
            a = self.v_nonzero(self.blast(e.left, symbol_bits))
            b = self.v_nonzero(self.blast(e.right, symbol_bits))
            bit = self.g_and(a, b) if op == "&&" else self.g_or(a, b)
            return self.bool_word(bit, width)
        a = self.blast(e.left, symbol_bits)
        b = self.blast(e.right, symbol_bits)
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


def bitblast(f: VcFormula) -> CnfInstance:
    """Reduce the word-level query to CNF over per-bit variables."""
    for name, ty in f.symbols.items():
        if ty.width > 64:
            raise SolverError(f"width {ty.width} of {name} not supported")
    bl = _Blaster()
    bit_map = {}
    symbol_bits = {}
    for name in f.symbols:
        ty = f.symbols[name]
        bits = [bl.new_var() for _ in range(ty.width)]
        symbol_bits[name] = bits
        for i, v in enumerate(bits):
            bit_map[(name, i)] = v
    root = bl.v_nonzero(bl.blast(f.shape, symbol_bits))
    bl.add(root)
    return CnfInstance(bl.num_vars, bl.clauses, bit_map, dict(f.symbols))


def decode_model(assign: list, cnf: CnfInstance) -> dict:
    """Turn a propositional assignment into per-symbol integers."""
    model = {}
    for name, ty in cnf.symbols.items():
        value = 0
        for i in range(ty.width):
            var = cnf.bit_map[(name, i)]
            if assign[var]:
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

    def __init__(self, num_vars: int, clauses: list):
        n = self.n = num_vars
        self.clauses = []          # each: a list of literals, owned here
        # Literal-indexed: slot `lit` for lit in -n..n (negative literals
        # index from the end).  val[lit] is 1 true, -1 false, 0 free.
        self.val = [0] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.saved_phase = [False] * (n + 1)
        self.order = [(0.0, v) for v in range(1, n + 1)]  # sorted: a heap
        # pushed[v]: the activity in v's newest heap entry, or -1.0 once
        # pick_branch has popped that entry.
        self.pushed = [0.0] * (n + 1)
        self.seen = [False] * (n + 1)
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        # Loading allocates a list per clause and makes no reference
        # cycles; with the cyclic collector paused it does not rescan the
        # growing heap every few hundred allocations.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.watches = [[] for _ in range(2 * n + 1)]
            self.ok = self._load(clauses)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _load(self, clauses: list) -> bool:
        """Add the input clauses; False if one is empty at level 0."""
        val = self.val
        watches = self.watches
        store = self.clauses
        ci = 0
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
                    store.append([a, b, d])
                    ci += 1
                    continue
            elif size == 2:
                a, b = c
                if a != b and a != -b and not (val[a] or val[b]):
                    watches[a].append(ci)
                    watches[b].append(ci)
                    store.append([a, b])
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

    def analyze(self, conflict_ci: int):
        # First-UIP: walk the implication graph backwards along the trail.
        # A propagated literal sits at index 0 of its reason clause, so
        # reason clauses are scanned from index 1.  Every literal met is
        # false, so bumping a variable never pushes a heap entry here;
        # backtrack pushes it on unassignment.
        clauses = self.clauses
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        seen = self.seen
        inc = self.var_inc
        learned = [0]
        counter = 0
        ci = conflict_ci
        first = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            cl = clauses[ci]
            for j in range(first, len(cl)):
                q = cl[j]
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += inc
                    if activity[v] > self.RESCALE_AT:
                        self._rescale()
                        inc = self.var_inc
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(q)
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
        back = 0
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

    def solve(self, conflict_limit: int, deadline: float | None = None) -> str:
        if not self.ok:
            return UNSAT
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
                if self.conflicts >= conflict_limit:
                    return BUDGET
                if not self.trail_lim:
                    return UNSAT
                learned, back = self.analyze(conflict)
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
            if since_restart >= budget_next:
                restart_idx += 1
                budget_next = _luby(restart_idx) * self.RESTART_UNIT
                since_restart = 0
                self.backtrack(0)
                continue
            lit = self.pick_branch()
            if lit == 0:
                return SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self.enqueue(lit, None)


def solve(cnf: CnfInstance,
          conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
          deadline: float | None = None) -> SolverOutcome:
    """Decide a CNF instance; decode the model through bit_map when SAT.

    `deadline` is a time.monotonic() timestamp; running past it yields
    the same BUDGET outcome as exceeding the conflict limit.
    """
    engine = _Cdcl(cnf.num_vars, cnf.clauses)
    status = engine.solve(conflict_limit, deadline)
    outcome = SolverOutcome(status, None, engine.decisions,
                            engine.conflicts, engine.propagations)
    if status == SAT:
        outcome.model = decode_model([x == 1 for x in engine.val[:cnf.num_vars + 1]], cnf)
    return outcome


def emit_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for (name, bit), var in sorted(cnf.bit_map.items(), key=lambda kv: kv[1]):
        lines.insert(0, f"c {var} = {name}[{bit}]")
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SMT-LIB emission (cross-check channel)


def _bv(value: int, width: int) -> str:
    return f"(_ bv{value & ((1 << width) - 1)} {width})"


def _smt_bool(e: Expr) -> str:
    return f"(distinct {_smt(e)} {_bv(0, e.ty.width)})"


def _smt(e: Expr) -> str:
    ty = e.ty
    if isinstance(e, Const):
        return _bv(e.value, ty.width)
    if isinstance(e, Var):
        return e.rid or e.name
    if isinstance(e, Unary):
        a = _smt(e.operand)
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
        if op in ("&&", "||"):
            word = "and" if op == "&&" else "or"
            return (f"(ite ({word} {_smt_bool(e.left)} {_smt_bool(e.right)}) "
                    f"{_bv(1, ty.width)} {_bv(0, ty.width)})")
        a, b = _smt(e.left), _smt(e.right)
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
        a = _smt(e.operand)
        if ty.width == src.width:
            return a
        if ty.width < src.width:
            return f"((_ extract {ty.width - 1} 0) {a})"
        ext = "sign_extend" if src.signed else "zero_extend"
        return f"((_ {ext} {ty.width - src.width}) {a})"
    if isinstance(e, Cond):
        return f"(ite {_smt_bool(e.cond)} {_smt(e.then)} {_smt(e.els)})"
    raise SolverError(f"cannot emit {e!r}")


def emit_smtlib(f: VcFormula) -> str:
    """Render the query as a QF_BV script for external cross-checking."""
    lines = ["(set-logic QF_BV)"]
    for name in sorted(f.symbols):
        ty = f.symbols[name]
        lines.append(f"(declare-const {name} (_ BitVec {ty.width}))")
    lines.append(f"(assert {_smt_bool(f.shape)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
