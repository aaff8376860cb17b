"""Bit-level decision procedure: Tseitin bitblasting plus a small CDCL solver.

Words become vectors of propositional literals, least significant bit
first.  Within one formula each expression node blasts once, cached by
its identity.  Propositional variable 1 is reserved as the constant
TRUE, which lets constant bits be plain literals instead of special
cases.

The gates are exact Tseitin definitions: 2-input AND (3 clauses), XOR
and if-then-else (4), majority (6), 3-input parity (8) and n-ary AND/OR
(n+1).  A full adder is one parity and one majority gate (Een &
Sorensson, "Translating Pseudo-Boolean Constraints into SAT", JSAT 2006).
Equality and non-zero tests are one n-ary gate.  A comparison of two
words reads only the carry out of a + ~b + 1, so it builds the carry
chain alone, one majority gate per bit: the sum bits of a subtractor
would be dead gates, outside the goal's cone but still loaded and
propagated by the solver.  A comparison with a constant is rewritten
first, as word-level rewriting before blasting does in Boolector
(Brummayer & Biere, TACAS 2009).  Unsigned, with c = c'·2^t and c' odd,
a < c iff a[t:] < c'.  For c' = 1 that is "a[t:] is zero", the negated
non-zero test.  Otherwise the bits of a[t:] above c''s top bit must be
zero, and the carry chain over the bits below decides.  c < a is the
negation of a < c + 1, or FALSE for the largest c.  So `x > 0`,
`0 < x`, `x >= 1`, `x < 1` and `x <= 0` blast to the one gate that
`x != 0`, `x == 0` and `if (x)` read, and the solver need not learn,
bit by bit, that they agree.  Signed, a constant sign bit either
decides the comparison or leaves it to the low bits, compared unsigned.
Each gate first folds constant, repeated and complementary inputs, then
looks itself up in its cache; a new gate takes the next variable and
appends its clauses to the blaster's list itself.

Division and remainder build a restoring divider, except by a divisor
whose bits are all constant with value c = 2^s, positive when signed,
which is wired instead (Warren, "Hacker's Delight", 2nd ed., 2012,
ch. 10).  Unsigned, the quotient is the dividend's bits from s up and the
remainder its low s bits, zero filled: slices, with no gate.  Signed, C
truncates toward zero, so a negative dividend first gets the bias c-1
(its sign bit in each of the low s bits); the sum shifted right
arithmetically by s is the quotient, and the remainder is a - (q << s).
The test reads the blasted bits, not the node, so a cast constant or a
name bound to constant bits qualifies as well.  Modular counters and
ring-buffer indices (`i % 8`) thus cost a few gates, not 32 subtractors.

Only names without a definition get fresh variables.  A defined name is
bound to the literals its right-hand side blasts to, so a constant
initialiser and everything computed from it fold into constant bits at
blast time, and copying or negating a word adds no clause.  A symbol bit
may therefore be any literal, negated or constant; `CnfInstance.bits`
records it and `decode_model` reads it.  The expression walk keeps an
explicit stack, so deep unwindings do not hit Python's recursion limit.

Queries are blasted and solved in a `Session`: one blaster and one CDCL
engine that live across the queries of a phase family (Een & Sorensson,
"Temporal induction by incremental SAT solving", BMC 2003).  The gate
caches persist and a free name (draw, havoc, read-before-write version)
keeps its bits in every query, so a copy shared with an earlier query
blasts to the gates that already exist and adds no clause.  The node
table goes one step further and skips the walk through those gates: it
maps a node's structure to the bit vector the node blasted to, a
structural hash over word-level nodes (Kuehlmann et al., "Robust Boolean
reasoning for equivalence checking and functional property
verification", IEEE TCAD 2002).  The key is what the node's gates read:
kind, operator, result type, the operand's signedness where it matters,
and the ids of the operand bit vectors.  Those vectors are table entries or
free names' bits, both kept for the session's life, so their ids are
never reused; and since the gate caches only grow, a hit returns
exactly the literals blasting the node again would.  A query converted
from the session's snapshot (`Session.snapshot`, the conversion state
the last query left after its deepest loop copy, see `vcgen.to_ssa`)
skips the walk as well: the session keeps the bits of the snapshot's
names, and the id-cache entries of its guard, assume prefix and
obligation conjunction, which the snapshot keeps alive, so no id is
reused; such a query blasts only the definitions past the snapshot and
walks only its new nodes.  The goal is not a clause but a literal,
`CnfInstance.goal`, passed to the search as its one assumption, as in
MiniSat's solve(assumptions) (Een & Sorensson, "An Extensible
SAT-solver", SAT 2003).  This is sound because every
session clause is the Tseitin definition of a fresh gate variable: for
any values of the free bits the clauses have exactly one satisfying
extension, so each query is equisatisfiable with "clauses and goal".
A wired division keeps this: its slices add no variable and no clause,
and its signed bias and subtraction are adder gates like any other, so
there is still exactly one extension per input.  A comparison with a
constant keeps it too: it emits only n-ary AND/OR gates, 2-input
gates and carry-chain majority gates, each defining a fresh output.
An UNSAT answer keeps -goal at level 0, so asking the same goal again
costs no search.

A SAT answer is kept as well (`Session.model`), one value per variable,
and the session's next query first tries to extend it (`_extend`).  The
kept values satisfy every clause so far, and learned clauses and kept
-goal units follow from the clauses, so they satisfy those too.  Fix the
new free bits and there is, by the argument above, exactly one extension
over the new gates; and since a gate's clauses follow those of its
inputs, one pass over the new clauses, in order, finds it: each gate's
output is set by the one clause of its definition that has a single
unassigned literal left.  If the goal holds in the extension, the query
is SAT with no search, which takes Een & Sorensson's reuse of one solver
across the queries of a run one step further than the trail reuse of
van der Tak, Ramos & Heule ("Reusing the assignment trail in CDCL
solvers", JSAT 2011).  The pass never answers UNSAT, so it cannot make a
proof; a false goal goes to the search.  It must stay a single pass: a
version that set the free bits one at a time and re-scanned the new
clauses after each took 78 s instead of 4.5 s on a nested loop with both
bounds raised to 12.

The SAT core is a conventional CDCL: two watched literals, first-UIP
conflict analysis, VSIDS-style activity, Luby restarts, phase saving.
No preprocessing.  The conflict limit, and only it, turns into a BUDGET
outcome so the caller can report unknown instead of looping forever; a
deadline raises `transform.DeadlineExceeded`.  Level 0 holds what the
clauses imply, and level 1 the goal and what it implies; restarts go
back to level 1.  Conflict analysis folds every level-1 literal into
one -goal and does not bump it, so a learned clause does not carry the
goal's whole cone, and one query makes exactly the decisions and
conflicts the goal made as a unit clause.  Learned clauses stay in the
engine for later queries.

Its state lives in flat lists, as in MiniSat.  Per-literal data
(values, watch lists) has 2n+1 slots, and a literal is its own index:
slot `lit` for positive literals, and Python's negative indexing puts
-n..-1 in the upper half.  So `val[lit]` and `watches[lit]` need no
translation.  Growing by m variables inserts 2m slots after slot n, so
the negative slots stay at the end.  A watch list holds the clause
lists themselves, and so do `reason[v]` and a conflict, as MiniSat's
hold clause references, not indices into a clause store; the engine
keeps no other list of its clauses.  Propagation tries a ternary
clause's one other literal as its new watch, and scans only a longer
clause for one.

The engine adopts the clause lists it loads, as it loads them: a
session's clauses are stored once, and the engine reorders their
literals.  `solve` without a session hands the engine copies, so the
caller's CnfInstance is left intact.  A clause of 2, 3 or 4 literals
over distinct, unassigned variables (nearly all bit-blaster output, the
8 clauses of a parity gate included) is stored as is.  Any other clause
is deduplicated, dropped if it is a tautology, and stripped of literals
false at level 0; a unit is enqueued but not propagated until search
starts.  Literals must be nonzero with magnitude at most num_vars.

The VSIDS order is a lazy binary heap of (-activity, var) entries.
`pushed[v]` is the activity in v's newest entry.  A variable is pushed
when it is bumped while free, or freed by backtracking after a bump or
after pick_branch popped its newest entry; otherwise its entry is still
there.  So every free variable has an entry keyed by its current
activity, the heap holds no duplicates, and the pick is always the free
variable of highest activity, ties to the lowest index.  The heap may
also hold entries of assigned variables: pick_branch drops them only
from the top while it looks for a free one, and once every variable is
assigned (a SAT answer) it pops nothing, so the entries stay and the
next query's backtrack need not push them again.  When activities are
rescaled past 1e100 the heap is rebuilt from the scaled values.
"""

from __future__ import annotations

import heapq
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .frontend import (
    Binary, Cast, Cond, Const, Expr, Nondet, Unary, Var,
)
from .transform import CHECK_EVERY, DeadlineExceeded, check_deadline
from .vcgen import SsaProgram

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
    bits: Mapping = field(default_factory=dict)   # symbol -> its literals
    symbols: dict = field(default_factory=dict)   # symbol -> IntType
    goal: int | None = None   # the literal the query assumes, if any


@dataclass
class SolverOutcome:
    """A query's answer and this query's search counts.  A SAT answer
    keeps its per-variable values (the session's kept model, see
    `solve`) and decodes `model` from them on first read, so a caller
    that never reads the model (the driver's FORWARD and INDUCTIVE
    phases) pays no decode."""
    status: str
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    values: list | None = field(default=None, init=False, repr=False)
    cnf: CnfInstance | None = field(default=None, init=False, repr=False)

    @cached_property
    def model(self) -> dict | None:
        """symbol -> bit-exact integer when SAT, else None."""
        if self.values is None:
            return None
        return decode_model(self.values, self.cnf)


# ---------------------------------------------------------------------------
# Bitblasting


class _Blaster:
    def __init__(self):
        self.num_vars = 1  # var 1 is constant TRUE
        self.clauses = [[TRUE_LIT]]
        self.cache = {}      # id(expr) -> bit vector, for one formula
        self.kept = {}       # the entries of the snapshot's shared nodes
        self.nodes = {}      # structural key -> bit vector (shared: never mutate)
        self.and_cache = {}  # sorted input literals -> output literal
        self.xor_cache = {}
        self.ite_cache = {}
        self.maj_cache = {}
        self.parity_cache = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    # -- gate primitives; inputs and outputs are literals ------------------
    # A new gate takes the next variable and appends its clauses itself.

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
            self.num_vars = out = self.num_vars + 1
            self.clauses += ([-a, -b, out], [a, -out], [b, -out])
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
            self.num_vars = out = self.num_vars + 1
            self.clauses += ([-a, -b, -out], [a, b, -out],
                             [-a, b, out], [a, -b, out])
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
            self.num_vars = out = self.num_vars + 1
            self.clauses += ([-c, -a, out], [-c, a, -out],
                             [c, -b, out], [c, b, -out])
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
            self.num_vars = out = self.num_vars + 1
            self.clauses.append([out] + [-x for x in key])
            self.clauses += [[x, -out] for x in key]
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
            self.num_vars = out = self.num_vars + 1
            self.clauses += ([-a, -b, out], [-a, -c, out], [-b, -c, out],
                             [a, b, -out], [a, c, -out], [b, c, -out])
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
            self.num_vars = out = self.num_vars + 1
            # One clause per input row: the row forces out to its parity.
            self.clauses += (
                [a, b, c, -out], [a, b, -c, out],
                [a, -b, c, out], [a, -b, -c, -out],
                [-a, b, c, out], [-a, b, -c, -out],
                [-a, -b, c, -out], [-a, -b, -c, out])
            self.parity_cache[key] = out
        return out

    # -- vector helpers -----------------------------------------------------

    def const_bits(self, value: int, width: int) -> list:
        value &= (1 << width) - 1
        return [TRUE_LIT if (value >> i) & 1 else FALSE_LIT
                for i in range(width)]

    def v_add(self, a: list, b: list, cin: int = FALSE_LIT):
        # A ripple of full adders: a parity gate and a majority gate a bit.
        out = []
        carry = cin
        for x, y in zip(a, b):
            out.append(self.g_parity(x, y, carry))
            carry = self.g_maj(x, y, carry)
        return out, carry

    def v_neg(self, a: list) -> list:
        out, _ = self.v_add([-x for x in a], self.const_bits(1, len(a)))
        return out

    def v_sub(self, a: list, b: list):
        # a + ~b + 1; carry out == 1 iff no borrow (a >= b unsigned)
        return self.v_add(a, [-x for x in b], TRUE_LIT)

    def v_ult(self, a: list, b: list) -> int:
        """a < b, unsigned.  Against a constant c on the right,
        `_ult_const`; on the left, c < b is not b < c + 1, and FALSE for
        the largest c.  Otherwise the carry chain alone (`_borrow`)."""
        c = _const_value(b)
        if c is not None:
            return self._ult_const(a, c)
        c = _const_value(a)
        if c is not None:
            return FALSE_LIT if (c + 1) >> len(a) else -self._ult_const(b, c + 1)
        return self._borrow(a, b)

    def _borrow(self, a: list, b: list) -> int:
        # The carry chain of a + ~b + 1: carry out == 1 iff a >= b.
        carry = TRUE_LIT
        for x, y in zip(a, b):
            carry = self.g_maj(x, -y, carry)
        return -carry

    def _ult_const(self, a: list, c: int) -> int:
        """a < c for a constant c = c'·2^t, c' odd: that is a[t:] < c'.
        For c' = 1 it is a[t:] == 0, the literal every zero test reads;
        else the bits of a[t:] above c''s top bit are zero and the carry
        chain over the bits below decides."""
        if c == 0:
            return FALSE_LIT
        t = (c & -c).bit_length() - 1
        a, c = a[t:], c >> t
        if c == 1:
            return -self.v_nonzero(a)
        h = c.bit_length()
        return self.g_and(-self.v_nonzero(a[h:]),
                          self._borrow(a[:h], self.const_bits(c, h)))

    def v_lt(self, a: list, b: list, signed: bool) -> int:
        if not signed:
            return self.v_ult(a, b)
        sa, sb = a[-1], b[-1]
        if abs(sa) != TRUE_LIT and abs(sb) != TRUE_LIT:
            # Flip sign bits to map signed order onto unsigned order.
            return self.v_ult(a[:-1] + [-sa], b[:-1] + [-sb])
        # A constant sign bit: a < b iff a is negative and b is not, or
        # the signs agree and the low bits compare below, unsigned.
        low = self.v_ult(a[:-1], b[:-1])
        if sb == TRUE_LIT:
            return self.g_and(sa, low)
        if sb == FALSE_LIT:
            return self.g_or(sa, low)
        return self.g_or(-sb, low) if sa == TRUE_LIT else self.g_and(-sb, low)

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
        """Quotient and remainder bits of a / b, truncating toward zero
        as C does; both are zero when b is zero.  A divisor whose bits
        are the constant 2^s (positive when signed) is wired: unsigned,
        q is a[s:] and r is a[:s], zero filled, with no gate; signed, q
        is (a + bias) >> s, arithmetic, with the bias 2^s - 1 for a
        negative a, and r is a - (q << s).  Any other divisor builds a
        restoring divider (see the module docstring)."""
        width = len(a)
        shift = _pow2_shift(b, signed)
        if shift is not None:
            pad = [FALSE_LIT] * shift
            if not signed:
                return (a[shift:] + pad,
                        a[:shift] + [FALSE_LIT] * (width - shift))
            t, _ = self.v_add(a, [a[-1]] * shift + [FALSE_LIT] * (width - shift))
            q = t[shift:] + [t[-1]] * shift
            r, _ = self.v_sub(a, pad + q[:width - shift])
            return q, r
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
        are blasted left to right, each node once (cached by identity).
        A node whose structure the session has blasted before, in this
        formula or an earlier one, gets that node's bit vector from the
        node table without building its gates again; the table's key is
        what the node's gates read of it and of its operands' vectors.
        A Cond blasts its condition first; if that folds to a constant,
        the Cond is its live branch's bit vector and the dead branch is
        not blasted."""
        cache = self.cache
        nodes = self.nodes
        stack = [root]
        push = stack.append
        while stack:
            e = stack[-1]
            if id(e) in cache:
                stack.pop()
                continue
            t = type(e)
            if t is Binary:
                left, right = e.left, e.right
                a = cache.get(id(left))
                b = cache.get(id(right))
                if a is None or b is None:
                    if b is None:
                        push(right)
                    if a is None:
                        push(left)
                    continue
                key = (e.op, e.ty, left.ty.signed, id(a), id(b))
                bits = nodes.get(key)
                if bits is None:
                    bits = nodes[key] = self._binary(e, a, b)
            elif t is Var:
                bits = symbol_bits[e.rid or e.name]
            elif t is Const:
                key = (e.value, e.ty)
                bits = nodes.get(key)
                if bits is None:
                    bits = nodes[key] = self.const_bits(e.value, e.ty.width)
            elif t is Cond:
                c = cache.get(id(e.cond))
                if c is None:
                    push(e.cond)
                    continue
                if TRUE_LIT in c:
                    live = e.then
                elif all(x == FALSE_LIT for x in c):
                    live = e.els
                else:
                    live = None
                if live is not None:
                    bits = cache.get(id(live))
                    if bits is None:
                        push(live)
                        continue
                else:
                    then, els = e.then, e.els
                    a = cache.get(id(then))
                    b = cache.get(id(els))
                    if a is None or b is None:
                        if b is None:
                            push(els)
                        if a is None:
                            push(then)
                        continue
                    key = (Cond, e.ty, id(c), id(a), id(b))
                    bits = nodes.get(key)
                    if bits is None:
                        bits = nodes[key] = self.v_ite(self.v_nonzero(c), a, b)
            elif t is Unary or t is Cast:
                operand = e.operand
                a = cache.get(id(operand))
                if a is None:
                    push(operand)
                    continue
                key = ((e.op, e.ty, id(a)) if t is Unary
                       else (Cast, e.ty, operand.ty.signed, id(a)))
                bits = nodes.get(key)
                if bits is None:
                    bits = nodes[key] = self._unary(e, a)
            elif t is Nondet:
                raise SolverError("formula contains an unsubstituted nondet")
            else:
                raise SolverError(f"cannot blast {e!r}")
            stack.pop()
            assert len(bits) == e.ty.width
            cache[id(e)] = bits
        return cache[id(root)]

    def _unary(self, e: Unary | Cast, a: list) -> list:
        """Gates for a one-operand node, given its operand's bits."""
        if type(e) is Cast:
            return self.v_extend(a, e.ty.width, e.operand.ty.signed)
        if e.op == "-":
            return self.v_neg(a)
        if e.op == "~":
            return [-x for x in a]
        if e.op == "!":
            return self.bool_word(-self.v_nonzero(a), e.ty.width)
        raise SolverError(f"unknown unary {e.op}")

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


def _pow2_shift(b: list, signed: bool) -> int | None:
    """s when the bits `b` are all constant with value 2^s, and that value
    is positive read as `signed`; else None."""
    value = _const_value(b)
    if not value or value & (value - 1) or (signed and b[-1] == TRUE_LIT):
        return None
    return value.bit_length() - 1


def _const_value(bits: list) -> int | None:
    """The unsigned value of `bits` when every bit is constant, else None."""
    value = 0
    for i, bit in enumerate(bits):
        if bit == TRUE_LIT:
            value |= 1 << i
        elif bit != FALSE_LIT:
            return None
    return value


class Session:
    """One bit-blaster and one CDCL engine that live across a family of
    queries.  A free name keeps its bits in every query of the session,
    so the copies a query shares with earlier ones blast to the gates
    that already exist and add no clause.  `loaded` counts the blaster's
    clauses the engine has taken.  `model` holds the values of the last
    SAT answer, or its extension over later queries (see `solve`), and
    `covered` and `covered_free` the clauses and free names they cover.

    `snapshot` is the last conversion state a query of the session left
    behind (`SsaProgram.captured`), the one checkpoint the session's next
    query resumes from (`vcgen.to_ssa`); `shared` maps each name of its
    SsaProgram to its bits, so a query resumed from it blasts none of
    those definitions."""

    def __init__(self):
        self.blaster = _Blaster()
        self.free = {}   # free name -> its bits
        self.engine = _Cdcl()
        self.loaded = 0
        self.snapshot = None
        self.shared = {}   # name of `snapshot` -> its bits
        # The values of the last SAT answer, per variable (1 true, -1
        # false), or None; and the clauses and free names they cover.
        self.model = None
        self.covered = 0
        self.covered_free = 0


def bitblast(f: SsaProgram, session: Session | None = None,
             deadline: float | None = None) -> CnfInstance:
    """Reduce the word-level query `f.goal`, given the definitions of
    `f` (see `vcgen.encode`), to CNF over per-bit variables.

    Only names without a definition (draws, carriers, havocked versions)
    get fresh variables, and only the first time the session meets them.
    Each definition, in order, binds its name to the literals its
    right-hand side blasts to, taking every node the session has blasted
    before from its node table.  The table's key is a node's kind,
    operator, result type, operand signedness and the ids of its operand
    bit vectors; each such vector is a table entry or a free name's bits,
    which the session keeps, so no id in a key is ever reused.

    A query converted from the state the session's last query left
    behind (`f.resumed is session.snapshot`) takes the bits of that
    state's names from `session.shared` and blasts only the definitions
    after them.  Its new nodes meet the snapshot's guard, assume prefix
    and obligation conjunction, whose bits `blaster.kept` holds, so the
    walk stops there too.  When the conversion leaves a new state
    (`f.captured`), it becomes the session's snapshot, and its names'
    bits and those three nodes' bits are kept for the next query.

    `bits` maps each name to its literals, least significant bit first;
    each may be a variable, a negated one, or the constant TRUE_LIT /
    FALSE_LIT.  It is the query's own map, over `session.shared` for a
    resumed query, so it may hold names outside `symbols`; `decode_model`
    and `emit_dimacs` read it through `symbols`.  There is
    no root clause: the goal is returned as a literal, and `clauses`
    lists every clause of the session so far, each the definition of a
    gate.  Without a session the query gets a fresh one.  Past `deadline`
    (checked every CHECK_EVERY definitions) it raises DeadlineExceeded.
    """
    session = session or Session()
    bl = session.blaster
    free = session.free
    snap = f.resumed
    resumed = snap is not None and snap is session.snapshot
    if resumed:
        done, known = len(snap.ssa.definitions), len(snap.ssa.symbols)
        symbol_bits = ChainMap({}, session.shared)
    else:
        done = known = 0
        symbol_bits = {}
    new_symbols = list(islice(f.symbols.items(), known, None))
    for name, ty in new_symbols:
        if ty.width > 64:
            raise SolverError(f"width {ty.width} of {name} not supported")
    definitions = list(islice(f.definitions, done, None))
    defined = {name for name, _ in definitions}
    # The per-formula cache is keyed by the ids of expression nodes: only
    # the kept ones, which the session's snapshot holds alive, may outlive
    # the formula, whose dead nodes' ids get reused.  The node table's
    # keys hold the ids of bit vectors the session keeps.
    try:
        for name, ty in new_symbols:
            if name not in defined:
                bits = free.get(name)
                if bits is None:
                    bits = free[name] = [bl.new_var() for _ in range(ty.width)]
                symbol_bits[name] = bits
        for i, (name, expr) in enumerate(definitions):
            if i % CHECK_EVERY == 0:
                check_deadline(deadline)
            symbol_bits[name] = bl.blast(expr, symbol_bits)
        goal = bl.v_nonzero(bl.blast(f.goal, symbol_bits))
        if f.captured is not None:
            if not resumed:
                session.shared = {}
            _keep(session, f.captured, symbol_bits, known)
    finally:
        bl.cache = dict(bl.kept)
    return CnfInstance(bl.num_vars, list(bl.clauses), symbol_bits, f.symbols,
                       goal)


def _keep(session: Session, cap, symbol_bits, known: int):
    """Keep the bits of the names and shared nodes of `cap`, the state a
    query's conversion left behind, for the queries resumed from it.  The
    first `known` names are in `session.shared` already."""
    shared = session.shared
    for name in islice(cap.ssa.symbols, known, None):
        shared[name] = symbol_bits[name]
    session.snapshot = cap
    cache = session.blaster.cache
    session.blaster.kept = {id(node): cache[id(node)]
                            for node in (cap.guard, cap.assumed, cap.ssa.prop)
                            if id(node) in cache}


def decode_model(values: list, cnf: CnfInstance) -> dict:
    """Turn a SAT answer's per-variable values (1 true, -1 false) into
    per-symbol integers, reading each bit's literal with its sign."""
    model = {}
    for name, ty in cnf.symbols.items():
        bits = cnf.bits[name]
        value = 0
        for i in range(ty.width):
            lit = bits[i]
            if (values[lit] if lit > 0 else -values[-lit]) == 1:
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
        # Literal-indexed: slot `lit` for lit in -n..n (negative literals
        # index from the end).  val[lit] is 1 true, -1 false, 0 free.
        # watches[lit] holds the clause lists that watch lit, and
        # reason[v] the clause list that implied v, or None.
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
        for c in clauses:
            # Fast path: 2 to 4 literals over distinct, unassigned
            # variables need no dedupe or filtering (most bit-blaster
            # clauses).
            size = len(c)
            if size == 3:
                a, b, d = c
                if (a != b and a != -b and a != d and a != -d
                        and b != d and b != -d
                        and not (val[a] or val[b] or val[d])):
                    watches[a].append(c)
                    watches[b].append(c)
                    continue
            elif size == 2:
                a, b = c
                if a != b and a != -b and not (val[a] or val[b]):
                    watches[a].append(c)
                    watches[b].append(c)
                    continue
            elif size == 4:
                a, b, d, e = c
                if (len({abs(a), abs(b), abs(d), abs(e)}) == 4
                        and not (val[a] or val[b] or val[d] or val[e])):
                    watches[a].append(c)
                    watches[b].append(c)
                    continue
            if not self.add_clause(c):
                return False
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
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    def enqueue(self, lit: int, reason):
        self.val[lit] = 1
        self.val[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def propagate(self):
        """Unit-propagate the trail from qhead; the conflict clause or
        None.  Watchers are visited in list order and a moved watch is
        swap-removed, so the trail order is a function of the clause
        order alone.  A ternary clause has one literal to try as its new
        watch; only a longer one scans for it."""
        trail = self.trail
        val = self.val
        watches = self.watches
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
                cl = watchers[i]
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
                size = len(cl)
                if size == 3:
                    q = cl[2]
                    if val[q] != -1:
                        cl[1] = q
                        cl[2] = false_lit
                        watches[q].append(cl)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        continue
                elif size > 3:
                    j = 2
                    while j < size:
                        q = cl[j]
                        if val[q] != -1:
                            break
                        j += 1
                    else:
                        j = 0
                    if j:
                        cl[1] = q
                        cl[j] = false_lit
                        watches[q].append(cl)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        continue
                if first_val == -1:
                    conflict = cl
                    break
                val[first] = 1
                val[-first] = -1
                v = first if first > 0 else -first
                level[v] = lvl
                reason[v] = cl
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

    def analyze(self, conflict: list, goal: int | None):
        # First-UIP: walk the implication graph backwards along the trail.
        # A propagated literal sits at index 0 of its reason clause, so
        # reason clauses are scanned from index 1.  Every literal met is
        # false, so bumping a variable never pushes a heap entry here;
        # backtrack pushes it on unassignment.  Level 1 holds the goal and
        # what it implies, so its literals fold into one -goal, appended
        # last and not bumped; with no goal they are implied by the
        # clauses alone and drop out, as level 0 does.
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        seen = self.seen
        inc = self.var_inc
        learned = [0]
        counter = 0
        folded = False
        cl = conflict
        first = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
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
            cl = reason[v]
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
        # the free variable of highest activity.  With every variable
        # assigned there is nothing to pick, and the entries stay.
        if len(self.trail) == self.n:
            return 0
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
        conflicts are spent on this call, and past `deadline` (checked
        every CHECK_EVERY iterations) it raises DeadlineExceeded."""
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
            if ticks % CHECK_EVERY == 0:
                check_deadline(deadline)
            ticks += 1
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
                    self.watches[learned[0]].append(learned)
                    self.watches[learned[1]].append(learned)
                    self.enqueue(learned[0], learned)
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
    """Decide a CNF instance under its goal.  A SAT outcome decodes its
    model through `cnf.bits` when `model` is first read.  Counts and the
    conflict limit are this query's.

    BUDGET means only that the conflict limit was hit.  Past `deadline`,
    a time.monotonic() timestamp, it raises DeadlineExceeded.

    With the `session` the instance was blasted in, the session's last
    SAT model is first extended over the clauses blasted since
    (`_extend`).  If the goal holds in the extension, that is the SAT
    answer, with zero search counts, and the engine loads nothing.
    Otherwise the session's engine loads only the clauses it has not
    seen, searches, and keeps what it learned.  Without a session, a
    fresh engine gets copies, and `cnf` is left intact.
    """
    if session is None:
        engine = _Cdcl(cnf.num_vars, [list(c) for c in cnf.clauses])
    else:
        if _extend(session, cnf, deadline) == SAT:
            outcome = SolverOutcome(SAT)
            outcome.values, outcome.cnf = session.model, cnf
            return outcome
        engine = session.engine
        engine.add(cnf.num_vars, cnf.clauses[session.loaded:])
        session.loaded = len(cnf.clauses)
    before = (engine.decisions, engine.conflicts, engine.propagations)
    status = engine.solve(conflict_limit, deadline, cnf.goal)
    outcome = SolverOutcome(status, engine.decisions - before[0],
                            engine.conflicts - before[1],
                            engine.propagations - before[2])
    if status == SAT:
        outcome.values, outcome.cnf = engine.val[:engine.n + 1], cnf
        if session is not None:
            session.model = outcome.values
            session.covered = len(cnf.clauses)
            session.covered_free = len(session.free)
    return outcome


def _extend(session: Session, cnf: CnfInstance,
            deadline: float | None) -> str | None:
    """Extend the session's kept model over the clauses blasted since it
    was taken, in one in-order pass: SAT if the goal holds in the
    extension, else None, and the query is searched.  Past `deadline`
    (checked every CHECK_EVERY clauses) it puts the kept model back and
    raises DeadlineExceeded.

    The new free bits are set false.  A clause already satisfied is
    skipped, and one with exactly one unassigned literal sets it; a
    clause falsified, or left with two unassigned literals, drops the
    kept model.  Values only go from unassigned to assigned, so every
    clause the pass meets stays satisfied, and a goal that holds makes
    the values a model of the session's clauses and the goal.  The pass
    never answers UNSAT.  A complete pass keeps the extension, also when
    its goal is false: it is still a model of the clauses."""
    values = session.model
    if values is None:
        return None
    old = len(values)
    values += [0] * (cnf.num_vars + 1 - old)
    for bits in islice(session.free.values(), session.covered_free, None):
        for v in bits:
            values[v] = -1
    clauses = cnf.clauses
    for start in range(session.covered, len(clauses), CHECK_EVERY):
        try:
            check_deadline(deadline)
        except DeadlineExceeded:
            del values[old:]
            raise
        for cl in clauses[start:start + CHECK_EVERY]:
            unset = 0
            for lit in cl:
                x = values[lit] if lit > 0 else -values[-lit]
                if x == 1:
                    break
                if x == 0:
                    if unset:
                        session.model = None
                        return None
                    unset = lit
            else:
                if not unset:
                    session.model = None
                    return None
                if unset > 0:
                    values[unset] = 1
                else:
                    values[-unset] = -1
    session.covered = len(clauses)
    session.covered_free = len(session.free)
    goal = cnf.goal
    if goal is None or (values[goal] if goal > 0 else -values[-goal]) == 1:
        return SAT
    return None


def emit_dimacs(cnf: CnfInstance) -> str:
    """DIMACS text, preceded by one `c <literal> = <symbol>[<bit>]` line
    per symbol bit, ordered by variable.  The goal is written as a unit
    clause, so the file is the query on its own."""
    clauses = cnf.clauses if cnf.goal is None else cnf.clauses + [[cnf.goal]]
    named = [(name, i, cnf.bits[name][i])
             for name, ty in cnf.symbols.items() for i in range(ty.width)]
    lines = [f"c {lit} = {name}[{bit}]" for name, bit, lit in
             sorted(named, key=lambda t: abs(t[2]))]
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


def _operands(e: Expr) -> tuple:
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, (Unary, Cast)):
        return (e.operand,)
    if isinstance(e, Cond):
        return (e.cond, e.then, e.els)
    return ()


class _SmtWriter:
    """Terms for the roots of one script.  A compound node read by more
    than one operand, here or in another root, is written once, as a
    `define-fun` named `%t<n>` (no SSA, draw or program name holds a
    `%`), ahead of its first reader, which refers to it by that name;
    any other node is written inline.  So the script grows linearly with
    the guard and assume-prefix chains that every copy shares.  The
    walks keep an explicit stack, as `_Blaster.blast` does: those chains
    grow with the unwinding depth."""

    def __init__(self, roots: list):
        self.lines: list = []
        self.names: dict = {}     # id of a shared node -> its helper name
        self.readers: dict = {}   # id of a node -> operand edges into it
        seen, stack = set(), list(roots)
        while stack:
            e = stack.pop()
            if id(e) in seen:
                continue
            seen.add(id(e))
            for o in _operands(e):
                self.readers[id(o)] = self.readers.get(id(o), 0) + 1
                stack.append(o)

    def term(self, root: Expr) -> str:
        """The term for `root`; the helpers it needs first go to `lines`.
        `done` holds the terms of the operands of the nodes still open,
        left to right."""
        done = []
        stack = [(root, False)]
        while stack:
            e, ready = stack.pop()
            if id(e) in self.names:
                done.append(self.names[id(e)])
                continue
            operands = _operands(e)
            if not ready:
                stack.append((e, True))
                stack.extend((o, False) for o in reversed(operands))
                continue
            args = done[len(done) - len(operands):]
            del done[len(done) - len(operands):]
            text = _smt_node(e, args)
            if operands and self.readers.get(id(e), 0) > 1:
                name = self.names[id(e)] = f"%t{len(self.names)}"
                self.lines.append(f"(define-fun {name} () (_ BitVec {e.ty.width}) {text})")
                text = name
            done.append(text)
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


def emit_smtlib(f: SsaProgram) -> str:
    """Render the query as a QF_BV script for external cross-checking:
    the free names declared, each definition a `define-fun`, in order,
    then the goal asserted.  A shared subterm gets its own `define-fun`
    (`_SmtWriter`); putting its term back for its name gives each line
    written out in full."""
    w = _SmtWriter([expr for _, expr in f.definitions] + [f.goal])
    w.lines.append("(set-logic QF_BV)")
    defined = {name for name, _ in f.definitions}
    for name in sorted(f.symbols.keys() - defined):
        w.lines.append(f"(declare-const {name} (_ BitVec {f.symbols[name].width}))")
    for name, expr in f.definitions:
        term = w.term(expr)
        w.lines.append(f"(define-fun {name} () (_ BitVec {f.symbols[name].width}) {term})")
    w.lines.append(f"(assert {_nonzero(w.term(f.goal), f.goal.ty.width)})")
    w.lines.append("(check-sat)")
    w.lines.append("(get-model)")
    return "\n".join(w.lines) + "\n"
