"""The k-induction loop: phase sequencing, k advancement, re-checking.

The loop schedule is deliberately rigid.  k starts at 1 and the base
case runs first each round; k is incremented
before the forward condition, so the forward/inductive k leads the
base-case k by one.  A proof obtained through the forward condition or
the inductive step only sets force_basecase, because instrumented
invariants over-approximate the program: the proof is trusted only
after a strengthened base case at k+increment finds no counterexample.
force_basecase is never reset, so the algorithm always terminates at
that re-check.

Every query is blasted and solved in one of two solver sessions that
live for the whole run: one for the concrete-start phases (BASE,
FORWARD and the re-check) and one for INDUCTIVE.  The query at k+1
holds the copies of the query at k, so each copy's gates are built and
loaded once per session.  When `unwind` records where the copies of the
program's first top-level loop sit (`UnwoundProgram.layout`), a query
is still unwound in full, but converted and blasted only from the
session's snapshot (`Session.snapshot`): the conversion state after the
deepest copy an earlier query of the session converted.  So its
conversion and blasting cost tracks the copies it adds and the code
after the loop.  A query resumes from the snapshot only when it is no
deeper than k, and it leaves its own state after copy k, which
`bitblast` makes the session's new snapshot.  Learned clauses carry
over.  Each query's goal is an assumption.  An UNSAT answer keeps the
goal's negation, so a repeated proof costs no search: a loop-free
program poses one query as BASE k=1, FORWARD k=2 and the re-check, and
once a constant-bound loop is fully unrolled the re-check at
k+increment repeats the FORWARD query at k.  A SAT answer keeps its
model, and the session's next query first extends it over the new
copy's clauses: FORWARD and INDUCTIVE stay SAT from k to k+1 until the
verdict, and most such answers then need no search.

A run has one clock: `verify_file` starts it before loading and hands
the deadline to `_Checker`.  Every loading and query stage polls it
(`transform.check_deadline`), and the first past it makes the run UNKNOWN
with reason "deadline"; the conflict limit gives "budget", and k past
`max_iterations` "k_max".  The replay of a FALSE (`reconstruct`) runs
past the deadline on purpose: cutting it would turn a found bug into
UNKNOWN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .frontend import Loc, MiniCError, parse, typecheck, override_widths
from .goto_ir import GotoProgram, lower
from .interp import MapProvider, RunResult, VIOLATION, run_goto
from .invariants import infer_invariants, instrument, translate_invariants
from .solver import (
    BUDGET, DEFAULT_CONFLICT_LIMIT, UNSAT, Session, bitblast, emit_dimacs,
    emit_smtlib, solve,
)
from .transform import DeadlineExceeded, Phase, UnwoundProgram, check_deadline, unwind
from .vcgen import encode, to_ssa

TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"

INVARIANT_MODES = ("none", "builtin", "comments")


class ReplayError(Exception):
    """A counterexample model failed to replay: an encoding bug."""


class UnreadableSourceError(MiniCError):
    """The source file cannot be read as UTF-8 text: an input error."""


@dataclass
class KInductionConfig:
    max_iterations: int = 100
    recheck_increment: int = 5
    timeout_seconds: int = 900
    invariants_mode: str = "builtin"
    width_override: int | None = None
    emit_smt_dir: str | None = None
    emit_cnf_dir: str | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.recheck_increment < 1:
            raise ValueError("recheck_increment must be >= 1")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be >= 0")
        if self.invariants_mode not in INVARIANT_MODES:
            raise ValueError(f"unknown invariants mode {self.invariants_mode!r}")


@dataclass
class Trace:
    states: list                # s[0..k], each a full variable store
    violated: Loc | None       # location of the violated assertion


@dataclass
class Verdict:
    status: str
    decided_by: str | None = None   # BASE, FORWARD, INDUCTIVE or RECHECK
    k_at_decision: int | None = None
    counterexample: Trace | None = None
    phase_log: list = field(default_factory=list)  # (phase name, k) attempts
    reason: str | None = None   # UNKNOWN only: "k_max", "deadline" or "budget"


class _Exhausted(Exception):
    """The conflict limit ran out; the whole run is UNKNOWN."""


class _Checker:
    def __init__(self, p: GotoProgram, cfg: KInductionConfig,
                 deadline: float | None = None):
        self.p = p
        self.cfg = cfg
        if deadline is None:   # a time.monotonic() timestamp: start the clock
            deadline = time.monotonic() + cfg.timeout_seconds
        self.deadline = deadline
        self.phase_log: list = []
        concrete = Session()
        self.sessions = {Phase.BASE: concrete, Phase.FORWARD: concrete,
                         Phase.INDUCTIVE: Session()}

    def _discharge(self, phase: Phase, k: int):
        check_deadline(self.deadline)
        self.phase_log.append((phase.value, k))
        session = self.sessions[phase]
        u = unwind(self.p, k, phase, self.deadline)
        f = encode(to_ssa(u, self.deadline, session.snapshot), phase)
        cnf = bitblast(f, session, self.deadline)
        self._emit(phase, k, f, cnf)
        out = solve(cnf, DEFAULT_CONFLICT_LIMIT, self.deadline, session)
        if out.status == BUDGET:
            raise _Exhausted
        return out, u

    def _emit(self, phase: Phase, k: int, f, cnf):
        stem = Path(self.p.file).stem if self.p.file else self.p.name
        if self.cfg.emit_smt_dir:
            d = Path(self.cfg.emit_smt_dir)
            d.mkdir(parents=True, exist_ok=True)
            (d / f"{stem}_{phase.value}_k{k}.smt2").write_text(emit_smtlib(f))
        if self.cfg.emit_cnf_dir:
            d = Path(self.cfg.emit_cnf_dir)
            d.mkdir(parents=True, exist_ok=True)
            (d / f"{stem}_{phase.value}_k{k}.cnf").write_text(emit_dimacs(cnf))

    def base_case(self, k: int) -> Trace | None:
        out, u = self._discharge(Phase.BASE, k)
        if out.status == UNSAT:
            return None
        return reconstruct(out.model, u)

    def forward_condition(self, k: int) -> bool:
        out, _ = self._discharge(Phase.FORWARD, k)
        return out.status == UNSAT

    def inductive_step(self, k: int) -> bool:
        out, _ = self._discharge(Phase.INDUCTIVE, k)
        return out.status == UNSAT

    def run(self) -> Verdict:
        cfg = self.cfg
        k = 1
        force_basecase = False
        last_result = Verdict(UNKNOWN)
        reason = "k_max"
        try:
            while k <= cfg.max_iterations:
                if force_basecase:
                    k += cfg.recheck_increment
                cex = self.base_case(k)
                if cex is not None:
                    return Verdict(FALSE,
                                   "RECHECK" if force_basecase else "BASE",
                                   k, cex, self.phase_log)
                if force_basecase:
                    last_result.phase_log = self.phase_log
                    return last_result
                k += 1
                if self.forward_condition(k):
                    force_basecase = True
                    last_result = Verdict(TRUE, "FORWARD", k)
                elif self.inductive_step(k):
                    force_basecase = True
                    last_result = Verdict(TRUE, "INDUCTIVE", k)
        except _Exhausted:
            reason = "budget"
        except DeadlineExceeded:
            reason = "deadline"
        return Verdict(UNKNOWN, phase_log=self.phase_log, reason=reason)


def base_case(p: GotoProgram, k: int,
              cfg: KInductionConfig | None = None) -> Trace | None:
    """Search for a violation reachable within k loop iterations."""
    return _Checker(p, cfg or KInductionConfig()).base_case(k)


def forward_condition(p: GotoProgram, k: int,
                      cfg: KInductionConfig | None = None) -> bool:
    """Do all loops exit within k iterations, with every assertion holding?"""
    return _Checker(p, cfg or KInductionConfig()).forward_condition(k)


def inductive_step(p: GotoProgram, k: int,
                   cfg: KInductionConfig | None = None) -> bool:
    """From an arbitrary state, do k non-stuttering iterations that exit
    always satisfy the assertions?"""
    return _Checker(p, cfg or KInductionConfig()).inductive_step(k)


def kinduction(p: GotoProgram, cfg: KInductionConfig | None = None) -> Verdict:
    """Run the k-induction loop on a lowered (optionally instrumented)
    program."""
    return _Checker(p, cfg or KInductionConfig()).run()


def reconstruct(model: dict, u: UnwoundProgram) -> Trace:
    """Replay a satisfying BASE model as a concrete run of the original
    program and snapshot the per-iteration states."""
    if u.origin is None:
        raise ReplayError("unwound program lost its origin")
    s = to_ssa(u)
    draws = {}
    for name, (nid, ctx, _ty) in s.draw_symbols.items():
        if name in model:
            draws[(nid, ctx)] = model[name]
    provider = MapProvider(draws)
    res: RunResult = run_goto(u.origin, provider)
    if provider.misses:
        raise ReplayError(f"model does not cover draws {provider.misses}")
    if res.status != VIOLATION:
        raise ReplayError(f"replay ended with {res.status}, not a violation")
    return Trace(res.states, res.violated)


def load_program(path: str, cfg: KInductionConfig,
                 deadline: float | None = None) -> GotoProgram:
    """Front half of the pipeline: source text to an instrumented
    GotoProgram, honoring width override and invariants mode.  Past the
    time.monotonic() `deadline`, checked after each stage and inside the
    interval analysis, it raises DeadlineExceeded."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        why = getattr(e, "strerror", None) or e
        raise UnreadableSourceError(f"cannot read: {why}", file=path) from e
    if cfg.invariants_mode == "comments":
        source = translate_invariants(source)
    prog = parse(source, path)
    check_deadline(deadline)
    if cfg.width_override:
        prog = override_widths(prog, cfg.width_override)
    prog = typecheck(prog)
    check_deadline(deadline)
    g = lower(prog)
    check_deadline(deadline)
    if cfg.invariants_mode == "builtin":
        inv = infer_invariants(g, deadline)
        check_deadline(deadline)
        g = instrument(g, inv)
    return g


def verify_file(path: str, cfg: KInductionConfig | None = None) -> Verdict:
    """Load and check `path`; its timeout counts the loading too."""
    cfg = cfg or KInductionConfig()
    deadline = time.monotonic() + cfg.timeout_seconds
    try:
        p = load_program(path, cfg, deadline)
    except DeadlineExceeded:
        return Verdict(UNKNOWN, reason="deadline")
    return _Checker(p, cfg, deadline).run()
