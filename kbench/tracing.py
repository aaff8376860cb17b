"""Spans around the pipeline stages that `kinduct.driver` calls.

`Tracer.install` swaps each stage function named in STAGES, as bound in the
`kinduct.driver` module, for a wrapper that records one span per call and
the stage's work counts; `Tracer.uninstall` puts the originals back.  The
program itself is not changed.  Spans are kept in memory; `dump` writes
them out at the end of a run.

A span is [name, start, end, parent, program, phase, k]: times from
`time.perf_counter`, `parent` the index of the enclosing span or None.
Query stages take phase and k from the `unwind` call that starts the query
(`reconstruct` from the unwinding it replays); loading stages have none.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from collections import Counter
from pathlib import Path
from time import perf_counter

# driver attribute -> span name
STAGES = {
    "parse": "frontend.parse",
    "typecheck": "frontend.typecheck",
    "lower": "goto_ir.lower",
    "infer_invariants": "invariants.infer",
    "instrument": "invariants.instrument",
    "unwind": "transform.unwind",
    "to_ssa": "vcgen.to_ssa",
    "encode": "vcgen.encode",
    "bitblast": "solver.bitblast",
    "solve": "solver.solve",
    "reconstruct": "driver.replay",
    "run_goto": "interp.run_goto",
}
PHASES = ("base", "forward", "inductive")
COUNTS = ("invariants.facts", "transform.instrs", "vcgen.defs", "solver.vars",
          "solver.clauses", "solver.conflicts", "solver.decisions",
          "solver.propagations", "driver.queries", "driver.queries.base",
          "driver.queries.forward", "driver.queries.inductive",
          "driver.repeat_queries")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.k_max = 0
        self._stack: list = []
        self._program = None
        self._query = (None, None)
        self._cnf_seen: set = set()
        self._saved: dict = {}

    def begin_program(self, name: str):
        self._program = name
        self._query = (None, None)
        self._cnf_seen = set()

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` recorded around every call."""
        def traced(*args, **kwargs):
            phase, k = self._context(name, args)
            span = [name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None,
                    self._program, phase, k]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self._count(name, result, phase, k)
            return result
        return traced

    def install(self, module):
        for attr, name in STAGES.items():
            fn = getattr(module, attr)
            self._saved[attr] = fn
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self, module):
        for attr, fn in self._saved.items():
            setattr(module, attr, fn)
        self._saved.clear()

    def _context(self, name: str, args: tuple) -> tuple:
        if name == "transform.unwind":
            self._query = (args[2].value, args[1])
        elif name == "driver.replay":
            u = args[1]
            return u.phase.value, u.k
        return self._query

    def _count(self, name: str, result, phase, k):
        c = self.counts
        if name == "invariants.infer":
            c["invariants.facts"] += sum(len(cs) for cs in result.by_location.values())
        elif name == "transform.unwind":
            c["transform.instrs"] += len(result.body.instructions)
        elif name == "vcgen.to_ssa":
            c["vcgen.defs"] += len(result.definitions)
        elif name == "solver.bitblast":
            c["solver.vars"] += result.num_vars
            c["solver.clauses"] += len(result.clauses)
            key = (result.num_vars,
                   hashlib.blake2b(marshal.dumps(result.clauses)).digest())
            if key in self._cnf_seen:
                c["driver.repeat_queries"] += 1
            self._cnf_seen.add(key)
        elif name == "solver.solve":
            c["solver.conflicts"] += result.conflicts
            c["solver.decisions"] += result.decisions
            c["solver.propagations"] += result.propagations
            c["driver.queries"] += 1
            c[f"driver.queries.{phase}"] += 1
            self.k_max = max(self.k_max, k)

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "program", "phase", "k")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals of one traced round, name -> (value, unit): stage
    self times, time per phase, work counts and solver rates."""
    own = self_times(tracer.spans)
    by_stage: Counter = Counter()
    by_phase: Counter = Counter()
    replay = 0.0
    for s, t in zip(tracer.spans, own):
        by_stage[s[0]] += t
        if s[5] is not None:
            by_phase[s[5]] += t
        if s[0] == "driver.replay":
            replay += s[2] - s[1]
    m = {f"{name}_s": (by_stage[name], "s") for name in STAGES.values()
         if name != "driver.replay"}
    # Inclusive: the replay's own to_ssa and run_goto are in it.
    m["driver.replay_s"] = (replay, "s")
    for phase in PHASES:
        m[f"driver.phase_s.{phase}"] = (by_phase[phase], "s")
    for name in COUNTS:
        m[name] = (tracer.counts[name], "count")
    m["driver.k_max"] = (tracer.k_max, "count")
    solve_s = by_stage["solver.solve"]
    for rate, count in (("props", "propagations"), ("conflicts", "conflicts")):
        m[f"solver.{rate}_per_s"] = (
            tracer.counts[f"solver.{count}"] / solve_s if solve_s else 0.0, "1/s")
    m["stages_s"] = (sum(own), "s")
    return m
