"""Per-layer counters for the traced run.

Public package functions are wrapped from the benchmark process, each
where its caller looks it up (``engine.rewrite``, not ``rules.rewrite``),
so the package itself is unchanged.  A metric counts only outermost calls:
a wrapped function that re-enters itself, directly or through another
lookup of the same metric, is timed once.  Times are inclusive.
"""
from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Optional


class Tracer:
    def __init__(self, meter):
        self.meter = meter
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.ground_ok = 0
        self.po_iterations: list[int] = []
        self.po_rows: list[dict] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    def _wrap(self, owner, attr: str, metric: str, timed: bool = True,
              after: Optional[Callable] = None) -> None:
        orig = getattr(owner, attr)
        calls, seconds, depth = self.calls, self.seconds, self._depth
        clock = time.perf_counter

        if not timed:
            def counted(*args, **kw):
                calls[metric] += 1
                return orig(*args, **kw)
            wrapper = counted
        else:
            def timed_call(*args, **kw):
                if depth[metric]:
                    return orig(*args, **kw)
                depth[metric] = 1
                t0 = clock()
                try:
                    res = orig(*args, **kw)
                finally:
                    depth[metric] = 0
                    seconds[metric] += clock() - t0
                    calls[metric] += 1
                if after is not None:
                    after(res, args)
                return res
            wrapper = timed_call
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from setsolve import (
            arith, engine, groundeval, machines, parser, typecheck, verifier,
        )

        w = self._wrap
        w(engine, "rewrite", "rules.rewrite")
        w(engine, "subst_formula", "formulas.subst_formula")
        w(verifier, "subst_formula", "formulas.subst_formula")
        w(engine, "compose", "terms.compose", timed=False)
        w(engine.Store, "clone", "engine.clone", timed=False)
        w(engine.Store, "_scan_sorts", "engine.scan_sorts", timed=False)
        w(engine, "nnf", "negate.nnf")
        w(machines, "parse_machine", "machines.parse")
        w(parser, "parse_program", "parser.parse")
        w(parser, "parse_formula", "parser.parse")
        w(verifier, "typecheck_machine", "typecheck")
        w(typecheck, "check_program", "typecheck")
        w(verifier, "generate_pos", "verifier.generate_pos")
        w(verifier, "ground_complete", "engine.ground_complete", after=self._grounded)
        w(engine, "ground_complete", "engine.ground_complete", after=self._grounded)
        w(groundeval, "eval_formula", "groundeval.eval_formula")
        w(verifier, "eval_formula", "groundeval.eval_formula")
        w(arith.ArithStore, "consistent", "arith.consistent")
        w(arith.ArithStore, "model", "arith.model")
        self._wrap_discharge(verifier)

    def _grounded(self, res, args) -> None:
        if res is not None:
            self.ground_ok += 1

    def _wrap_discharge(self, verifier) -> None:
        """One row per discharged PO: steps, time, iterations, clones."""
        orig = verifier.discharge
        meter, calls = self.meter, self.calls

        def discharge(po, *args, **kw):
            steps0, clones0 = meter.steps, calls["engine.clone"]
            r = orig(po, *args, **kw)
            self.po_iterations.append(r.iterations)
            self.po_rows.append({
                "po": po.po_id, "verdict": r.status, "steps": meter.steps - steps0,
                "time_ms": round(r.time_ms, 3), "iterations": r.iterations,
                "clones": calls["engine.clone"] - clones0,
            })
            return r

        self._undo.append((verifier, "discharge", orig))
        verifier.discharge = discharge

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self, passes: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-pass values of every per-layer metric, with units; times are
        multiplied by ``scale`` to bring them to the reference speed."""
        c = self.calls
        s = Counter({k: v * scale for k, v in self.seconds.items()})

        def per(x: float) -> float:
            return x / passes

        ground_calls = c["engine.ground_complete"]
        return {
            "rules.rewrite_calls": (per(c["rules.rewrite"]), "count"),
            "rules.rewrite_s": (per(s["rules.rewrite"]), "s"),
            "formulas.subst_formula_calls": (per(c["formulas.subst_formula"]), "count"),
            "formulas.subst_formula_s": (per(s["formulas.subst_formula"]), "s"),
            "terms.compose_calls": (per(c["terms.compose"]), "count"),
            "engine.clone_calls": (per(c["engine.clone"]), "count"),
            "engine.scan_sorts_calls": (per(c["engine.scan_sorts"]), "count"),
            "machines.parse_s": (per(s["machines.parse"]), "s"),
            "parser.parse_s": (per(s["parser.parse"]), "s"),
            "typecheck.s": (per(s["typecheck"]), "s"),
            "verifier.generate_pos_s": (per(s["verifier.generate_pos"]), "s"),
            "engine.ground_complete_calls": (per(ground_calls), "count"),
            "engine.ground_complete_s": (per(s["engine.ground_complete"]), "s"),
            "engine.ground_ok_ratio": (self.ground_ok / ground_calls if ground_calls
                                       else 0.0, "ratio"),
            "groundeval.eval_formula_calls": (per(c["groundeval.eval_formula"]), "count"),
            "groundeval.eval_formula_s": (per(s["groundeval.eval_formula"]), "s"),
            "arith.consistent_calls": (per(c["arith.consistent"]), "count"),
            "arith.consistent_s": (per(s["arith.consistent"]), "s"),
            "arith.model_s": (per(s["arith.model"]), "s"),
            "negate.nnf_s": (per(s["negate.nnf"]), "s"),
            "verifier.iterations_per_po": (
                sum(self.po_iterations) / len(self.po_iterations)
                if self.po_iterations else 0.0, "count"),
        }
