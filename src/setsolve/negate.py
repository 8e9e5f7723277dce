"""Negation of formulas into the positive constraint language.

One walk carries the polarity, positive from ``nnf`` and negative from
``negate``; ``neg`` and the left side of ``implies`` flip it, and under a
negative one each connective and quantifier takes its dual.  Every
primitive constraint has an exact complement, so negation never leaves the
language.  A negated predicate call unfolds its clause, walked with the
call on the path: a negated call of a predicate on the path is recursive,
an error as in ``expand_calls``, which unfolds the positive calls.  What
cannot be negated soundly (function override, a call with local
existentials, a quantifier whose let-part is not functional) raises
``NotNegatable``.  ``dec(X, T)`` is for the typechecker, which reads it
before this: here it is true, so no declaration reaches the solver.
"""
from __future__ import annotations

from .formulas import (
    COMPLEMENT, FALSE, TRUE, And, C, Constraint, FalseF, Formula, IllFormed,
    Implies, Neg, Or, PredCall, Program, QPayload, TrueF, conj, disj,
    instantiate_clause,
)
from .terms import Pair, VarGen, mkset, term_vars


class NotNegatable(Exception):
    pass


def negate(f: Formula, gen: VarGen, program: Program | None = None) -> Formula:
    """The negation of ``f``, with no negation or implication left."""
    return _walk(f, False, gen, program, ())


def nnf(f: Formula, gen: VarGen, program: Program | None = None) -> Formula:
    """``f`` with negations pushed inward until none remain."""
    return _walk(f, True, gen, program, ())


def _walk(f: Formula, pos: bool, gen: VarGen, program: Program | None,
          path: tuple) -> Formula:
    """``f`` if ``pos``, else its negation, in negation normal form;
    ``path`` holds the predicates whose negated calls enclose ``f``."""
    if isinstance(f, (And, Or)):
        parts = [_walk(p, pos, gen, program, path) for p in f.parts]
        return conj(parts) if isinstance(f, And) == pos else disj(parts)
    if isinstance(f, Neg):
        return _walk(f.body, not pos, gen, program, path)
    if isinstance(f, Implies):
        left = _walk(f.left, not pos, gen, program, path)
        right = _walk(f.right, pos, gen, program, path)
        return disj([left, right]) if pos else conj([left, right])
    if isinstance(f, (TrueF, FalseF)):
        return f if pos else (FALSE if isinstance(f, TrueF) else TRUE)
    if isinstance(f, PredCall):
        return f if pos else _negate_call(f, gen, program, path)
    if isinstance(f, Constraint):
        q = f.q
        if q is not None:
            kind = f.kind
            if not pos:
                _check_funcs(q)
                kind = "exists" if kind == "foreach" else "foreach"
            body = _walk(q.body, pos, gen, program, path)
            funcs = None if q.funcs is None else _walk(q.funcs, True, gen, program, path)
            return Constraint(kind, (), q=QPayload(q.binder, q.domain, q.locals, body, funcs))
        if f.kind == "dec":
            return TRUE if pos else FALSE
        return f if pos else _negate_constraint(f, gen)
    raise NotNegatable(f"cannot negate {type(f).__name__}")


def _negate_call(f: PredCall, gen: VarGen, program: Program | None,
                 path: tuple) -> Formula:
    key = (f.name, len(f.args))
    if program is None:
        raise NotNegatable(f"call to {f.name}/{len(f.args)} under negation")
    if key in path:
        raise IllFormed(f"recursive predicate {f.name}/{len(f.args)} cannot be expanded")
    clause = program.lookup(*key)
    if clause is None:
        raise NotNegatable(f"unknown predicate {f.name}/{len(f.args)}")
    body, renamed = instantiate_clause(clause, f.args, gen)
    if renamed:
        raise NotNegatable(
            f"predicate {f.name}/{len(f.args)} has local variables; "
            "its negation is universally quantified")
    return _walk(body, False, gen, program, path + (key,))


def _negate_constraint(c: Constraint, gen: VarGen) -> Formula:
    k = c.kind
    if k in COMPLEMENT:
        return Constraint(COMPLEMENT[k], c.args)
    if k in ("le", "lt"):
        return C("lt" if k == "le" else "le", *c.args[::-1])
    if k == "is":
        return disj([C("lt", *c.args), C("lt", *c.args[::-1])])
    if k == "npair":
        return C("eq", c.args[0], Pair(gen.fresh(), gen.fresh()))
    if k == "applyTo":
        f, x, y = c.args
        return C("ncomp", mkset([Pair(x, x)]), f, mkset([Pair(x, y)]))
    if k == "foplus":
        raise NotNegatable("function override has no complement constraint")
    raise NotNegatable(f"no complement for {k}")


FUNC_KINDS = frozenset({"applyTo", "is", "eq"})


def _check_funcs(q: QPayload) -> None:
    """The carried bindings must determine their outputs functionally."""
    if q.funcs is None:
        return
    parts = q.funcs.parts if isinstance(q.funcs, And) else [q.funcs]
    loc = set(q.locals)
    for p in parts:
        if not isinstance(p, Constraint) or p.kind not in FUNC_KINDS:
            raise NotNegatable("quantifier bindings are not functional")
        out = p.args[2] if p.kind == "applyTo" else p.args[0]
        if not (term_vars(out) & loc):
            raise NotNegatable("quantifier binding does not target a local")
