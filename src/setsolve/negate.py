"""Negation of formulas into the positive constraint language.

Every primitive constraint has an exact complement, so negation never leaves
the language.  The exceptions that cannot be negated soundly (function
override, predicate calls that introduce local existentials) raise
``NotNegatable`` instead of producing an unsound approximation.
"""
from __future__ import annotations

from .formulas import (
    COMPLEMENT, And, C, Constraint, FalseF, Formula, Implies, Neg, Or, PredCall,
    Program, QPayload, TrueF, conj, disj, instantiate_clause,
)
from .terms import Pair, VarGen, mkset, term_vars


class NotNegatable(Exception):
    pass


def negate(f: Formula, gen: VarGen, program: Program | None = None) -> Formula:
    if isinstance(f, TrueF):
        return FalseF()
    if isinstance(f, FalseF):
        return TrueF()
    if isinstance(f, And):
        return disj([negate(p, gen, program) for p in f.parts])
    if isinstance(f, Or):
        return conj([negate(p, gen, program) for p in f.parts])
    if isinstance(f, Neg):
        return f.body
    if isinstance(f, Implies):
        return conj([f.left, negate(f.right, gen, program)])
    if isinstance(f, PredCall):
        if program is None:
            raise NotNegatable(f"call to {f.name}/{len(f.args)} under negation")
        clause = program.lookup(f.name, len(f.args))
        if clause is None:
            raise NotNegatable(f"unknown predicate {f.name}/{len(f.args)}")
        body, renamed = instantiate_clause(clause, f.args, gen)
        if renamed:
            raise NotNegatable(
                f"predicate {f.name}/{len(f.args)} has local variables; "
                "its negation is universally quantified")
        return negate(body, gen, program)
    if isinstance(f, Constraint):
        return _negate_constraint(f, gen)
    raise NotNegatable(f"cannot negate {type(f).__name__}")


def _negate_constraint(c: Constraint, gen: VarGen) -> Formula:
    k = c.kind
    if k in COMPLEMENT:
        return Constraint(COMPLEMENT[k], c.args)
    if k == "le":
        a, b = c.args
        return C("lt", b, a)
    if k == "lt":
        a, b = c.args
        return C("le", b, a)
    if k == "is":
        t, e = c.args
        return disj([C("lt", t, e), C("lt", e, t)])
    if k == "npair":
        t, = c.args
        return C("eq", t, Pair(gen.fresh(), gen.fresh()))
    if k == "applyTo":
        f, x, y = c.args
        return C("ncomp", mkset([Pair(x, x)]), f, mkset([Pair(x, y)]))
    if k == "dec":
        return FalseF()
    if k in ("foreach", "exists"):
        return _negate_quant(c, gen)
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


def _negate_quant(c: Constraint, gen: VarGen) -> Formula:
    q = c.q
    _check_funcs(q)
    nb = negate(q.body, gen)
    other = "exists" if c.kind == "foreach" else "foreach"
    return Constraint(other, (), q=QPayload(q.binder, q.domain, q.locals, nb, q.funcs))


def nnf(f: Formula, gen: VarGen, program: Program | None = None) -> Formula:
    """Push negations inward until none remain.

    A declaration ``dec(X, T)`` is for the typechecker, which reads it from
    the formula before this: here it is true, as its negation is false, so
    no declaration reaches the solver."""
    if isinstance(f, And):
        return conj([nnf(p, gen, program) for p in f.parts])
    if isinstance(f, Or):
        return disj([nnf(p, gen, program) for p in f.parts])
    if isinstance(f, Neg):
        return nnf(negate(f.body, gen, program), gen, program)
    if isinstance(f, Implies):
        return disj([nnf(negate(f.left, gen, program), gen, program),
                     nnf(f.right, gen, program)])
    if isinstance(f, Constraint) and f.kind == "dec":
        return TrueF()
    if isinstance(f, Constraint) and f.q is not None:
        q = f.q
        body = nnf(q.body, gen, program)
        funcs = nnf(q.funcs, gen, program) if q.funcs is not None else None
        return Constraint(f.kind, (), q=QPayload(q.binder, q.domain, q.locals, body, funcs))
    return f
