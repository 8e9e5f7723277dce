"""Pretty-printing of terms, formulas, and answers.

The output parses back to the same AST, which the round-trip tests rely on.
"""
from __future__ import annotations

from .arith import ABin, ANeg
from .formulas import And, Constraint, FalseF, Formula, Implies, Neg, Or, PredCall, TrueF
from .parser import INFIX_OPS
from .terms import (
    CP, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var, set_parts,
)
from .typecheck import pp_type

INFIX = {kind: op for op, (kind, swap) in INFIX_OPS.items() if not swap}

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def pp_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Str):
        return '"' + t.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(t, Pair):
        return f"[{pp_term(t.first)},{pp_term(t.second)}]"
    if isinstance(t, EmptySet):
        return "{}"
    if isinstance(t, ExtSet):
        elems, tail = set_parts(t)
        inner = ",".join(pp_term(e) for e in elems)
        if isinstance(tail, EmptySet):
            return "{" + inner + "}"
        return "{" + inner + "/" + pp_term(tail) + "}"
    if isinstance(t, CP):
        return f"cp({pp_term(t.left)},{pp_term(t.right)})"
    if isinstance(t, Interval):
        return f"int({pp_term(t.lo)},{pp_term(t.hi)})"
    raise TypeError(f"not a term: {t!r}")


_APREC = {"+": 1, "-": 1, "*": 2}


def _pp_ax(a, min_prec: int) -> str:
    if isinstance(a, Term):
        return pp_term(a)
    if isinstance(a, ANeg):
        return f"-({_pp_ax(a.body, 0)})"
    if isinstance(a, ABin):
        p = _APREC[a.op]
        # Operators associate to the left, so an equal-precedence right
        # child keeps its parentheses.
        s = f"{_pp_ax(a.left, p)} {a.op} {_pp_ax(a.right, p + 1)}"
        return f"({s})" if p < min_prec else s
    raise TypeError(f"not an expression: {a!r}")


def pp_aexpr(a) -> str:
    return _pp_ax(a, 0)


def pp_constraint(c: Constraint) -> str:
    if c.q is not None:
        q = c.q
        binder = pp_term(q.binder)
        dom = pp_term(q.domain)
        if q.locals or q.funcs is not None:
            locs = "[" + ",".join(q.locals) + "]"
            funcs = _pp(q.funcs, _PREC_ATOM) if q.funcs is not None else "true"
            return f"{c.kind}({binder} in {dom},{locs},{_pp(q.body, _PREC_ATOM)},{funcs})"
        return f"{c.kind}({binder} in {dom},{_pp(q.body, _PREC_ATOM)})"
    if c.kind in INFIX:
        a, b = c.args
        return f"{pp_aexpr(a)} {INFIX[c.kind]} {pp_aexpr(b)}"
    if c.kind == "dec":
        v, ty = c.args
        return f"dec({pp_term(v)},{pp_type(ty)})"
    args = ",".join(pp_aexpr(a) for a in c.args)
    return f"{c.kind}({args})"


def _pp(f: Formula, ctx: int) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Constraint):
        s = pp_constraint(f)
        # Infix constraints bind looser than '&' visually; keep them bare,
        # the grammar treats them as atoms.
        return s
    if isinstance(f, Neg):
        return f"neg({_pp(f.body, _PREC_IMPLIES)})"
    if isinstance(f, PredCall):
        if not f.args:
            return f.name
        return f.name + "(" + ",".join(pp_aexpr(a) for a in f.args) + ")"
    if isinstance(f, And):
        s = " & ".join(_pp(p, _PREC_AND) for p in f.parts)
        return f"({s})" if ctx > _PREC_AND else s
    if isinstance(f, Or):
        s = " or ".join(_pp(p, _PREC_OR + 1) for p in f.parts)
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(f, Implies):
        s = f"{_pp(f.left, _PREC_IMPLIES + 1)} implies {_pp(f.right, _PREC_IMPLIES)}"
        return f"({s})" if ctx > _PREC_IMPLIES else s
    raise TypeError(f"not a formula: {f!r}")


def pp_formula(f: Formula) -> str:
    return _pp(f, _PREC_IMPLIES)
