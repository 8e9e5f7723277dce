"""Evaluation of ground terms and formulas against plain set semantics.

This is the semantic reference the verifier uses to validate counterexamples:
a reported witness must make the (ground) negated obligation evaluate to
true here.  Values are hashable Python objects: ints, ``('atom', name)``,
``('str', s)``, ``('pair', a, b)`` and frozensets.
"""
from __future__ import annotations

from typing import Optional

from . import arith
from .formulas import (
    COMPLEMENT, And, Constraint, FalseF, Formula, Implies, Neg, Or, PredCall, TrueF,
    binder_names, conjuncts, subst_formula,
)
from .terms import (
    CP, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var, VarGen,
    is_ground, mkset, term_key,
)


class NotGround(Exception):
    pass


def term_value(t: Term):
    """Ground term -> hashable value.  CP and intervals expand to their
    extensional contents."""
    if isinstance(t, Atom):
        return ("atom", t.name)
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Str):
        return ("str", t.value)
    if isinstance(t, Pair):
        return ("pair", term_value(t.first), term_value(t.second))
    if isinstance(t, EmptySet):
        return frozenset()
    if isinstance(t, ExtSet):
        elems = set()
        cur: Term = t
        while isinstance(cur, ExtSet):
            elems.add(term_value(cur.head))
            cur = cur.tail
        return frozenset(elems) | term_value(cur)
    if isinstance(t, CP):
        a, b = term_value(t.left), term_value(t.right)
        return frozenset(("pair", x, y) for x in a for y in b)
    if isinstance(t, Interval):
        return frozenset(range(term_value(t.lo), term_value(t.hi) + 1))
    if isinstance(t, Var):
        raise NotGround(f"unbound variable {t.name}")
    raise TypeError(f"not a term: {t!r}")


def is_pair_value(v) -> bool:
    return isinstance(v, tuple) and len(v) == 3 and v[0] == "pair"


def is_relation(v) -> bool:
    return isinstance(v, frozenset) and all(is_pair_value(x) for x in v)


def rel_pairs(v):
    return [(x[1], x[2]) for x in v]


def compose_rel(r, s):
    out = set()
    for a, b in rel_pairs(r):
        for c, d in rel_pairs(s):
            if b == c:
                out.add(("pair", a, d))
    return frozenset(out)


def _eval_aexpr(a) -> int:
    if isinstance(a, Term):
        v = term_value(a)
        if not isinstance(v, int):
            raise NotGround(f"non-integer in arithmetic: {a!r}")
        return v
    if isinstance(a, arith.ABin):
        x, y = _eval_aexpr(a.left), _eval_aexpr(a.right)
        return {"+": x + y, "-": x - y, "*": x * y}[a.op]
    if isinstance(a, arith.ANeg):
        return -_eval_aexpr(a.body)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def eval_constraint(c: Constraint) -> bool:
    """Truth value of a ground constraint.  Raises NotGround otherwise."""
    k = c.kind
    if k.startswith("n") and k in COMPLEMENT:  # nX holds where X does not
        return not eval_constraint(Constraint(COMPLEMENT[k], c.args))
    if k in ("foreach", "exists"):
        return _eval_quant(c)
    if k in ("is", "le", "lt"):
        if k == "is":
            return term_value(c.args[0]) == _eval_aexpr(c.args[1])
        x, y = _eval_aexpr(c.args[0]), _eval_aexpr(c.args[1])
        return x <= y if k == "le" else x < y
    args = [term_value(a) for a in c.args]
    if k == "eq":
        return args[0] == args[1]
    if k == "in":
        return isinstance(args[1], frozenset) and args[0] in args[1]
    if k == "npair":
        return not is_pair_value(args[0])
    if k == "un":
        a, b, cc = args
        return (isinstance(a, frozenset) and isinstance(b, frozenset)
                and isinstance(cc, frozenset) and (a | b) == cc)
    if k == "disj":
        a, b = args
        return isinstance(a, frozenset) and isinstance(b, frozenset) and not (a & b)
    if k == "subset":
        a, b = args
        return isinstance(a, frozenset) and isinstance(b, frozenset) and a <= b
    if k == "comp":
        r, s, t = args
        return (is_relation(r) and is_relation(s) and isinstance(t, frozenset)
                and compose_rel(r, s) == t)
    if k == "inv":
        r, t = args
        return (is_relation(r) and isinstance(t, frozenset)
                and frozenset(("pair", b, a) for a, b in rel_pairs(r)) == t)
    if k == "id":
        a, r = args
        return (isinstance(a, frozenset) and isinstance(r, frozenset)
                and frozenset(("pair", x, x) for x in a) == r)
    if k == "pfun":
        f = args[0]
        return is_relation(f) and len({a for a, _ in rel_pairs(f)}) == len(f)
    if k == "dom":
        r, d = args
        return (is_relation(r) and isinstance(d, frozenset)
                and frozenset(a for a, _ in rel_pairs(r)) == d)
    if k == "ran":
        r, d = args
        return (is_relation(r) and isinstance(d, frozenset)
                and frozenset(b for _, b in rel_pairs(r)) == d)
    if k == "applyTo":
        f, x, y = args
        if not is_relation(f):
            return False
        images = [b for a, b in rel_pairs(f) if a == x]
        return len(images) == 1 and images[0] == y
    if k == "foplus":
        f, x, y, g = args
        if not is_relation(f) or not isinstance(g, frozenset):
            return False
        images = [b for a, b in rel_pairs(f) if a == x]
        if len(images) > 1:
            return False  # override is undefined on a non-functional point
        rest = frozenset(p for p in f if not (is_pair_value(p) and p[1] == x))
        return g == rest | {("pair", x, y)}
    raise ValueError(f"cannot evaluate constraint kind {k}")


def _eval_quant(c: Constraint) -> bool:
    q = c.q
    assert q is not None
    dom = term_value(q.domain)
    if not isinstance(dom, frozenset):
        raise NotGround("quantifier domain is not a set")
    gen = VarGen()
    names = binder_names(q.binder)
    for v in dom:
        s = _match_binder(q.binder, names, v)
        if s is None:
            if c.kind == "foreach":
                return False
            continue
        inner = q.body if q.funcs is None else And((q.funcs, q.body))
        if q.locals:
            # Locals are existential per element: search tiny instantiation
            # is not possible here, so ground evaluation requires the funcs
            # part to determine them; evaluate by trying to solve locally.
            ok = _eval_with_locals(inner, s, q.locals)
        else:
            ok = eval_formula(subst_formula(s, inner, gen))
        if c.kind == "foreach" and not ok:
            return False
        if c.kind == "exists" and ok:
            return True
    return c.kind == "foreach"


def _match_binder(binder: Term, names, v) -> Optional[dict[str, Term]]:
    if isinstance(binder, Var):
        return {binder.name: value_to_term(v)}
    if not is_pair_value(v):
        return None
    return {names[0]: value_to_term(v[1]), names[1]: value_to_term(v[2])}


def _eval_with_locals(inner: Formula, s: dict[str, Term], locals_: tuple[str, ...]) -> bool:
    """Evaluate a quantifier body whose locals are defined by functional
    predicates: extract their values from applyTo/is/eq conjuncts, then
    evaluate the rest."""
    gen = VarGen()
    f = subst_formula(s, inner, gen)
    pending = set(locals_)
    progress = True
    while pending and progress:
        progress = False
        for local, val in _local_defs(f, pending):
            f = subst_formula({local: val}, f, gen)
            pending.discard(local)
            progress = True
    if pending:
        raise NotGround(f"quantifier locals not determined: {sorted(pending)}")
    return eval_formula(f)


def _local_defs(f: Formula, pending: set[str]):
    out = []
    for c in conjuncts(f):
        if not isinstance(c, Constraint):
            continue
        if c.kind == "applyTo":
            fn, x, y = c.args
            if isinstance(y, Var) and y.name in pending and is_ground(fn) and is_ground(x):
                fv, xv = term_value(fn), term_value(x)
                if is_relation(fv):
                    images = [b for a, b in rel_pairs(fv) if a == xv]
                    if len(images) == 1:
                        out.append((y.name, value_to_term(images[0])))
        elif c.kind == "is":
            t, e = c.args
            if isinstance(t, Var) and t.name in pending and arith.expr_is_ground(e):
                out.append((t.name, Int(arith.eval_ground(e))))
        elif c.kind == "eq":
            a, b = c.args
            if isinstance(a, Var) and a.name in pending and is_ground(b):
                out.append((a.name, b))
            elif isinstance(b, Var) and b.name in pending and is_ground(a):
                out.append((b.name, a))
    return out


def eval_formula(f: Formula) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Constraint):
        return eval_constraint(f)
    if isinstance(f, And):
        return all(eval_formula(p) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p) for p in f.parts)
    if isinstance(f, Neg):
        return not eval_formula(f.body)
    if isinstance(f, Implies):
        return (not eval_formula(f.left)) or eval_formula(f.right)
    if isinstance(f, PredCall):
        raise NotGround("predicate call must be expanded before evaluation")
    raise TypeError(f"not a formula: {f!r}")


def value_to_term(v) -> Term:
    """Inverse of term_value, producing a canonical ground term."""
    if isinstance(v, bool):
        raise TypeError("no boolean values")
    if isinstance(v, int):
        return Int(v)
    if isinstance(v, frozenset):
        elems = sorted((value_to_term(x) for x in v), key=term_key)
        return mkset(elems)
    if isinstance(v, tuple):
        if v[0] == "atom":
            return Atom(v[1])
        if v[0] == "str":
            return Str(v[1])
        if v[0] == "pair":
            return Pair(value_to_term(v[1]), value_to_term(v[2]))
    raise TypeError(f"not a value: {v!r}")
