"""Evaluation of terms and formulas against plain set semantics, the
reference the verifier validates counterexamples with.

Evaluation works on an environment that maps variable names to values, as
``tests/oracle.py`` does; a quantifier binds its binder to each element in a
copy of it.  Values are ints, ``('atom', name)``, ``('str', s)``,
``('pair', a, b)`` and frozensets.  A variable with no value, or a non-set
where a set tail, product factor or quantifier domain needs one, raises
NotGround.
"""
from __future__ import annotations

from typing import Mapping, Optional

from . import arith
from .formulas import (
    COMPLEMENT, And, Constraint, FalseF, Formula, Implies, Neg, Or, PredCall, TrueF,
    binder_names, conjuncts,
)
from .terms import (
    CP, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var, mkset, term_key,
)

Env = Optional[Mapping[str, object]]


class NotGround(Exception):
    pass


def term_value(t: Term, env: Env = None):
    """Term -> hashable value, its variables read from ``env``.  CP and
    intervals expand to their extensional contents."""
    cls = type(t)
    if cls is Atom:
        return ("atom", t.name)
    if cls is Int:
        return t.value
    if cls is Var:
        if env is not None and t.name in env:
            return env[t.name]
        raise NotGround(f"unbound variable {t.name}")
    if cls is ExtSet:
        elems = set()
        cur: Term = t
        while type(cur) is ExtSet:
            elems.add(term_value(cur.head, env))
            cur = cur.tail
        return frozenset(elems) | _set_value(cur, env, "set tail")
    if cls is EmptySet:
        return frozenset()
    if cls is Pair:
        return ("pair", term_value(t.first, env), term_value(t.second, env))
    if cls is Str:
        return ("str", t.value)
    if cls is CP:
        a = _set_value(t.left, env, "product factor")
        b = _set_value(t.right, env, "product factor")
        return frozenset(("pair", x, y) for x in a for y in b)
    if cls is Interval:
        lo, hi = term_value(t.lo, env), term_value(t.hi, env)
        if type(lo) is not int or type(hi) is not int:
            raise NotGround("interval bound is not an integer")
        return frozenset(range(lo, hi + 1))
    raise TypeError(f"not a term: {t!r}")


def _set_value(t: Term, env: Env, what: str) -> frozenset:
    v = term_value(t, env)
    if not isinstance(v, frozenset):
        raise NotGround(f"{what} is not a set")
    return v


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


def _eval_aexpr(a, env: Env) -> int:
    if isinstance(a, Term):
        v = term_value(a, env)
        if not isinstance(v, int):
            raise NotGround(f"non-integer in arithmetic: {a!r}")
        return v
    if isinstance(a, arith.ABin):
        x, y = _eval_aexpr(a.left, env), _eval_aexpr(a.right, env)
        return {"+": x + y, "-": x - y, "*": x * y}[a.op]
    if isinstance(a, arith.ANeg):
        return -_eval_aexpr(a.body, env)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def eval_constraint(c: Constraint, env: Env = None) -> bool:
    """Truth value of ``c`` under ``env``.  Raises NotGround when ``env``
    leaves it undetermined."""
    k = c.kind
    if k.startswith("n") and k in COMPLEMENT:  # nX holds where X does not
        return not eval_constraint(Constraint(COMPLEMENT[k], c.args), env)
    if k in ("foreach", "exists"):
        return _eval_quant(c, env)
    if k in ("is", "le", "lt"):
        if k == "is":
            return term_value(c.args[0], env) == _eval_aexpr(c.args[1], env)
        x, y = _eval_aexpr(c.args[0], env), _eval_aexpr(c.args[1], env)
        return x <= y if k == "le" else x < y
    args = [term_value(a, env) for a in c.args]
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


def _eval_quant(c: Constraint, env: Env) -> bool:
    q = c.q
    assert q is not None
    dom = _set_value(q.domain, env, "quantifier domain")
    names = binder_names(q.binder)
    inner = q.body if q.funcs is None else And((q.funcs, q.body))
    for v in dom:
        e = dict(env) if env else {}
        if len(names) == 1:
            e[names[0]] = v
        elif is_pair_value(v):
            e[names[0]], e[names[1]] = v[1], v[2]
        elif c.kind == "foreach":
            return False
        else:
            continue
        if q.locals:  # the functional part determines them
            _define_locals(inner, e, q.locals)
        ok = eval_formula(inner, e)
        if c.kind == "foreach" and not ok:
            return False
        if c.kind == "exists" and ok:
            return True
    return c.kind == "foreach"


def _define_locals(inner: Formula, env: dict, locals_: tuple[str, ...]) -> None:
    """Give each local the value a conjunct of ``inner`` defines, in rounds;
    within a round the first definition found wins."""
    parts = [p for p in conjuncts(inner) if isinstance(p, Constraint)]
    pending = set(locals_)
    for name in pending:
        env.pop(name, None)  # a local shadows an outer name
    while pending:
        defs = _local_defs(parts, pending, env)
        if not defs:
            raise NotGround(f"quantifier locals not determined: {sorted(pending)}")
        for local, v in defs:
            if local in pending:
                env[local] = v
                pending.discard(local)


def _local_defs(parts: list[Constraint], pending: set[str], env: dict) -> list:
    out = []
    for c in parts:
        try:
            if c.kind == "applyTo":
                fn, x, y = c.args
                if isinstance(y, Var) and y.name in pending:
                    fv, xv = term_value(fn, env), term_value(x, env)
                    if is_relation(fv):
                        images = [b for a, b in rel_pairs(fv) if a == xv]
                        if len(images) == 1:
                            out.append((y.name, images[0]))
            elif c.kind == "is":
                t, e = c.args
                if isinstance(t, Var) and t.name in pending:
                    out.append((t.name, _eval_aexpr(e, env)))
            elif c.kind == "eq":
                a, b = c.args
                if isinstance(a, Var) and a.name in pending:
                    out.append((a.name, term_value(b, env)))
                elif isinstance(b, Var) and b.name in pending:
                    out.append((b.name, term_value(a, env)))
        except NotGround:
            continue  # not determined in this round
    return out


def eval_formula(f: Formula, env: Env = None) -> bool:
    """Truth value of ``f`` under ``env``.  Raises NotGround when ``env``
    leaves it undetermined."""
    if isinstance(f, Constraint):
        return eval_constraint(f, env)
    if isinstance(f, And):
        return all(eval_formula(p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, env) for p in f.parts)
    if isinstance(f, Neg):
        return not eval_formula(f.body, env)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, env)) or eval_formula(f.right, env)
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
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
