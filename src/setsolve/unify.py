"""Set unification.

``unify`` returns a disjunction of candidate solutions: each branch is a
substitution plus a list of residual constraints the caller's solver must
still process.  Every equation is decided here, and none is deferred.  A
product or interval that is not ground equals ``{}`` when a factor is
empty or its bounds are out of order (``lt``).  Against a listed set, or a
product against an interval, it is split into mutual inclusion: two
``subset`` constraints, which the membership rules take apart.

Extensional sets unify modulo permutation and absorption through the
four-way decomposition on ``{t/A} = {s/B}``: match heads and tails, absorb
the head on either side, or swap both heads through a fresh common tail.
When ``t`` and ``s`` are the same term, the swap binds ``A`` and ``B`` to
one term, an instance of the ``A = B`` branch, so only three are left.
The occurs check is relaxed in set-tail position: ``X = {t/X}`` denotes
"X contains t" and rebinds X with a fresh open tail; any other cyclic
equation fails.
"""
from __future__ import annotations

from typing import Optional

from .formulas import C, Constraint
from .groundeval import term_value, value_to_term
from .terms import (
    CP, EMPTY, NON_SETS, EmptySet, ExtSet, IllSorted, Interval, Pair, Term, Var,
    VarGen, compose, is_ground, mkset, set_parts, subst_term, term_vars,
)

Branch = tuple[dict[str, Term], list[Constraint]]


def unify(t1: Term, t2: Term, gen: Optional[VarGen] = None,
          cuts: Optional[list[str]] = None) -> list[Branch]:
    """All ways to make two terms equal under set semantics.  An alternative
    whose bind leaves a term ill-sorted is dropped, and why goes to cuts."""
    if gen is None:
        # A caller's generator is already clear of the caller's variables.
        gen = VarGen()
        gen.bump_past(term_vars(t1) | term_vars(t2))
    return _solve([(t1, t2)], {}, [], gen, [] if cuts is None else cuts)


def _solve(eqs: list[tuple[Term, Term]], subst: dict[str, Term],
           residual: list[Constraint], gen: VarGen,
           cuts: list[str]) -> list[Branch]:
    """Pending equations are substituted when they are popped, so each is
    read under every bind made before it."""
    eqs = list(eqs)
    while eqs:
        a, b = eqs.pop(0)
        try:
            a = subst_term(subst, a)
            b = subst_term(subst, b)
        except IllSorted as e:
            cuts.append(str(e))
            return []
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if not isinstance(a, Var):
                a, b = b, a
            delta = _bind(a.name, b, gen)
            if delta is None:
                return []
            try:
                subst = compose(subst, delta)
            except IllSorted as e:
                cuts.append(str(e))
                return []
            continue
        if isinstance(a, Pair) and isinstance(b, Pair):
            eqs.insert(0, (a.second, b.second))
            eqs.insert(0, (a.first, b.first))
            continue
        if isinstance(a, NON_SETS) or isinstance(b, NON_SETS):
            return []  # distinct ur-elements, or an ur-element against a set
        # Both sides are set terms now.
        if is_ground(a) and is_ground(b):
            if term_value(a) != term_value(b):
                return []
            continue
        out: list[Branch] = []
        for extra_eqs, extra_cs in _set_eq_branches(a, b, gen):
            out.extend(_solve(extra_eqs + eqs, subst, residual + extra_cs, gen,
                              cuts))
        return out
    return [(dict(subst), list(residual))]


def _bind(name: str, t: Term, gen: VarGen):
    """Bind a variable, relaxing the occurs check in set-tail position.
    Returns the delta, or None when unsatisfiable."""
    if name not in term_vars(t):
        return {name: t}
    if isinstance(t, ExtSet):
        elems, tail = set_parts(t)
        spine_ok = isinstance(tail, Var) and tail.name == name
        if spine_ok and not any(name in term_vars(e) for e in elems):
            fresh = gen.fresh()
            return {name: mkset(elems, fresh)}
    return None


def _set_eq_branches(a: Term, b: Term, gen: VarGen):
    """Decompose an equation between two non-variable set terms that are not
    both ground.  Each branch is (equations, residual constraints)."""
    # Expand ground products/intervals so the extensional rules apply.
    ga = concretize(a)
    gb = concretize(b)
    if ga is not None or gb is not None:
        return [([(ga or a, gb or b)], [])]

    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        if isinstance(b, EmptySet):
            a, b = b, a
        if isinstance(b, EmptySet):
            return [([], [])]
        if isinstance(b, ExtSet):
            return []
        if isinstance(b, CP):
            return [([(b.left, EMPTY)], []), ([(b.right, EMPTY)], [])]
        if isinstance(b, Interval):
            return [([], [C("lt", b.hi, b.lo)])]

    if isinstance(a, ExtSet) and isinstance(b, ExtSet):
        t, rest_a = a.head, a.tail
        s, rest_b = b.head, b.tail
        out = [
            ([(t, s), (rest_a, rest_b)], []),
            ([(t, s), (a, rest_b)], []),
            ([(t, s), (rest_a, b)], []),
        ]
        if t != s:
            fresh = gen.fresh()
            out.append(([(rest_a, ExtSet(s, fresh)), (rest_b, ExtSet(t, fresh))], []))
        return out

    if isinstance(a, CP) and isinstance(b, CP):
        return [
            ([(a.left, b.left), (a.right, b.right)], []),
            ([(a.left, EMPTY), (b.left, EMPTY)], []),
            ([(a.left, EMPTY), (b.right, EMPTY)], []),
            ([(a.right, EMPTY), (b.left, EMPTY)], []),
            ([(a.right, EMPTY), (b.right, EMPTY)], []),
        ]

    if isinstance(a, Interval) and isinstance(b, Interval):
        return [
            ([], [C("lt", a.hi, a.lo), C("lt", b.hi, b.lo)]),
            ([(a.lo, b.lo), (a.hi, b.hi)],
             [C("le", a.lo, a.hi)]),
        ]

    # A product or interval against a set of another form: mutual inclusion.
    return [([], [C("subset", a, b), C("subset", b, a)])]


def concretize(t: Term) -> Optional[Term]:
    """Ground CP/Interval -> canonical extensional set; None when no change
    applies (returns the rewritten term only at the outermost level)."""
    if isinstance(t, (CP, Interval)) and is_ground(t):
        return value_to_term(term_value(t))
    return None
