"""The package evaluator and the independent oracle must agree everywhere."""
import random

import oracle
import pytest
from setsolve.formulas import ARITY, C, Constraint, QPayload, conj, disj, Neg
from setsolve.groundeval import (
    NotGround, eval_constraint, eval_formula, term_value, value_to_term,
)
from setsolve.terms import (
    CP, EMPTY, Atom, Int, Interval, Pair, Str, Term, Var, mkset,
)

GROUND_KINDS = [
    "eq", "neq", "in", "nin", "un", "nun", "disj", "ndisj", "subset",
    "nsubset", "comp", "ncomp", "inv", "ninv", "id", "nid", "pfun", "npfun",
    "dom", "ndom", "ran", "nran", "applyTo", "foplus", "le", "lt", "is",
    "npair",
]


def rnd_scalar(r: random.Random) -> Term:
    return r.choice([
        Int(r.randint(-3, 3)),
        Atom(r.choice("abc")),
        Str(r.choice(["u", "v"])),
    ])


def rnd_term(r: random.Random, depth: int = 2) -> Term:
    if depth == 0:
        return rnd_scalar(r)
    pick = r.random()
    if pick < 0.35:
        return rnd_scalar(r)
    if pick < 0.55:
        return mkset([rnd_term(r, depth - 1) for _ in range(r.randint(0, 3))])
    if pick < 0.7:
        return mkset([Pair(rnd_scalar(r), rnd_scalar(r))
                      for _ in range(r.randint(0, 3))])
    if pick < 0.8:
        return Pair(rnd_term(r, depth - 1), rnd_term(r, depth - 1))
    if pick < 0.9:
        lo = r.randint(-3, 3)
        return Interval(Int(lo), Int(lo + r.randint(-1, 3)))
    return CP(mkset([rnd_scalar(r) for _ in range(r.randint(0, 2))]),
              mkset([rnd_scalar(r) for _ in range(r.randint(0, 2))]))


def rnd_constraint(r: random.Random) -> Constraint:
    k = r.choice(GROUND_KINDS)
    if k in ("le", "lt", "is"):
        return C(k, Int(r.randint(-4, 4)), Int(r.randint(-4, 4)))
    return C(k, *[rnd_term(r) for _ in range(ARITY[k])])


def agree(c: Constraint) -> None:
    try:
        mine = oracle.holds(c)
    except oracle.Undecidable:
        return
    theirs = eval_constraint(c)
    assert mine == theirs, f"{c} oracle={mine} groundeval={theirs}"


def test_agreement_on_random_ground_constraints():
    r = random.Random(20260819)
    for _ in range(4000):
        agree(rnd_constraint(r))


def test_agreement_on_random_ground_formulas():
    r = random.Random(77)
    for _ in range(800):
        parts = [rnd_constraint(r) for _ in range(r.randint(1, 4))]
        f = conj(parts) if r.random() < 0.5 else disj(parts)
        if r.random() < 0.3:
            f = Neg(f)
        try:
            mine = oracle.holds(f)
        except oracle.Undecidable:
            continue
        assert mine == eval_formula(f)


SMALL = [Atom("a"), Atom("b"), Int(1), Int(2)]


def rnd_small_pairs(r: random.Random, lo: int = 0) -> Term:
    return mkset([Pair(r.choice(SMALL), r.choice(SMALL)) for _ in range(r.randint(lo, 3))])


def rnd_open_term(r: random.Random, names: list[str], depth: int = 2) -> Term:
    """A random term whose leaves are often one of ``names``."""
    if depth == 0 or r.random() < 0.4:
        return Var(r.choice(names)) if r.random() < 0.7 else rnd_scalar(r)
    if r.random() < 0.5:
        return mkset([rnd_open_term(r, names, depth - 1) for _ in range(r.randint(0, 3))])
    return Pair(rnd_open_term(r, names, depth - 1), rnd_open_term(r, names, depth - 1))


def rnd_open_constraint(r: random.Random, names: list[str]) -> Constraint:
    """A constraint over ``names``: half of them of a form whose truth
    depends on which value each name has, the others of any kind."""
    x, y = Var(r.choice(names)), Var(r.choice(names))
    pick = r.random()
    if pick < 0.15:
        return C(r.choice(["eq", "neq"]), x, r.choice(SMALL))
    if pick < 0.3:
        return C(r.choice(["in", "nin"]), x, mkset(r.sample(SMALL, r.randint(1, 3))))
    if pick < 0.5:
        return C(r.choice(["in", "nin"]), Pair(x, y), rnd_small_pairs(r, 1))
    k = r.choice(GROUND_KINDS)
    if k in ("le", "lt", "is"):
        return C(k, x if r.random() < 0.6 else Int(r.randint(-3, 3)), y)
    return C(k, *[rnd_open_term(r, names) for _ in range(ARITY[k])])


def rnd_domain(r: random.Random) -> Term:
    """A set of scalars, of pairs or of sets of pairs, or any random term."""
    pick = r.random()
    if pick < 0.3:
        return mkset(r.sample(SMALL, r.randint(0, 3)))
    if pick < 0.6:
        return rnd_small_pairs(r)
    if pick < 0.8:
        return mkset([rnd_small_pairs(r) for _ in range(r.randint(0, 2))])
    return rnd_term(r)


def rnd_quant(r: random.Random, names: list[str], depth: int = 1) -> Constraint:
    """A quantifier over a variable or pair binder whose body uses it; with
    ``depth``, the body may be a quantifier over the binder."""
    k = len(names)
    if r.random() < 0.5:
        binder, bound, dom = Var(f"Q{k}"), [f"Q{k}"], rnd_domain(r)
    else:
        binder, bound = Pair(Var(f"Q{k}"), Var(f"Q{k + 1}")), [f"Q{k}", f"Q{k + 1}"]
        dom = rnd_small_pairs(r, 1)
    if names and r.random() < 0.3:
        dom = Var(r.choice(names))
    inner = names + bound
    if depth and r.random() < 0.4:
        body = rnd_quant(r, inner, depth - 1)
    else:
        body = conj([rnd_open_constraint(r, inner) for _ in range(r.randint(1, 2))])
    return Constraint(r.choice(["foreach", "exists"]), (), q=QPayload(binder, dom, (), body, None))


def agree_under(f, env: dict[str, Term], tally: dict[str, int]) -> None:
    """Evaluate ``f`` under ``env`` with the oracle and the package, check
    that they agree where both decide it, and count in ``tally`` whether
    both, only the oracle, only the package or neither decided it."""
    try:
        mine = oracle.holds(f, env)
    except oracle.Undecidable:
        mine = None
    try:
        theirs = eval_formula(f, {k: term_value(t) for k, t in env.items()})
    except NotGround:
        theirs = None
    if mine is not None and theirs is not None:
        assert mine == theirs, f"{f} under {env}"
    key = {(True, True): "both", (True, False): "oracle", (False, True): "package",
           (False, False): "neither"}[mine is not None, theirs is not None]
    tally[key] = tally.get(key, 0) + 1


def decided_alike(tally: dict[str, int], both: int) -> None:
    """At least ``both`` formulas were decided by both evaluators, and at
    most 3 by the oracle alone.  One side alone can decide an ``exists``
    that is true on one element and undecidable on another, such as
    ``exists(X in {2, a}, X is X)``, when it meets the true one first; the
    order of a set's elements follows string hashing, so it varies from
    run to run, and a few such formulas are each generator's share."""
    assert tally.get("both", 0) >= both, tally
    assert tally.get("oracle", 0) <= 3, tally


def test_agreement_on_quantifiers():
    r = random.Random(5150)
    for _ in range(300):
        dom = rnd_term(r)
        body = rnd_constraint(r)
        kind = r.choice(["foreach", "exists"])
        q = Constraint(kind, (), q=QPayload(Var("Q0"), dom, (), body, None))
        try:
            mine = oracle.holds(q)
        except oracle.Undecidable:
            continue
        assert mine == eval_constraint(q), f"{q}"


def test_agreement_on_quantifiers_over_their_binders():
    # 478 or 479 of the 600 are decided by both.
    r = random.Random(5150)
    tally: dict[str, int] = {}
    for _ in range(600):
        agree_under(rnd_quant(r, []), {}, tally)
    decided_alike(tally, 470)


def test_agreement_on_quantifiers_over_free_variables():
    # 483 or 484 of the 600 are decided by both.
    r = random.Random(4242)
    tally: dict[str, int] = {}
    for _ in range(600):
        env = {"F0": rnd_domain(r), "F1": rnd_term(r)}
        f = rnd_quant(r, list(env)) if r.random() < 0.7 else \
            conj([rnd_open_constraint(r, list(env)) for _ in range(2)])
        agree_under(f, env, tally)
    decided_alike(tally, 475)


def test_agreement_on_a_functional_slot():
    # foreach/exists(X in D, [L0, L1], applyTo(F, X, L0) & applyTo(G, L0, L1),
    # body over X, L0 and L1), with F a function on D and G one on F's
    # images.  The outer values of L0 and L1 are shadowed by the locals.
    # 391 or 392 of the 400 are decided by both.
    r = random.Random(99)
    tally: dict[str, int] = {}
    for _ in range(400):
        points = list({term_value(t): t for t in
                       (rnd_scalar(r) for _ in range(r.randint(0, 3)))}.values())
        images = [r.choice(SMALL) for _ in points]
        env = {"D": mkset(points), "F": mkset([Pair(x, y) for x, y in zip(points, images)]),
               "G": mkset([Pair(y, rnd_term(r, 1)) for y in set(images)]),
               "L0": r.choice(images or SMALL), "L1": rnd_scalar(r)}
        body = conj([rnd_open_constraint(r, ["Q0", "L0", "L1", "D"])
                     for _ in range(r.randint(1, 2))])
        funcs = conj([C("applyTo", Var("F"), Var("Q0"), Var("L0")),
                      C("applyTo", Var("G"), Var("L0"), Var("L1"))])
        q = QPayload(Var("Q0"), Var("D"), ("L0", "L1"), body, funcs)
        agree_under(Constraint(r.choice(["foreach", "exists"]), (), q=q), env, tally)
    decided_alike(tally, 385)


def test_term_value_round_trip():
    r = random.Random(3)
    for _ in range(300):
        t = rnd_term(r)
        v = term_value(t)
        assert term_value(value_to_term(v)) == v


def test_value_encodings_match_on_equality():
    r = random.Random(9)
    for _ in range(500):
        a, b = rnd_term(r), rnd_term(r)
        assert (term_value(a) == term_value(b)) == \
            (oracle.val(a, {}) == oracle.val(b, {}))
