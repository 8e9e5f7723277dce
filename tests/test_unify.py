"""Set unification: equality modulo permutation and absorption."""
import random

import oracle
from conftest import certify, certify_unsat
from setsolve.engine import solve
from setsolve.formulas import C
from setsolve.parser import parse_formula
from setsolve.terms import (
    CP, EMPTY, Atom, ExtSet, Int, Interval, Pair, Str, Var, VarGen, mkset,
    subst_term,
)
from setsolve.unify import concretize, unify

from test_groundeval import rnd_term


def ints(*ns):
    return mkset([Int(n) for n in ns])


def test_ground_sets_unify_modulo_order_and_repeats():
    assert unify(ints(1, 2), ints(2, 1))
    assert unify(ints(1, 1, 2), ints(2, 1))
    assert not unify(ints(1, 2), ints(1, 3))
    assert not unify(ints(1), EMPTY)
    assert unify(EMPTY, EMPTY) == [({}, [])]


def test_scalar_unification():
    assert unify(Int(1), Int(1)) == [({}, [])]
    assert not unify(Int(1), Int(2))
    assert not unify(Atom("a"), Str("a"))
    assert not unify(Atom("a"), Int(1))
    sub = unify(Var("X"), Int(3))[0][0]
    assert sub == {"X": Int(3)}


def test_pairs_unify_componentwise():
    got = unify(Pair(Var("X"), Int(2)), Pair(Int(1), Var("Y")))
    assert len(got) == 1
    assert got[0][0] == {"X": Int(1), "Y": Int(2)}
    assert not unify(Pair(Int(1), Int(2)), Pair(Int(2), Int(1)))


def test_element_choice_branches():
    got = unify(mkset([Var("X")], tail=Var("A")), ints(1, 2))
    picks = {subst_term(s, Var("X")) for s, _ in got}
    assert Int(1) in picks and Int(2) in picks


def test_two_listed_sets_with_the_same_head_have_no_swap_branch():
    # The swap branch would bind A and B to one term, an instance of A = B.
    a, A, B = Atom("a"), Var("A"), Var("B")
    got = unify(mkset([a], tail=A), mkset([a], tail=B))
    assert [s for s, _ in got] == [{"A": B}, {"B": mkset([a], tail=A)},
                                   {"A": mkset([a], tail=B)}]
    # Heads that may still differ keep all four.
    assert len(unify(mkset([Var("X")], tail=A), mkset([Var("Y")], tail=B))) == 4


SETS = oracle.subsets(["a:a", "a:b", "a:c"])
INTS = [-1, 0, 1, 2, 3]


def test_two_products_unify_factor_by_factor_or_through_an_empty_factor():
    f = parse_formula("cp(A, B) = cp(C, D) & a in A & d in D")
    certify(f, solve(f))
    f = parse_formula("cp(A, B) = cp(C, D) & a in A & b in B & C = {c}")
    certify_unsat(f, solve(f), {"A": SETS, "B": SETS, "C": SETS, "D": SETS})


def test_two_intervals_unify_bound_by_bound_or_both_empty():
    f = parse_formula("int(L, H) = int(1, N) & N > 0")
    certify(f, solve(f))
    f = parse_formula("int(L, 2) = int(1, N) & L > 1 & N > 1")
    certify_unsat(f, solve(f), {"L": INTS, "N": INTS})


def test_tail_occurs_is_membership_not_failure():
    got = unify(Var("X"), mkset([Int(1)], tail=Var("X")))
    assert got
    s = got[0][0]
    rebound = s["X"]
    assert isinstance(rebound, ExtSet) and rebound.head == Int(1)
    assert isinstance(rebound.tail, Var) and rebound.tail.name != "X"


def test_cyclic_equations_outside_set_tails_fail():
    assert not unify(Var("X"), Pair(Var("X"), Int(1)))
    assert not unify(Var("X"), Pair(Int(1), mkset([Var("X")])))


def test_interval_and_product_against_extensional():
    assert unify(Interval(Int(1), Int(2)), ints(1, 2))
    assert not unify(Interval(Int(1), Int(2)), ints(1, 3))
    cp = CP(ints(1), ints(2, 3))
    assert unify(cp, mkset([Pair(Int(1), Int(2)), Pair(Int(1), Int(3))]))
    assert not unify(cp, mkset([Pair(Int(1), Int(2))]))


def test_concretize_normalizes_ground_aggregates():
    assert concretize(Interval(Int(1), Int(3))) == ints(1, 2, 3)
    assert concretize(Interval(Int(3), Int(1))) == EMPTY
    got = concretize(CP(ints(1), ints(2)))
    assert got == mkset([Pair(Int(1), Int(2))])
    assert concretize(ints(1)) is None
    assert concretize(CP(Var("A"), EMPTY)) is None


def test_random_ground_unification_matches_value_equality():
    r = random.Random(424242)
    checked = 0
    for _ in range(1500):
        a, b = rnd_term(r), rnd_term(r)
        va, vb = oracle.val(a, {}), oracle.val(b, {})
        branches = unify(a, b, VarGen())
        # A residual-free branch decides equality outright; residual
        # branches delegate, so only the clean outcomes are compared.
        if any(not res for _, res in branches):
            assert va == vb, f"{a} vs {b}"
            checked += 1
        elif not branches:
            assert va != vb, f"{a} vs {b}"
            checked += 1
    assert checked > 1000


def test_residual_branches_are_sound_via_solver():
    # Mixed equations hand back constraints; the solver must agree with
    # plain value equality once it processes them.
    cases = [
        (CP(Var("A"), Var("B")), EMPTY),
        (CP(ints(1, 2), Var("B")), mkset([Pair(Int(1), Int(9)),
                                          Pair(Int(2), Int(9))])),
        (Interval(Var("L"), Int(2)), ints(1, 2)),
    ]
    for a, b in cases:
        res = solve(C("eq", a, b))
        assert res.solutions, f"{a} = {b} should be satisfiable"
