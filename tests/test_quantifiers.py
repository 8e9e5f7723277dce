"""Bounded quantification through the solver."""
import pytest
from conftest import certify, certify_unsat
from oracle import subsets
from setsolve import cli
from setsolve.engine import ground_complete, solve
from setsolve.formulas import C, Constraint, Neg, QPayload
from setsolve.parser import parse_formula
from setsolve.terms import Int, Pair, Var, mkset


def test_universal_over_listed_domain(run):
    assert run("foreach(X in {1,2,3}, X in {1,2,3,4})").solutions
    assert run("foreach(X in {1,2,3}, X in {1,2})").unsat
    assert run("foreach(X in {}, 1 = 2)").solutions


def test_existential_over_listed_domain(run):
    assert run("exists(X in {1,2,3}, X = 2)").solutions
    assert run("exists(X in {1,2}, X = 5)").unsat
    assert run("exists(X in {}, 1 = 1)").unsat


def test_universal_constrains_open_variables(run):
    f = parse_formula("foreach(X in {1,2}, X in S) & S = {1,2,7}")
    res = run(f)
    certify(f, res)
    f2 = parse_formula("foreach(X in {1,2}, X in S) & S = {1}")
    assert run(f2).unsat


def test_existential_binds_witness(run):
    f = parse_formula("exists(X in {3,4}, Y = X) & Y = 4")
    res = run(f)
    certify(f, res)


def test_pair_binders(run):
    assert run("foreach([X,Y] in {[1,2],[2,3]}, X < Y)").solutions
    assert run("foreach([X,Y] in {[2,1]}, X < Y)").unsat
    assert run("exists([X,Y] in {[1,2],[5,4]}, Y < X)").solutions
    # A listed pair binds both names: no fresh names are drawn for it.
    sol = run("exists([X, Y] in {[1, 2]}, X in V)").solutions[0]
    assert cli._answer_line(sol) == "V = {1/_N1}, 1 nin _N1"


def test_quantifier_over_interval(run):
    assert run("foreach(X in int(1,4), X >= 1)").solutions
    assert run("exists(X in int(1,4), X = 3)").solutions
    assert run("foreach(X in int(1,4), X < 4)").unsat


@pytest.mark.parametrize("text, pools", [
    ("exists(X in D, X = a)", None),
    ("exists(X in D, X = a) & a nin D", {"D": subsets(["a:a", "a:b"])}),
    ("exists(X in cp(A, {2}), X = [1, 2])", None),
    ("exists(X in cp(A, {2}), X = [1, 2]) & 1 nin A", {"A": subsets([1, 2])}),
    ("exists(X in int(1, N), X = 3) & N < 5", None),
    ("exists(X in int(1, N), X = 3) & N < 3", {"N": list(range(-1, 6))}),
])
def test_existential_over_an_open_domain(run, text, pools):
    """A variable, product or interval domain gets a witness; Unsat answers
    (those given ``pools``) are checked by the oracle's bounded search."""
    f = parse_formula(text)
    if pools is None:
        certify(f, run(f))
    else:
        certify_unsat(f, run(f), pools)


def test_nested_quantifiers(run):
    assert run("foreach(X in {1,2}, exists(Y in {1,2}, X = Y))").solutions
    assert run("foreach(X in {1,2}, exists(Y in {1,2}, X < Y))").unsat
    assert run("exists(X in {1,2}, foreach(Y in {0,1}, Y < X + 1))").solutions


def test_duality_under_negation(run):
    f = parse_formula("foreach(X in {1,2,3}, X =< 2)")
    assert run(f).unsat or not run(f).solutions
    assert run(Neg(f)).solutions
    g = parse_formula("exists(X in {1,2}, X = 9)")
    assert run(Neg(g)).solutions
    assert run(g).unsat


def test_functional_let_form(run):
    # forall P in D: F(P) = true, with the application carried as the
    # quantifier's let-part defining the local M.
    def ruq(fname, dom, want):
        return Constraint("foreach", (), q=QPayload(
            Var("P"), dom, ("M",),
            C("eq", Var("M"), Var(want)),
            C("applyTo", Var(fname), Var("P"), Var("M"))))

    dom = mkset([Int(1), Int(2)])
    f_all_7 = mkset([Pair(Int(1), Int(7)), Pair(Int(2), Int(7))])
    f_mixed = mkset([Pair(Int(1), Int(7)), Pair(Int(2), Int(8))])

    res = solve(ruq("F", dom, "W") , max_solutions=1)
    assert res.solutions

    pin = C("eq", Var("F"), f_all_7)
    from setsolve.formulas import conj
    assert solve(conj([pin, ruq("F", dom, "W"), C("eq", Var("W"), Int(7))])).solutions
    pin2 = C("eq", Var("F"), f_mixed)
    assert solve(conj([pin2, ruq("F", dom, "W"), C("eq", Var("W"), Int(7))])).unsat


def test_undefined_application_falsifies_element(run):
    # F has no image at 2, so the universal fails and its negation holds.
    from setsolve.formulas import conj
    f1 = mkset([Pair(Int(1), Int(7))])
    q = Constraint("foreach", (), q=QPayload(
        Var("P"), mkset([Int(1), Int(2)]), ("M",),
        C("eq", Var("M"), Int(7)),
        C("applyTo", Var("F"), Var("P"), Var("M"))))
    assert solve(conj([C("eq", Var("F"), f1), q])).unsat


def test_quantifier_domain_from_binding(run):
    f = parse_formula("D = {1,2} & foreach(X in D, X < 3)")
    assert run(f).solutions
    f2 = parse_formula("D = {1,2} & foreach(X in D, X < 2)")
    assert run(f2).unsat


def test_open_domain_universal_parks_as_residual(run):
    res = run("foreach(X in D, X = 1)")
    assert res.solutions
    sol = res.solutions[0]
    assert any(c.kind == "foreach" for c in sol.residual) or not sol.residual
