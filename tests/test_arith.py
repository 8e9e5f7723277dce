"""Linear integer arithmetic: the store and its solver integration."""
from itertools import product

import pytest
from conftest import certify
from hypothesis import given, settings, strategies as st
from setsolve.arith import ABin, ANeg, ArithStore, LinExpr, NonLinear, eval_ground, lower
from setsolve.engine import solve
from setsolve.parser import parse_formula
from setsolve.terms import Int, Var


def expr(op, a, b):
    return ABin(op, a, b)


def test_lower_and_eval_ground():
    e = expr("+", expr("*", Int(2), Int(3)), ANeg(Int(1)))
    assert eval_ground(e) == 5
    with pytest.raises(ValueError):
        eval_ground(expr("+", Var("X"), Int(1)))
    with pytest.raises(NonLinear):
        lower(expr("*", Var("X"), Var("Y")))


def test_store_solves_equalities():
    st = ArithStore()
    st.assert_eq(lower(expr("-", Var("x"), expr("+", Var("y"), Int(2)))))
    st.assert_eq(lower(expr("-", Var("y"), Int(3))))
    assert st.consistent() is True
    assert st.model() == {"x": 5, "y": 3}


def test_store_detects_contradictions():
    st = ArithStore()
    st.assert_le(lower(expr("-", Var("x"), Int(2))))        # x <= 2
    st.assert_le(lower(expr("-", Int(2), Var("x"))), True)  # x > 2
    assert st.consistent() is False

    st2 = ArithStore()
    st2.assert_eq(lower(expr("-", Int(1), Int(2))))
    assert st2.consistent() is False


def test_store_strict_versus_weak_bounds():
    st = ArithStore()
    st.assert_le(lower(expr("-", Var("x"), Int(5))))        # x <= 5
    st.assert_le(lower(expr("-", Int(5), Var("x"))))        # x >= 5
    assert st.consistent() is True
    assert st.model()["x"] == 5


def test_solver_arith_end_to_end(run):
    assert run("X is 2 + 3 * 4").solutions[0].bindings["X"] == Int(14)
    assert run("X is 1 & X is 2").unsat
    assert run("3 < 3").unsat
    assert run("3 >= 3").solutions
    r = run("X is Y + 1 & Y is 4")
    b = r.solutions[0].bindings
    assert b["X"] == Int(5) and b["Y"] == Int(4)
    assert run("X < 3 & 3 < X").unsat
    assert run("X =< 2 & 2 =< X & X = 3").unsat


def test_solver_bounds_have_integer_models(run):
    r = run("2 < X & X < 4")
    sol = r.solutions[0]
    model = sol.arith_model()
    assert model["X"] == 3


def test_nonlinear_parks_until_linear(run):
    r = run("X is Y * Y & Y = 3")
    assert r.solutions[0].bindings["X"] == Int(9)
    r = run("X is Y * Y & X = 2")
    sol = r.solutions[0]
    assert any(c.kind == "is" for c in sol.residual)


def test_interval_membership_bridges_to_arith(run):
    assert run("X in int(1, 3) & X = 2").solutions
    assert run("X in int(1, 3) & X = 5").unsat
    assert run("int(1, 0) = {}").solutions
    assert run("int(1, 2) = {1, 2}").solutions


@pytest.mark.parametrize("goal", [
    "X is Y * 2 & X = 5",             # the gcd test on an equation
    "X is 2 * Y & X is 2 * Z + 1",    # even and odd at once
    "X < Y & Y < X + 1",              # no integer strictly between
])
def test_goals_without_an_integer_point_are_unsat(run, goal):
    assert run(goal).unsat


@pytest.mark.parametrize("goal", [
    "X is 3 * Y + 5 * Z & X = 1",     # no unit pivot
    "X is 4 * Y + 2 & X is 6 * Z",
])
def test_goals_without_a_unit_pivot_ground(run, goal):
    certify(parse_formula(goal), run(goal))


BOX = 4  # every variable ranges over -BOX..BOX


@st.composite
def boxed_systems(draw):
    """One to three variables boxed to -BOX..BOX, and one to four rows
    ``sum(c * v) + k  op  0`` with op one of =, =< and <."""
    names = ("A", "B", "C")[:draw(st.integers(1, 3))]
    row = st.tuples(st.sampled_from(("eq", "le", "lt")),
                    st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names)),
                    st.integers(-6, 6))
    return names, draw(st.lists(row, min_size=1, max_size=4))


def _holds(kind, value):
    return value == 0 if kind == "eq" else value <= 0 if kind == "le" else value < 0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(boxed_systems())
def test_store_agrees_with_enumeration(system):
    names, rows = system
    store = ArithStore()
    for v in names:
        store.assert_le(LinExpr({v: 1}, -BOX))
        store.assert_le(LinExpr({v: -1}, -BOX))
    for kind, coeffs, const in rows:
        e = LinExpr(dict(zip(names, coeffs)), const)
        if kind == "eq":
            store.assert_eq(e)
        else:
            store.assert_le(e, strict=(kind == "lt"))

    def sat(point):
        return all(_holds(kind, sum(c * point[v] for v, c in zip(names, coeffs)) + const)
                   for kind, coeffs, const in rows)

    points = (dict(zip(names, p)) for p in product(range(-BOX, BOX + 1), repeat=len(names)))
    expected = any(sat(p) for p in points)
    assert store.consistent() is expected
    model = store.model()
    assert (model is not None) is expected
    if model is not None:
        assert all(-BOX <= model[v] <= BOX for v in names), model
        assert sat(model), model
