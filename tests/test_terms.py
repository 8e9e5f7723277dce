"""Term construction, substitution and the fresh-name supply."""
import pytest
from setsolve.formulas import And, C, subst_formula
from setsolve.terms import (
    CP, EMPTY, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var,
    VarGen, compose, is_ground, mkset, set_parts, subst_term, term_key,
    term_vars,
)


def test_mkset_builds_right_nested_extensions():
    s = mkset([Int(1), Int(2)])
    assert s == ExtSet(Int(1), ExtSet(Int(2), EMPTY))
    assert mkset([]) == EMPTY
    assert mkset([Int(1)], tail=Var("R")) == ExtSet(Int(1), Var("R"))


def test_set_parts_inverts_mkset():
    elems = [Int(1), Atom("a"), Pair(Int(2), Int(3))]
    assert set_parts(mkset(elems)) == (elems, EMPTY)
    assert set_parts(mkset(elems, tail=Var("T"))) == (elems, Var("T"))
    assert set_parts(EMPTY) == ([], EMPTY)
    assert set_parts(Var("X")) == ([], Var("X"))


def test_term_vars_and_groundness():
    t = Pair(Var("X"), mkset([Int(1)], tail=Var("Y")))
    assert term_vars(t) == {"X", "Y"}
    assert not is_ground(t)
    assert is_ground(mkset([Int(1), Atom("b"), Str("s")]))
    assert is_ground(CP(EMPTY, Interval(Int(1), Int(2))))
    assert not is_ground(Interval(Var("L"), Int(2)))


def test_subst_splices_set_tails():
    s = mkset([Int(1)], tail=Var("R"))
    out = subst_term({"R": mkset([Int(2), Int(3)])}, s)
    assert set_parts(out) == ([Int(1), Int(2), Int(3)], EMPTY)
    with pytest.raises(ValueError):
        subst_term({"R": Int(7)}, s)


def test_subst_reaches_every_position():
    t = CP(Var("A"), mkset([Pair(Var("B"), Interval(Var("L"), Var("H")))]))
    out = subst_term({"A": EMPTY, "B": Int(1), "L": Int(2), "H": Int(3)}, t)
    assert is_ground(out)
    assert out == CP(EMPTY, mkset([Pair(Int(1), Interval(Int(2), Int(3)))]))


def test_compose_stays_idempotent():
    s = {"X": Var("Y")}
    s2 = compose(s, {"Y": Int(1)})
    assert s2 == {"X": Int(1), "Y": Int(1)}
    assert subst_term(s2, Var("X")) == Int(1)
    # An existing binding is not overwritten by composition.
    s3 = compose({"X": Int(1)}, {"X": Int(2)})
    assert s3["X"] == Int(1)


def test_vargen_is_fresh_and_bumps_past_input():
    g = VarGen()
    a, b = g.fresh(), g.fresh()
    assert a != b and a.name.startswith("_N")
    g.bump_past({"_N10", "X", "_Nxx"})
    assert g.fresh() == Var("_N11")
    g.bump_past({"_N5"})
    assert g.fresh() == Var("_N12")


def test_term_key_orders_all_term_shapes():
    terms = [
        Int(2), Int(-1), Atom("b"), Atom("a"), Str("z"),
        Pair(Int(1), Int(2)), EMPTY, mkset([Int(1)]),
        CP(EMPTY, EMPTY), Interval(Int(1), Int(2)), Var("X"),
    ]
    ordered = sorted(terms, key=term_key)
    assert ordered[0] == Int(-1)
    assert sorted(ordered, key=term_key) == ordered
    assert term_key(Int(1)) != term_key(Atom("1"))


def test_terms_are_hashable_values():
    assert len({Int(1), Int(1), Atom("x"), Atom("x")}) == 2
    d = {mkset([Int(1)]): "s"}
    assert d[ExtSet(Int(1), EMPTY)] == "s"


def test_subst_shares_untouched_structure():
    untouched = mkset([Pair(Atom("a"), mkset([Int(1)], tail=Var("R")))])
    t = CP(untouched, Interval(Var("L"), Int(3)))
    s = {"L": Int(0), "Z": Int(9)}
    out = subst_term(s, t)
    assert out == CP(untouched, Interval(Int(0), Int(3)))
    assert out.left is untouched
    assert subst_term(s, untouched) is untouched
    assert subst_term(s, t.right).hi is t.right.hi


def test_subst_formula_shares_untouched_constraints():
    kept = C("in", Var("X"), mkset([Int(1)], tail=Var("R")))
    changed = C("eq", Var("Y"), Int(2))
    f = And((kept, changed))
    out = subst_formula({"Y": Atom("b")}, f, VarGen())
    assert out == And((kept, C("eq", Atom("b"), Int(2))))
    assert out.parts[0] is kept
    assert subst_formula({"Y": Atom("b")}, kept, VarGen()) is kept
    assert subst_formula({"Z": Atom("b")}, f, VarGen()) is f


def test_compose_shares_untouched_values():
    kept = mkset([Int(1)], tail=Var("R"))
    s = {"X": kept, "Y": Pair(Var("Z"), Int(1))}
    s2 = compose(s, {"Z": Int(4)})
    assert s2["X"] is kept
    assert s2["Y"] == Pair(Int(4), Int(1))


def test_subst_rejects_non_set_tail_under_sharing():
    # The head is untouched and the tail is bound: the tail is still checked.
    s = mkset([Atom("a")], tail=Var("R"))
    with pytest.raises(ValueError):
        subst_term({"R": Atom("b")}, s)
    with pytest.raises(ValueError):
        subst_term({"R": Pair(Int(1), Int(2))}, Pair(Int(0), s))
