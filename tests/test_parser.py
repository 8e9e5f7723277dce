"""Surface syntax: terms, formulas, clauses, directives, and round-trips."""
import random

import pytest
from setsolve.formulas import And, C, Constraint, Implies, Neg, Or, PredCall, conj, disj
from setsolve.parser import ParseError, Parser, parse_formula, parse_program
from setsolve.printer import pp_formula, pp_term
from setsolve.terms import (
    CP, EMPTY, Atom, Int, Interval, Pair, Str, Var, mkset,
)

from test_groundeval import rnd_constraint, rnd_term


def term(text):
    p = Parser(text)
    t = p.term()
    assert p.peek().kind == "eof"
    return t


def test_term_shapes():
    assert term("{}") == EMPTY
    assert term("{1, 2}") == mkset([Int(1), Int(2)])
    assert term("{1/{2}}") == mkset([Int(1), Int(2)])
    assert term("{X/T}") == mkset([Var("X")], tail=Var("T"))
    assert term("[a, b]") == Pair(Atom("a"), Atom("b"))
    assert term("int(1, 3)") == Interval(Int(1), Int(3))
    assert term("cp(A, {b})") == CP(Var("A"), mkset([Atom("b")]))
    assert term('"hi there"') == Str("hi there")
    assert term("-7") == Int(-7)
    assert term("start_GearExtend") == Atom("start_GearExtend")
    assert term("Upper") == Var("Upper")
    assert term("_X1") == Var("_X1")


def test_nested_set_tails_merge():
    assert term("{1/{2/{3}}}") == mkset([Int(1), Int(2), Int(3)])
    t = term("{1, 2/R}")
    assert t == mkset([Int(1), Int(2)], tail=Var("R"))


def test_formula_precedence():
    f = parse_formula("1 = 1 & 2 = 2 or 3 = 3")
    assert isinstance(f, Or) and isinstance(f.parts[0], And)
    g = parse_formula("1 = 1 implies 2 = 2 implies 3 = 3")
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    h = parse_formula("neg(1 = 1 & 2 = 2)")
    assert isinstance(h, Neg) and isinstance(h.body, And)


def test_infix_comparisons_desugar():
    assert parse_formula("X =< 3") == C("le", Var("X"), Int(3))
    assert parse_formula("X < 3") == C("lt", Var("X"), Int(3))
    assert parse_formula("X >= 3") == C("le", Int(3), Var("X"))
    assert parse_formula("X > 3") == C("lt", Int(3), Var("X"))
    assert parse_formula("X neq Y") == C("neq", Var("X"), Var("Y"))
    assert parse_formula("X nin Y") == C("nin", Var("X"), Var("Y"))


def test_constraints_and_calls():
    f = parse_formula("un(A, B, C)")
    assert isinstance(f, Constraint) and f.kind == "un"
    g = parse_formula("mypred(A, {1})")
    assert isinstance(g, PredCall) and g.name == "mypred"
    with pytest.raises(ParseError):
        parse_formula("un(A, B)")


def test_quantifier_surface_forms():
    f = parse_formula("foreach(X in D, X = 1)")
    assert f.kind == "foreach" and f.q.binder == Var("X")
    g = parse_formula("exists([X, Y] in D, X = Y)")
    assert g.kind == "exists" and isinstance(g.q.binder, Pair)


def test_program_structure():
    prog = parse_program("""
        % a clause, a directive, a query
        :- def_type(color, etype([red, green])).
        :- dec_p_type(p(stype(color))).
        p(A) :- red in A.
        ?- p({red}).
          ?- p({green}).
    """)
    assert ("p", 1) in prog.clauses
    assert ("p", 1) in prog.pred_types
    assert "color" in prog.type_defs
    assert len(prog.queries) == 2


def test_clause_head_parameters_must_be_distinct_variables():
    with pytest.raises(ParseError):
        parse_program("p(X, X) :- X = X.")
    with pytest.raises(ParseError):
        parse_program("p(1) :- 1 = 1.")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_formula("un({1,")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_formula('"unterminated')
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_program("p(X) :- X = 1")  # missing final period


def test_a_string_over_two_lines_moves_the_position_to_the_second():
    with pytest.raises(ParseError) as e:
        parse_program('?- X = "a\nb" & Y = $.')
    assert str(e.value) == "2:10: unexpected character '$'"


def test_comments_are_ignored():
    prog = parse_program("""
        % only comments and one query
        ?- 1 = 1.  % trailing comment
    """)
    assert len(prog.queries) == 1


def test_round_trip_handwritten():
    cases = [
        "un(A,B,C) & neg(1 in A or C = {}) implies subset(A,C)",
        "foreach(X in {1,2},exists(Y in int(1,3),X < Y))",
        'X = {1,a,"b",[c,-2]/T} & cp({1},A) neq B',
        "p(X,{}) or q(1 + 2 * 3)",
        "X is -(2) + Y * 3 & X =< 4",
        "dec(F,stype([int,bool]))",
        "applyTo(F,x,Y) & foplus(F,x,false,G)",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(pp_formula(f)) == f


def test_round_trip_random_terms():
    r = random.Random(31337)
    for _ in range(600):
        t = rnd_term(r)
        assert term(pp_term(t)) == t


def test_round_trip_random_constraints():
    r = random.Random(99)
    for _ in range(600):
        c = rnd_constraint(r)
        out = pp_formula(c)
        assert parse_formula(out) == c, out


@pytest.mark.parametrize("text", ["X is 7 div 2", "3 is 7 mod 2", "X is 2 * Y div 2"])
def test_div_and_mod_are_rejected(text):
    # Nothing evaluates them, so accepting them would give wrong verdicts.
    with pytest.raises(ParseError, match="is not supported"):
        parse_formula(text)
