"""Sort inference over programs, formulas and machines."""
import pytest
from setsolve.machines import parse_machine
from setsolve.parser import parse_formula, parse_program
from setsolve.typecheck import TypeEnv, check_formula, check_program
from setsolve.verifier import typecheck_machine


def errors_of(text):
    return check_program(parse_program(text))


def test_well_typed_program_passes():
    assert errors_of("""
        :- dec_p_type(p(stype(int), stype(int))).
        p(A, B) :- un(A, B, C) & subset(C, int(1, 9)).
        ?- p({1}, {2}).
    """) == []


def test_arity_and_argument_sorts_are_enforced():
    errs = errors_of("""
        :- dec_p_type(p(stype(int))).
        p(A) :- 1 in A.
        ?- p({a}).
    """)
    assert errs, "atom where an integer set was declared"


def test_overloads_are_keyed_by_name_and_arity():
    assert errors_of("""
        :- dec_p_type(p(stype(int))).
        :- dec_p_type(p(stype(int), stype(int))).
        p(A) :- 1 in A.
        p(A, B) :- un(A, B, B).
        ?- p({1}) & p({1}, {2}).
    """) == []


def test_undeclared_overload_beside_a_declared_one_is_reported():
    errs = [str(e) for e in errors_of("""
        :- dec_p_type(p(stype(int))).
        p(A, B) :- un(A, B, B).
        ?- p({1}, {2}).
    """)]
    assert "p: arity mismatch in signature of p" in errs
    assert "query: no signature for p/2" in errs


def test_integer_expression_as_a_predicate_argument_is_reported():
    errs = [str(e) for e in errors_of("""
        :- dec_p_type(p(int)).
        p(X) :- X < 3.
        ?- p(Y + 1).
    """)]
    assert errs == ["query: predicate p/1 takes terms, not integer expressions"]


def test_set_versus_scalar_confusion_is_caught():
    assert check_formula(parse_formula("un(А, 1, C)".replace("А", "A")))
    assert check_formula(parse_formula("1 in 2"))
    assert check_formula(parse_formula("un({1}, {a}, C)"))
    assert not check_formula(parse_formula("un({1}, {2}, C)"))


def test_relations_need_pair_elements():
    assert check_formula(parse_formula("comp({1}, {[1,2]}, R)"))
    assert not check_formula(parse_formula("comp({[1,1]}, {[1,2]}, R)"))
    assert check_formula(parse_formula("dom({1,2}, D)"))
    assert not check_formula(parse_formula("dom({[1,2]}, D)"))
    assert check_formula(parse_formula("applyTo({[1,2]}, a, Y)"))


def test_arithmetic_needs_integers():
    assert check_formula(parse_formula("X is a + 1"))
    assert not check_formula(parse_formula("X is 2 + 1"))
    assert check_formula(parse_formula('"s" < 1'))


def test_enumerated_types_constrain_atoms():
    errs = errors_of("""
        :- def_type(color, etype([red, green])).
        :- dec_p_type(p(stype(color))).
        p(A) :- red in A.
        ?- p({blue}).
    """)
    assert errs, "blue is not a member of color"
    assert errors_of("""
        :- def_type(color, etype([red, green])).
        :- dec_p_type(p(stype(color))).
        p(A) :- red in A.
        ?- p({green}).
    """) == []


def test_declared_formula_variables():
    env = TypeEnv()
    errs = check_formula(parse_formula(
        "dec(F, stype([int, int])) & [1, a] in F"), env)
    assert errs
    errs = check_formula(parse_formula(
        "dec(F, stype([int, int])) & [1, 2] in F"), TypeEnv())
    assert errs == []


def test_quantifier_binder_gets_domain_element_sort():
    assert check_formula(parse_formula(
        "foreach(X in {1,2}, X in {a})"))
    assert not check_formula(parse_formula(
        "foreach(X in {1,2}, X in {3})"))
    assert check_formula(parse_formula(
        "foreach([X,Y] in {[1,2]}, X = a)"))
    assert not check_formula(parse_formula(
        "foreach([X,Y] in {[1,2]}, Y = 2)"))


def test_machine_typechecks_in_shared_context():
    good = """
machine m1
context
  s = {p, q}
end
variables
  v : stype(s)
end
invariants
  inv1: subset(v, s)
end
init
  act1: v := {}
end
event e1
  any x
  where
    grd1: x in s
  then
    act1: v := {x}
  end
"""
    m = parse_machine(good)
    assert typecheck_machine(m) == []
    bad = good.replace("v := {x}", "v := {1}")
    assert typecheck_machine(parse_machine(bad))


def test_synonyms_resolve_through_machine_context():
    text = """
machine m2
context
  s = {p, q}
end
variables
  f : stype([s, bool])
end
invariants
  inv1: pfun(f)
end
init
  act1: f := cp(s, {true})
end
event e
  any x
  where
    grd1: x in s & f(x) = false
  then
    act1: f(x) := true
  end
"""
    assert typecheck_machine(parse_machine(text)) == []
    wrong = text.replace("f(x) := true", "f(x) := 3")
    assert typecheck_machine(parse_machine(wrong))


def test_each_event_scopes_its_own_parameters():
    # Two events name their parameter p, each of its own type.
    text = """
machine m4
context
  pos = {a, b}
end
variables
  x : pos
  f : stype([pos, bool])
end
invariants
  inv1: x in pos
end
init
  act1: x := a
  act2: f := cp(pos, {true})
end
event e1
  any p where
    grd1: p in pos
  then
    act1: x := p
  end
event e2
  any p where
    grd1: p = f
  then
    act1: f := p
  end
"""
    assert typecheck_machine(parse_machine(text)) == []
    assert typecheck_machine(parse_machine(text.replace("act1: x := p", "act1: f := p")))


_M = """
machine m3
context
  s = {p, q}
end
variables
  f : stype([s, bool])
  v : s
end
invariants
  inv1: pfun(f)
end
init
  act1: f := cp(s, {true})
  act2: v := p
end
event e
  any x
  where
    grd1: x in s & f(x) = false
  then
    act1: f(x) := true
  end
"""


@pytest.mark.parametrize("edit, messages", [
    (("f(x) := true", "f(x) := 3"), ["foplus: type mismatch: int vs etype([true,false])"]),
    (("v := p", "v := 1"), ["eq: type mismatch: int vs etype([p,q])"]),
    (("v := p", "v := {p}"), ["eq: type mismatch: stype(?14) vs etype([p,q])",
                              "eq: cannot infer an enumerated type for atom p"]),
    (("v := p", "v := r"), ["eq: atom r is not a member of etype([p,q])"]),
    (("grd1: x in s", "grd1: x in x"), ["in: circular type"]),
], ids=["bool", "carrier", "carrier-set", "outside-enum", "circular"])
def test_machine_type_error_messages(edit, messages):
    assert typecheck_machine(parse_machine(_M)) == []
    assert typecheck_machine(parse_machine(_M.replace(*edit))) == messages


@pytest.mark.parametrize("text, messages", [
    ("?- X in X.\n", ["query in: circular type"]),
    ("?- X = a.\n", ["query eq: cannot infer an enumerated type for atom a"]),
    (":- dec_p_type(p(int)).\np(X) :- X < 3.\n?- p(Y + 1).\n",
     ["query: predicate p/1 takes terms, not integer expressions"]),
    (":- def_type(color, etype([red, green])).\n:- dec_p_type(p(stype(color))).\n"
     "p(A) :- 1 in A.\n?- p({blue}).\n",
     ["p in: type mismatch: etype([red,green]) vs int",
      "query: atom blue is not a member of etype([red,green])"]),
    (":- dec_p_type(p(bool)).\np(A) :- A = 1.\n?- p(true).\n",
     ["p eq: type mismatch: int vs etype([true,false])"]),
    ("?- dec(F, stype([int, bool])) & [1, 2] in F & [X, Y] in F & Y = Z & Z in Z.\n",
     ["query in: type mismatch: etype([true,false]) vs int",
      "query in: type mismatch: etype([true,false]) vs stype(etype([true,false]))"]),
], ids=["circular", "no-enum", "int-argument", "def-type", "bool", "dec"])
def test_program_type_error_messages(text, messages):
    assert [str(e) for e in errors_of(text)] == messages
