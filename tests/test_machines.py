"""Machine front end (.smch): scoping, application lifting, folding, errors."""
import pytest
from setsolve.arith import ABin, ANeg
from setsolve.formulas import And, C, Constraint, TrueF
from setsolve.machines import MachineError, WDOcc, parse_machine
from setsolve.parser import ParseError
from setsolve.terms import Atom, Int, Interval, Var
from setsolve.verifier import verify_machine

_HEAD = """\
machine m
context
  s = {a, b}
end
variables
  f : stype([s, int])
  n : int
end
"""

_INIT = """\
init
  act1: f := {}
  act2: n := 0
end
"""


def machine(invariants="", events=""):
    inv = f"invariants\n{invariants}\nend\n" if invariants else ""
    return parse_machine(_HEAD + inv + _INIT + events)


def test_scope_decides_var_or_atom():
    m = machine("  inv1: n in s & c neq a & Upper = n")
    f = m.invariant("inv1").formula
    assert f == And((C("in", Var("n"), Var("s")), C("neq", Atom("c"), Atom("a")),
                     C("eq", Atom("Upper"), Var("n"))))


def test_event_parameter_is_in_scope():
    m = machine(events="event ev\n  any p\n  where\n    grd1: p in s\n  end\n")
    ev = m.event("ev")
    assert ev.params == ("p",)
    assert ev.guards[0].formula == C("in", Var("p"), Var("s"))


def test_application_lifts_to_applyto_with_wd_site():
    m = machine(events="event ev\n  any p\n  where\n"
                       "    grd1: p in s\n    grd2: f(p) + 1 > n\n  end\n")
    g = m.event("ev").guards[1]
    lift = C("applyTo", Var("f"), Var("p"), Var("m1"))
    assert g.formula == And((lift, C("lt", Var("n"),
                                      ABin("+", Var("m1"), Int(1)))))
    assert g.wd == (WDOcc(lift, (), TrueF(), "grd2"),)


def test_wd_pre_holds_earlier_conjuncts():
    m = machine(events="event ev\n  any p\n  where\n"
                       "    grd1: p in s & f(p) + 1 > n\n  end\n")
    g = m.event("ev").guards[0]
    (occ,) = g.wd
    assert occ.site == "grd1"
    assert occ.pre == C("in", Var("p"), Var("s"))
    assert occ.apply == C("applyTo", Var("f"), Var("p"), Var("m1"))


_BUMP = """\
machine bump
context
  pos = {a, b}
end
variables
  g : stype([pos, int])
end
invariants
  inv1: pfun(g) & dom(g, pos)
end
init
  act1: g := cp(pos, {0})
end
event bump
  any p
  where
    grd1: p in pos & (g(p) + 1) > 0
  then
    act1: g(p) := 1
end
"""


def test_a_parenthesised_integer_expression_lifts_its_application_once():
    # ``(g(p) + 1)`` is first read as a formula, which lifts ``g(p)``;
    # the backtrack to an integer expression must drop that lift.
    m = parse_machine(_BUMP)
    (g,) = m.event("bump").guards
    lift = C("applyTo", Var("g"), Var("p"), Var("m1"))
    assert g.formula == And((C("in", Var("p"), Var("pos")), lift,
                             C("lt", Int(0), ABin("+", Var("m1"), Int(1)))))
    assert [occ.apply for occ in g.wd] == [lift]
    assert [r.status for r in verify_machine(m)] == ["Proved"] * 3


def test_fold_merges_defining_equality():
    m = machine(events="event ev\n  any p\n  where\n"
                       "    grd1: p in s & f(p) = 1\n  end\n")
    g = m.event("ev").guards[0]
    assert g.formula == And((C("in", Var("p"), Var("s")),
                             C("applyTo", Var("f"), Var("p"), Int(1))))
    # The obligation keeps the unfolded application.
    assert g.wd[0].apply == C("applyTo", Var("f"), Var("p"), Var("m1"))


def test_fold_into_state_variable():
    m = machine("  inv1: n >= 0 & f(a) = n")
    assert m.invariant("inv1").formula == And((
        C("le", Int(0), Var("n")), C("applyTo", Var("f"), Atom("a"), Var("n"))))


def test_lifted_names_avoid_every_word_of_the_file():
    # inv1 lifts f(a) before the parameter m1 is declared; the guard's
    # equality on m1 stays, because m1 is not a lifted name.
    m = machine("  inv1: f(a) = n", events="event ev\n  any m1\n  where\n"
                "    grd1: applyTo(f, a, m1) & m1 = 1\n  end\n")
    assert m.invariant("inv1").formula == C("applyTo", Var("f"), Atom("a"), Var("n"))
    assert m.event("ev").guards[0].formula == And((
        C("applyTo", Var("f"), Atom("a"), Var("m1")), C("eq", Var("m1"), Int(1))))


def test_application_in_foreach_becomes_local():
    m = machine("  inv1: foreach(x in s, f(x) >= 0)")
    q = m.invariant("inv1").formula
    assert isinstance(q, Constraint) and q.kind == "foreach"
    assert q.q.binder == Var("x") and q.q.domain == Var("s")
    assert q.q.locals == ("m1",)
    assert q.q.funcs == C("applyTo", Var("f"), Var("x"), Var("m1"))
    assert q.q.body == C("le", Int(0), Var("m1"))


def test_functional_override_action():
    m = machine(events="event ev\n  any p\n  where\n    grd1: p in s\n"
                       "  then\n    act1: f(p) := n\n  end\n")
    (act,) = m.event("ev").actions
    assert act.writes == "f"
    assert act.formula == C("foplus", Var("f"), Var("p"), Var("n"), Var("f_"))


def test_hash_comments():
    m = parse_machine("# leading\n" + _HEAD.replace("end\n", "end # trailing\n", 1)
                      + _INIT)
    assert m.name == "m" and [c.name for c in m.carriers] == ["s"]


@pytest.mark.parametrize("text", [
    _HEAD.replace("  n : int", "  pfun : int") + _INIT,
    _HEAD.replace("  n : int", "  n_ : int") + _INIT,
    _HEAD + "invariants\n  inv1: n_ = 0\nend\n" + _INIT,
    _HEAD + _INIT + "event ev\n  any or\n  where\n    grd1: 1 = 1\n  end\n",
])
def test_reserved_and_primed_names_rejected(text):
    with pytest.raises(MachineError):
        parse_machine(text)


def test_machine_error_is_a_parse_error_with_a_line():
    with pytest.raises(ParseError) as ei:
        parse_machine(_HEAD + "invariants\n  inv1: n = 0 $\nend\n" + _INIT)
    assert isinstance(ei.value, MachineError)
    assert ei.value.line == 10 and ei.value.col > 0


@pytest.mark.parametrize("text, message", [
    (_HEAD + 'invariants\n  inv1: n = 0 & "a\nb" = "c" & )\nend\n' + _INIT,
     "11:12: expected a term, found ')'"),
    (_HEAD + "invariants\n\tinv1: n = = 0\nend\n" + _INIT,
     "10:12: expected a term, found '='"),
    ((_HEAD + "invariants\n  inv1: n = 0\n  inv2: n = = 0\nend\n" + _INIT)
     .replace("\n", "\r\n"), "11:13: expected a term, found '='"),
    (_HEAD + _INIT[:-len("end\n")], "12:1: expected a label, found ''"),
    (_HEAD, "9:1: machine has no init block"),
    # The lexer runs first, so its error wins over an earlier syntax error.
    (_HEAD + "invariants\n  inv1: n = = 0\nend\n" + _INIT + "# $\nevent e\n $",
     "18:2: unexpected character '$'"),
    (_HEAD + 'invariants\n  inv1: n = "a\\', "10:13: unterminated string"),
    # A quantifier domain is read as any nested term is.
    (_HEAD + "invariants\n  inv1: foreach(x in n + 1, x in s)\nend\n" + _INIT,
     "10:27: expected a term, found an integer expression"),
    (_HEAD + "invariants\n  inv1: foreach([x, n] in f, x in s)\nend\n" + _INIT,
     "10:21: binder 'n' shadows another name"),
])
def test_error_positions(text, message):
    with pytest.raises(MachineError) as ei:
        parse_machine(text)
    assert str(ei.value) == message



@pytest.mark.parametrize("invariant, first", [
    ("n in int(0, 3)", C("in", Var("n"), Interval(Int(0), Int(3)))),
    ("n is -(n)", C("is", Var("n"), ANeg(Var("n")))),
    ("le(n, n + 1)", C("le", Var("n"), ABin("+", Var("n"), Int(1)))),  # prefix form
])
def test_fold_counts_through_intervals_and_negations(invariant, first):
    m = machine(f"  inv1: {invariant} & f(a) = n")
    assert m.invariant("inv1").formula == And((
        first, C("applyTo", Var("f"), Atom("a"), Var("n"))))


@pytest.mark.parametrize("invariant", ['n "=" 0', '"true"', 'n = 0 "or" n = 1'])
def test_string_literal_is_not_a_keyword(invariant):
    with pytest.raises(MachineError):
        machine(f"  inv1: {invariant}")


@pytest.mark.parametrize("op", ["div", "mod"])
def test_div_and_mod_are_rejected(op):
    with pytest.raises(MachineError, match=f"'{op}' is not supported") as ei:
        machine(f"  inv1: n is 7 {op} 2")
    assert (ei.value.line, ei.value.col) == (10, 16)
