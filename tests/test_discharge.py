"""How the verifier discharges INV obligations.

Goal conjuncts the hypotheses already state are not negated; the rest are
refuted in one query, against the hypotheses linked to them, with the
carriers left free.  Only when that fails is the query solved with the
carriers pinned and every invariant assumed.
"""
from importlib import resources

import pytest
from oracle import holds
from setsolve import verifier
from setsolve.engine import solve
from setsolve.formulas import And, conj, formula_vars
from setsolve.machines import parse_machine
from setsolve.printer import pp_term
from setsolve.terms import EMPTY, Atom, Pair, mkset
from setsolve.typecheck import TBasic, TEnum, TInt, TProd, TSet, TypeEnv

CORPUS = resources.files("setsolve") / "data" / "corpus"

_SEEN = """\
machine seen
context
  positionsdg = {front, right}
end
variables
  seen : stype(positionsdg)
end
invariants
  inv1: front in seen
end
init
  act1: seen := positionsdg
end
event fill
  then
    act1: seen := positionsdg
end
"""


def test_only_the_conjuncts_the_event_writes_are_negated():
    m = parse_machine((CORPUS / "doors.smch").read_text())
    po = next(p for p in verifier.generate_pos(m)
              if p.po_id == "doors/start_GearExtend/inv1/INV")
    assert isinstance(po.goal, And) and len(po.goal.parts) == 6
    negated = po.neg_goal.body
    assert isinstance(negated, And)
    assert list(negated.parts) == [p for p in po.goal.parts
                                   if "gear_ret_p_" in formula_vars(p)]
    assert len(negated.parts) == 2


@pytest.mark.parametrize("name", ["gears_intermediate.smch", "gears.smch", "doors.smch"])
def test_a_proof_is_refuted_again_from_only_the_invariants_it_records(name):
    for r in verifier.verify_machine(parse_machine((CORPUS / name).read_text())):
        assert r.status == "Proved"
        pool = dict(r.po.pool)
        res = solve(conj([r.po.fixed, r.po.neg_goal] + [pool[label] for label in r.hyps_used]))
        assert res.unsat and not res.ill_sorted, r.po.po_id


# Once the carrier is set aside, the three conjuncts of inv1 share no
# variable: each primed one is linked only to its own action.
SWAP = """\
machine swap
context
  pos = {a, b}
end
variables
  x : pos
  y : pos
  s : stype(pos)
end
invariants
  inv1: x in pos & y in pos & subset(s, pos)
  inv2: x neq y
end
init
  act1: x := a
  act2: y := b
  act3: s := {}
end
event swap
  then
    act1: x := y
    act2: y := x
    act3: s := {}
end
"""


def test_a_goal_of_unlinked_conjuncts_is_proved_carrier_free_in_one_query():
    results = verifier.verify_machine(parse_machine(SWAP))
    assert [r.status for r in results] == ["Proved"] * 4
    assert [(r.po.po_id, r.stage) for r in results if r.po.kind == "INV"] == [
        ("swap/swap/inv1/INV", "carrier_free"), ("swap/swap/inv2/INV", "carrier_free")]


def test_gears_over_five_members_is_proved():
    text = (CORPUS / "gears.smch").read_text().replace(
        "positionsdg = {front, right, left}",
        "positionsdg = {front, right, left, nose, tail}")
    m = parse_machine(text)
    assert [c.members for c in m.carriers] == [("front", "right", "left", "nose", "tail")]
    results = verifier.verify_machine(m)
    assert [r.status for r in results] == ["Proved"] * 5


def test_a_carrier_dependent_invariant_is_proved_with_the_carrier_pinned(monkeypatch):
    # front in seen_ follows from seen_ = positionsdg only for this carrier:
    # the carrier-free query has an answer and the pinned one has none.
    answers: list[str] = []

    def metered(*args, **kw):
        res = solve(*args, **kw)
        answers.append("unsat" if res.unsat else "sat" if res.solutions else "unknown")
        return res

    solve = verifier.solve
    monkeypatch.setattr(verifier, "solve", metered)
    m = parse_machine(_SEEN)
    po = next(p for p in verifier.generate_pos(m) if p.kind == "INV")
    r = verifier.discharge(po, hints=verifier._hints(m))
    assert (r.status, r.hyps_used, r.iterations) == ("Proved", (), 1)
    assert answers == ["sat", "unsat"]


def test_an_unknown_says_why():
    m = parse_machine(_SEEN)
    po = next(p for p in verifier.generate_pos(m) if p.kind == "INV")
    r = verifier.discharge(po, budget=1, hints=verifier._hints(m))
    assert (r.status, r.cause, r.note) == ("Unknown", "budget", "search budget exhausted")
    assert verifier.discharge(po, hints=verifier._hints(m)).cause == ""


def test_an_answer_that_does_not_ground_is_unknown_for_that_cause(monkeypatch):
    m = parse_machine(_SEEN.replace("then\n    act1: seen := positionsdg",
                                    "then\n    act1: seen := {}"))
    po = next(p for p in verifier.generate_pos(m) if p.kind == "INV")
    assert verifier.discharge(po, hints=verifier._hints(m)).status == "Disproved"
    monkeypatch.setattr(verifier, "ground_complete", lambda sol, hints=None: None)
    r = verifier.discharge(po, hints=verifier._hints(m))
    assert (r.status, r.cause, r.note) == ("Unknown", "ungroundable",
                                          "answer could not be grounded")


# ``d`` has no declared type, so only the invariants say what it is: with
# both, ``f`` is total on ``pos`` and every application of it is defined.
_UNTYPED = """\
machine partial
context
  pos = {a, b}
end
variables
  f : stype([pos, bool])
  d
end
invariants
  inv1: pfun(f) & dom(f, d)
  inv2: d = pos
end
init
  act1: f := cp(pos, {true})
  act2: d := pos
end
event e
  any p
  where
    grd1: p in pos
    grd2: f(p) = true
end
"""

# ``clear`` breaks inv1 and touches none of t1..t5.
_CLEARING = """\
machine clearing
context
  pos = {a, b}
end
variables
  s : stype(pos)
%s  t1 : stype(pos)
  t2 : stype(pos)
  t3 : stype(pos)
  t4 : stype(pos)
  t5 : stype(pos)
end
invariants
  inv1: s neq {}
%s  sub1: subset(t1, pos)
  sub2: subset(t2, pos)
  sub3: subset(t3, pos)
  sub4: subset(t4, pos)
  sub5: subset(t5, pos)
end
init
  act1: s := pos
%s  act2: t1 := {}
  act3: t2 := {}
  act4: t3 := {}
  act5: t4 := {}
  act6: t5 := {}
end
event clear
  then
    act1: s := {}
end
"""


def _result(text: str, po_id: str):
    results = {r.po.po_id: r for r in verifier.verify_machine(parse_machine(text))}
    return results[po_id]


def test_an_invariant_the_witness_cannot_evaluate_is_assumed_before_a_disproof():
    # With f = {} the application has no image, but no d satisfies both
    # invariants then.  Both are assumed, and the proof records both: inv1
    # shares f with the goal, and inv2 shares d with inv1.
    r = _result(_UNTYPED, "partial/e/grd2/wd1/WD")
    assert (r.status, r.hyps_used) == ("Proved", ("inv1", "inv2"))


def test_invariants_over_variables_the_po_never_mentions_hold_on_the_witness():
    # t1..t5 are variables of the query through their subset invariants,
    # which it assumes; the answer leaves them unbound, so each takes its
    # first candidate, the full set, on which those invariants hold.
    r = _result(_CLEARING % ("", "", ""), "clearing/clear/inv1/INV")
    assert (r.status, r.hyps_used) == ("Disproved", ())
    assert pp_term(r.counterexample["s_"]) == "{}"
    assert all(pp_term(r.counterexample[f"t{i}"]) == "{a,b}" for i in range(1, 6))


def test_a_free_integer_variable_takes_its_value_from_the_invariant_over_it():
    # n has no candidate, but the query assumes inv2, so the arithmetic
    # model gives n a value that satisfies it.  A disproof records no
    # hypotheses.
    text = _CLEARING % ("  n : int\n", "  inv2: n >= 0\n", "  act7: n := 0\n")
    r = _result(text, "clearing/clear/inv1/INV")
    assert (r.status, r.hyps_used) == ("Disproved", ())
    assert pp_term(r.counterexample["n"]) == "0"


_K = """\
machine k
context
  pos = {a, b}
end
variables
  x : pos
  y : pos
end
invariants
  inv1: y neq x
end
init
  act1: x := a
  act2: y := b
end
event e
  then
    act1: y := a
  end
"""


def test_a_variable_of_an_enumerated_type_takes_a_member_in_the_witness():
    # The answer leaves y unbound beside y neq a; its type gives it b.
    m = parse_machine(_K)
    po = next(p for p in verifier.generate_pos(m) if p.kind == "INV")
    r = verifier.discharge(po, hints=verifier._hints(m))
    assert r.status == "Disproved"
    assert {k: pp_term(v) for k, v in r.counterexample.items()} == {
        "pos": "{a,b}", "x": "a", "y": "b", "y_": "a"}
    assert holds(conj([po.fixed, po.neg_goal]), r.counterexample)


@pytest.mark.parametrize("ty, cands", [
    (TBasic("pos"), [Atom("a"), Atom("b")]),
    (TSet(TBasic("pos")), [mkset([Atom("a"), Atom("b")]), EMPTY]),
    (TSet(TProd((TBasic("pos"), TBasic("bool")))), [
        mkset([Pair(Atom("a"), Atom("true")), Pair(Atom("b"), Atom("true"))]),
        mkset([Pair(Atom("a"), Atom("false")), Pair(Atom("b"), Atom("false"))]),
        mkset([Pair(Atom(x), Atom(y)) for x in "ab" for y in ("true", "false")]),
        EMPTY]),
    (TInt(), []),
    (TBasic("abstract"), []),
    (TSet(TBasic("abstract")), []),
], ids=["enum", "set", "relation", "int", "carrier", "carrier-set"])
def test_the_candidates_of_a_type(ty, cands):
    env = TypeEnv()
    env.synonyms["pos"] = TEnum(("a", "b"))
    assert verifier._candidates(ty, env) == cands
