"""How the verifier discharges INV obligations.

Goal conjuncts the hypotheses already state are not negated; the rest are
refuted group by group with the carriers left free, and only when that
fails is the query solved with the carriers pinned.
"""
from importlib import resources

from setsolve import verifier
from setsolve.formulas import And, formula_vars
from setsolve.machines import parse_machine

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
