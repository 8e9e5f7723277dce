"""Exact rewrite-step counts of the corpus solves.

Step counts are the machine-independent cost of a search.  A change to the
solver core that is meant to be a pure speedup must leave every one of them
as it is; a change to the search order moves them on purpose, and re-pins
them here to exact values.  Each INV obligation of the corpus is proved by
one query per group of goal conjuncts with the carriers left free, so its
count does not grow with the carrier.
"""
import pytest
from setsolve import verifier
from setsolve.corpus import load_corpus
from setsolve.engine import _prio, solve
from setsolve.formulas import C
from setsolve.machines import parse_machine
from setsolve.terms import EMPTY, Atom, Pair, Var, mkset

EXAMPLE_STEPS = [618, 117, 84, 12, 4]

# Steps of every solve call in a PO's discharge: one per carrier-free goal
# group of an INV obligation, then one per hypothesis round.
PO_STEPS = {
    "gears_intermediate/INIT/inv1": [15],
    "gears_intermediate/INIT/inv2": [28],
    "gears/INIT/inv1": [9],
    "gears/make_GearExtended/inv1/INV": [4294],
    "gears/make_GearExtended/grd1/wd1/WD": [7, 179],
    "gears/start_GearRetract/inv1/INV": [4294],
    "gears/start_GearRetract/grd1/wd1/WD": [7, 179],
    "doors/INIT/inv1": [21],
    "doors/INIT/inv2": [6],
    "doors/start_GearExtend/inv1/INV": [4296],
    "doors/start_GearExtend/inv2/INV": [4],
    "doors/start_GearExtend/grd2/wd1/WD": [9, 331],
}


@pytest.fixture(scope="module")
def cases():
    return {c.name: c for c in load_corpus()}


def test_example_query_steps(cases):
    program = cases["examples.slog"].parsed
    assert [solve(q, program=program).steps for q in program.queries] == EXAMPLE_STEPS


def _po_steps(machine, monkeypatch) -> dict[str, list[int]]:
    """Steps of each solve call in the discharge of each PO, all Proved."""
    calls: list[int] = []

    def metered(*args, **kw):
        res = solve(*args, **kw)
        calls.append(res.steps)
        return res

    monkeypatch.setattr(verifier, "solve", metered)
    hints = verifier._hints(machine)
    got = {}
    for po in verifier.generate_pos(machine):
        calls.clear()
        assert verifier.discharge(po, hints=hints).status == "Proved"
        got[po.po_id] = list(calls)
    return got


def test_fast_po_steps(cases, monkeypatch):
    got = {}
    for name in ("gears_intermediate.smch", "gears.smch", "doors.smch"):
        got.update(_po_steps(cases[name].parsed, monkeypatch))
    assert got == PO_STEPS


@pytest.mark.parametrize("members", [
    "front, right", "front, right, left, nose, tail, aft"])
def test_gears_inv_steps_do_not_depend_on_the_carrier(cases, monkeypatch, members):
    text = cases["gears.smch"].text.replace(
        "positionsdg = {front, right, left}", f"positionsdg = {{{members}}}")
    got = _po_steps(parse_machine(text), monkeypatch)
    assert {k: v for k, v in got.items() if k.endswith("/INV")} == {
        "gears/make_GearExtended/inv1/INV": [4294],
        "gears/start_GearRetract/inv1/INV": [4294],
    }


def test_a_comp_over_a_known_relation_is_queued_with_the_filters():
    a, b = Atom("a"), Atom("b")
    r = mkset([Pair(a, a)])
    assert _prio(C("comp", r, mkset([Pair(a, b)]), EMPTY)) == _prio(C("in", a, Var("S"))) == 1
    assert _prio(C("comp", r, Var("F"), EMPTY)) == _prio(C("pfun", Var("F"))) == 2
