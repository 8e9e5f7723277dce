"""Exact rewrite-step counts of the corpus solves.

Step counts are the machine-independent cost of a search.  A change to the
solver core that is meant to be a pure speedup must leave every one of them
as it is.  Each INV obligation of the corpus is proved by one query per
group of goal conjuncts with the carriers left free, so its count does not
grow with the carrier; ``gears`` over 4 members is left to the benchmark.
"""
import pytest
from setsolve import verifier
from setsolve.corpus import load_corpus
from setsolve.engine import solve

EXAMPLE_STEPS = [618, 117, 84, 12, 4]

# Steps of every solve call in a PO's discharge: one per carrier-free goal
# group of an INV obligation, then one per hypothesis round.
PO_STEPS = {
    "gears_intermediate/INIT/inv1": [15],
    "gears_intermediate/INIT/inv2": [28],
    "gears/INIT/inv1": [9],
    "gears/make_GearExtended/inv1/INV": [10577],
    "gears/make_GearExtended/grd1/wd1/WD": [7, 245],
    "gears/start_GearRetract/inv1/INV": [10577],
    "gears/start_GearRetract/grd1/wd1/WD": [7, 245],
    "doors/INIT/inv1": [21],
    "doors/INIT/inv2": [6],
    "doors/start_GearExtend/inv1/INV": [10579],
    "doors/start_GearExtend/inv2/INV": [4],
    "doors/start_GearExtend/grd2/wd1/WD": [9, 573],
}


@pytest.fixture(scope="module")
def cases():
    return {c.name: c for c in load_corpus()}


def test_example_query_steps(cases):
    program = cases["examples.slog"].parsed
    assert [solve(q, program=program).steps for q in program.queries] == EXAMPLE_STEPS


def test_fast_po_steps(cases, monkeypatch):
    calls: list[int] = []

    def metered(*args, **kw):
        res = solve(*args, **kw)
        calls.append(res.steps)
        return res

    monkeypatch.setattr(verifier, "solve", metered)
    got = {}
    for name in ("gears_intermediate.smch", "gears.smch", "doors.smch"):
        m = cases[name].parsed
        hints = verifier._hints(m)
        for po in verifier.generate_pos(m):
            calls.clear()
            assert verifier.discharge(po, hints=hints).status == "Proved"
            got[po.po_id] = list(calls)
    assert got == PO_STEPS
