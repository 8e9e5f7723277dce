"""Shared helpers: run the solver and certify answers with the oracle."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest
from oracle import holds, search_model
from setsolve.engine import ground_complete, solve
from setsolve.formulas import formula_vars
from setsolve.parser import parse_formula


@pytest.fixture
def run():
    """Solve a formula given as text; return the Result."""
    def go(text, program=None, **kw):
        f = parse_formula(text) if isinstance(text, str) else text
        return solve(f, program=program, **kw)
    return go


def certify(formula, result, hints=None):
    """Every reported solution must ground to an oracle-true assignment."""
    assert result.solutions, "expected at least one solution"
    for sol in result.solutions:
        g = ground_complete(sol, hints=hints)
        assert g is not None, f"cannot ground {sol.bindings}"
        assert holds(formula, g), f"oracle rejects {g}"
    return True


def certify_unsat(formula, result, pools):
    """An Unsat answer must leave the oracle's bounded search, which draws
    each free variable from ``pools[name]``, with nothing to find."""
    assert result.unsat, "expected unsatisfiable"
    names = sorted(pools)
    assert names == sorted(formula_vars(formula))
    model = search_model(formula, names, [pools[n] for n in names])
    assert model is None, f"oracle finds {model}"
