"""Every constraint reaches its rewrite rule normal under the substitution.

The search loop skips re-substituting queue items it knows to be normal
already.  These tests watch every call into the rules and check that no
non-quantifier constraint still mentions a bound variable.
"""
import pytest
from conftest import certify
from setsolve import engine, verifier
from setsolve.corpus import load_corpus
from setsolve.engine import solve
from setsolve.formulas import subst_formula
from setsolve.parser import parse_formula
from setsolve.terms import VarGen


@pytest.fixture
def checked(monkeypatch):
    """Wrap the rewrite entry point with the normal-form check; yields the
    number of constraints checked so far."""
    real = engine.rewrite
    seen = [0]

    def rewrite(c, store):
        if c.q is None:
            assert subst_formula(store.subst, c, VarGen()) == c, c
            seen[0] += 1
        return real(c, store)

    monkeypatch.setattr(engine, "rewrite", rewrite)
    return seen


def test_bind_with_deferred_equation_sat(checked):
    # unify binds X and splits {X / T} = cp(A, B), which still mentions X,
    # into two subset constraints in the same step.  The equation used to
    # come back as an eq that took one more step to split (12 steps then).
    f = parse_formula("[{X / T}, X] = [cp(A, B), [1, 2]] & X neq [1, 3]")
    res = solve(f)
    assert res.steps == 11 and checked[0] > 0
    certify(f, res)


def test_bind_with_deferred_equation_unsat(checked):
    # As above: the product equation is split by unify, not popped again as
    # an eq (5 steps then).
    res = solve(parse_formula("[{X / T}, X] = [cp(A, B), 1]"))
    assert res.unsat and res.steps == 4


def test_example_queries(checked):
    program = {c.name: c for c in load_corpus()}["examples.slog"].parsed
    for q in program.queries:
        solve(q, program=program)
    assert checked[0] > 0


def test_gears_intermediate(checked):
    m = {c.name: c for c in load_corpus()}["gears_intermediate.smch"].parsed
    assert all(r.status == "Proved" for r in verifier.verify_machine(m))
    assert checked[0] > 0
