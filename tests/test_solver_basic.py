"""Every constraint kind through the solver, answers certified by the oracle."""
import pytest
from conftest import certify, certify_unsat
from oracle import subsets
from setsolve import cli
from setsolve.engine import Store, ground_complete, solve
from setsolve.formulas import C
from setsolve.parser import parse_formula
from setsolve.rules import FUN, SET, rewrite
from setsolve.terms import EMPTY, Atom, ExtSet, Int, Interval, Pair, Var, VarGen, mkset


def sat(run, text, **kw):
    f = parse_formula(text) if isinstance(text, str) else text
    res = run(f, **kw)
    assert not res.unsat, f"{text} reported unsatisfiable"
    certify(f, res)
    return res


def unsat(run, text, **kw):
    res = run(text, **kw)
    assert res.unsat, f"{text} should be unsatisfiable"


# Sets of the pairs [a, a] and [a, b] and the non-pair a, for the oracle's
# bounded search.
RELS = subsets([("a:a", "a:a"), ("a:a", "a:b"), "a:a"])
INTS = [-1, 0, 1, 2]


def refuted(run, text, pools):
    """``text`` is Unsat, and the oracle finds no model over ``pools``."""
    f = parse_formula(text)
    certify_unsat(f, run(f), pools)


def test_equality(run):
    sat(run, "{1,2} = {2,1}")
    sat(run, "{1,1,2} = {1,2}")
    sat(run, "X = {1,2} & {2,1} = X")
    unsat(run, "{1,2} = {1,3}")
    unsat(run, "X = {1} & X = {2}")
    unsat(run, "[1,2] = [2,1]")
    sat(run, "{X/{2}} = {1,2}")
    # unify decides an equation over a product or an interval.
    assert cli._answer_line(sat(run, "int(1, N) = {}").solutions[0]) == "N < 1"
    unsat(run, "cp(A, B) = int(1, 2)")


def test_disequality(run):
    sat(run, "X neq {1}")
    sat(run, "{1,2} neq {1,3}")
    unsat(run, "{1,2} neq {2,1,1}")
    unsat(run, "X neq X")
    sat(run, "[X,2] neq [1,Y]")
    unsat(run, "X >= 1 & X =< 1 & Y >= 1 & Y =< 1 & X neq Y")
    # A set is never an ur-element, and an integer never a set.
    for text, answer in [("X = {a / N} & N neq 0", "X = {a/N}"),
                         ("X = {a / N} & N neq b", "X = {a/N}"),
                         ("N neq 0 & a in N", "N = {a/_N1}, a nin _N1"),
                         ("X = int(1, N) & N neq {}", "X = int(1,N)")]:
        assert cli._answer_line(sat(run, text).solutions[0]) == answer
    # A listed set against an ur-element holds outright, whatever it lists.
    for text in ["{X} neq a", "{X / T} neq 1"]:
        assert cli._answer_line(sat(run, text).solutions[0]) == "Sat."
    # X = {a / D} shows the tail D to be a set, so D neq E splits on an
    # element of one side that the other lacks instead of parking.
    res = sat(run, "X = {a / D} & D neq E", max_solutions=10)
    assert res.complete and [cli._answer_line(s) for s in res.solutions] == [
        "D = {_N1/_N2}, X = {a,_N1/_N2}, _N1 nin E, _N1 nin _N2",
        "E = {_N1/_N3}, X = {a/D}, _N1 nin D, _N1 nin _N3",
    ]


def test_membership(run):
    sat(run, "2 in {1,2,3}")
    sat(run, "X in {1,2,3}")
    sat(run, "1 in X & 2 in X")
    unsat(run, "4 in {1,2,3}")
    unsat(run, "X in {}")
    unsat(run, "1 in X & X = {2}")
    # ``x in S`` binds ``S = {x / N}`` and keeps ``x`` out of ``N``, unless
    # ``S`` is asserted ``pfun``, whose rule lists each pair once.
    assert cli._answer_line(sat(run, "X in A").solutions[0]) == "A = {X/_N1}, X nin _N1"
    res = sat(run, "X in A & pfun(A)")
    assert all(c.kind != "nin" for c in res.solutions[0].residual)


def test_non_membership(run):
    sat(run, "4 nin {1,2,3}")
    sat(run, "X nin {1,2}")
    unsat(run, "2 nin {1,2}")
    unsat(run, "X in A & X nin A")
    sat(run, "X nin A & A = {1,2}")
    # A product or an interval that is not ground: the rule splits it.
    sat(run, "[a, b] nin cp(A, B) & a in A")
    refuted(run, "[a, b] nin cp(A, B) & a in A & b in B",
            {"A": subsets(["a:a", "a:b"]), "B": subsets(["a:a", "a:b"])})
    sat(run, "X nin int(1, N) & 0 < X & N > 3")
    sat(run, "a nin int(L, H)")
    refuted(run, "X nin int(L, H) & L =< X & X =< H",
            {"X": INTS, "L": INTS, "H": INTS})


def test_a_pair_outside_a_product_clones_no_store_for_npair(run):
    # ``npair`` of a pair is false on sight, so only the two alternatives
    # that put a component outside its factor are left.
    res = run("[X, Y] nin cp(S, T)", max_solutions=10)
    assert (len(res.solutions), res.clones) == (2, 1)
    for sol in res.solutions:
        assert all(c.kind != "npair" for c in sol.residual)


def test_union(run):
    sat(run, "un({1,2}, {2,3}, X)")
    sat(run, "un(A, B, {1,2})", max_solutions=50)
    sat(run, "un({1}, B, {1,2})")
    unsat(run, "un({1}, {2}, {1,2,3})")
    unsat(run, "un(A, B, {1}) & 2 in A")
    res = solve(parse_formula("un({1,2}, {2,3}, X)"))
    g = ground_complete(res.solutions[0])
    assert g["X"] == mkset([Int(1), Int(2), Int(3)])


def test_union_enumerates_covers(run):
    f = parse_formula("un(A, B, {1,2})")
    res = run(f, max_solutions=100)
    assert res.complete
    got = set()
    for sol in res.solutions:
        g = ground_complete(sol)
        assert g is not None
        got.add((frozenset(x.value for x in iter_elems(g["A"])),
                 frozenset(x.value for x in iter_elems(g["B"]))))
    assert (frozenset({1, 2}), frozenset()) in got
    assert (frozenset(), frozenset({1, 2})) in got


def iter_elems(t):
    from setsolve.terms import set_parts
    elems, tail = set_parts(t)
    assert tail == EMPTY
    return elems


def test_non_union(run):
    sat(run, "nun({1}, {2}, {1})")
    sat(run, "nun(A, B, C) & A = {1} & B = {} & C = {1,2}")
    unsat(run, "nun({1}, {2}, {1,2})")
    unsat(run, "un(A, B, C) & nun(A, B, C)")


def test_disjointness(run):
    sat(run, "disj({1}, {2})")
    sat(run, "disj(A, B) & 1 in A")
    sat(run, "disj(A, A) & A = {}")
    unsat(run, "disj({1,2}, {2})")
    unsat(run, "disj(A, A) & 1 in A")
    sat(run, "ndisj({1,2}, {2,3})")
    unsat(run, "ndisj({1}, {2})")
    unsat(run, "ndisj(A, A) & A = {}")
    # Over a variable, ndisj asks for an element of both; so does a negated
    # disj.
    for text in ["ndisj(A, {a})", "neg(disj(A, {a / B}))"]:
        assert cli._answer_line(sat(run, text).solutions[0]) == "A = {a/_N2}, a nin _N2"


def test_inclusion(run):
    sat(run, "subset({1}, {1,2})")
    sat(run, "subset(A, {1,2}) & 1 in A")
    unsat(run, "subset({3}, {1,2})")
    unsat(run, "subset(A, {1}) & 2 in A")
    sat(run, "nsubset({3}, {1,2})")
    unsat(run, "nsubset({1}, {1,2})")
    unsat(run, "nsubset(A, A)")


def test_composition(run):
    """``comp(R, R, {[a, b]})`` takes 26 steps: the inner ``foreach`` of the
    cover instantiates ``N neq M or [X, Z] in T`` with ``N`` and ``M`` the
    same term, and ``rewrite`` drops that ``t neq t`` alternative before the
    store is cloned, one step sooner than when it was queued to fail.  The
    two witness memberships bind ``R`` directly, two ``eq`` pops fewer, and
    post ``[a, N] nin R1`` and ``[N, b] nin R2``, which take six pops and
    one clone to show that the two pairs differ.  Two instances hold when
    the ``or`` is rewritten, one clone and two pops fewer: the ground
    ``[a, b] in {[a, b]}`` and ``b neq a``, true on sight."""
    sat(run, "comp({[1,2]}, {[2,5]}, {[1,5]})")
    sat(run, "comp({[1,2]}, {[3,5]}, {})")
    sat(run, "comp({[1,2],[2,2]}, {[2,7]}, X)")
    unsat(run, "comp({[1,2]}, {[2,5]}, {})")
    unsat(run, "comp({[1,2]}, {[2,5]}, {[1,5],[2,2]})")
    sat(run, "ncomp({[1,2]}, {[2,5]}, {})")
    unsat(run, "ncomp({[1,2]}, {[2,5]}, {[1,5]})")
    # Over variables, ncomp is rewritten, not evaluated.
    sat(run, "ncomp(R, S, T)")
    refuted(run, "ncomp(R, S, T) & R = {} & T = {} & pfun(S)",
            {"R": RELS, "S": RELS, "T": RELS})
    # A comp over a variable whose third argument lists a pair is decided,
    # not parked: each listed pair asks for a witness in both relations.
    sat(run, "comp(R, S, {[a, b]})")
    sat(run, "comp(R, S, {[a, b], [c, d]})")
    unsat(run, "comp(R, {[u, v]}, {[a, b]})")
    sat(run, "comp({[a, b]}, S, {[a, d]})")
    unsat(run, "comp({[a, b]}, S, {[c, d]})")
    # The same variable on both sides: R = {[a,N], [N,b]} with N not a or b.
    assert sat(run, "comp(R, R, {[a, b]})").steps == 26
    unsat(run, "neg(comp(R, S, T) & dom(T, D) & dom(R, E) implies subset(D, E))")
    sat(run, "neg(comp(R, S, T) & dom(T, D) & dom(R, E) implies subset(D, EE))")


def test_an_empty_comp_is_decided_without_branching(run):
    # comp(r, s, {}) splits over each listed pair of r and of s, and one
    # pair against one pair is a single disequality, so no store is cloned.
    # The last split leaves comp({[X, X]}, {}, {}), which holds on sight.
    res = sat(run, "comp({[X, X]}, {[a, b], [c, d]}, {})")
    assert (res.steps, res.clones) == (4, 0)
    res = run("comp({[X, X]}, {[Y, b], [c, d]}, {}) & X = Y")
    assert res.unsat and res.steps == 2
    res = run("comp(R, S, {}) & [a, b] in R & [b, c] in S")
    assert res.unsat and res.steps == 6
    res = run("comp(R, {[a, b], [c, d]}, {}) & [x, a] in R")
    assert res.unsat and res.steps == 6
    # X is still free when the comp is split, so its neq must be kept.
    unsat(run, "comp({[X, X]}, {[a, b]}, {}) & dom({[X, b]}, {a})")
    # Terms that differ in structure may still be equal: {x, y} = {y, x}.
    unsat(run, "comp({[a, {x, y}]}, {[{y, x}, c] / S}, {})")


def test_a_comp_over_an_empty_argument_holds_over_relations(run):
    # ``{}`` or an interval as one argument makes the composition empty,
    # but the other argument must still be a relation.
    for text in ["comp({a}, {}, T)", "comp({}, {[a, b], c}, T)",
                 "comp(int(1, N), {a}, T)", "comp(S, int(1, N), T) & a in S"]:
        unsat(run, text)
    for text, answer in [("comp(R, {}, T)", "T = {}, dom(R,_N1)"),
                         ("comp({[a, b] / S}, {}, T)", "T = {}, dom(S,_N1)"),
                         ("comp({X}, {}, T)", "T = {}, X = [_N1,_N2]"),
                         ("comp({[a, b]}, {}, T)", "T = {}"),
                         ("comp(int(1, N), S, T)", "T = {}, N < 1, dom(S,_N1)"),
                         ("comp(cp(A, B), int(1, N), T)", "T = {}, N < 1")]:
        assert cli._answer_line(sat(run, text).solutions[0]) == answer, text
    refuted(run, "comp(int(1, N), S, T) & N = 1", {"N": INTS, "S": RELS, "T": RELS})
    refuted(run, "comp({}, S, T) & [a, a] in T", {"S": RELS, "T": RELS})


def test_inverse(run):
    sat(run, "inv({[1,2],[3,4]}, {[2,1],[4,3]})")
    sat(run, "inv({[1,2]}, X)")
    sat(run, "inv(X, {[2,1]})")
    unsat(run, "inv({[1,2]}, {[1,2]})")
    sat(run, "ninv({[1,2]}, {[1,2]})")
    unsat(run, "ninv({[1,2]}, {[2,1]})")
    sat(run, "ninv(R, {[1, 2]})")
    refuted(run, "ninv(R, {}) & disj(R, R)", {"R": RELS})


def test_identity(run):
    sat(run, "id({1,2}, {[1,1],[2,2]})")
    sat(run, "id(A, {[1,1]})")
    unsat(run, "id({1,2}, {[1,1]})")
    unsat(run, "id({1}, {[1,2]})")
    sat(run, "nid({1}, {[1,2]})")
    unsat(run, "nid({1}, {[1,1]})")
    sat(run, "nid(A, {[1, 1]})")
    refuted(run, "nid(A, {}) & disj(A, A)", {"A": subsets([1, 2, (1, 1)])})


def test_partial_function(run):
    sat(run, "pfun({[1,2],[2,2]})")
    sat(run, "pfun(F) & [1,2] in F & [2,3] in F")
    unsat(run, "pfun({[1,2],[1,3]})")
    unsat(run, "pfun(F) & [1,2] in F & [1,3] in F")
    sat(run, "npfun({[1,2],[1,3]})")
    unsat(run, "npfun({[1,2],[2,3]})")


def _rewrite(text, functions=()):
    """The branches ``rewrite`` gives ``text`` in a store that has shown
    each variable named in ``functions`` to be asserted ``pfun``."""
    store = Store(VarGen())
    for name in functions:
        store.facts[name] = SET | FUN
    return rewrite(parse_formula(text), store)


N1, N2, N3 = Var("_N1"), Var("_N2"), Var("_N3")
A, B, S = Atom("a"), Atom("b"), Var("S")


def test_npfun_of_a_listed_pair_asks_the_tail_for_another_image():
    other = [C("in", Pair(A, N1), S), C("neq", N1, B)]
    assert _rewrite("npfun({[a, b] / S})") == [other, [C("npfun", S)]]
    # A tail asserted ``pfun`` is a function, so only the first branch is left.
    assert _rewrite("npfun({[a, b] / S})", functions=["S"]) == [other]
    # A listed tail keeps its branch, whatever is known of its own tail.
    tail = ExtSet(Pair(B, B), S)
    assert _rewrite("npfun({[a, b], [b, b] / S})", functions=["S"]) == [
        [C("in", Pair(A, N1), tail), C("neq", N1, B)], [C("npfun", tail)]]


def test_dom_of_a_function_keeps_the_listed_head_out_of_the_rests_domain():
    R, D = Var("R"), Var("D")
    branch = [C("eq", R, ExtSet(Pair(A, N1), N2)), C("dom", N2, N3),
              C("eq", ExtSet(A, N3), ExtSet(A, D))]
    assert _rewrite("dom(R, {a / D})") == [branch]
    assert _rewrite("dom(R, {a / D})", functions=["R"]) == [branch + [C("nin", A, N3)]]


def test_npfun_of_a_listed_pair_gives_each_answer_once(run):
    # ``S`` holds ``[a, N]`` with ``N neq X`` in one answer, not also in a
    # second one with the ``neq`` flipped.
    res = run("npfun({[a, X] / S})", max_solutions=10)
    assert res.complete
    assert [cli._answer_line(s) for s in res.solutions] == [
        "S = {[a,_N1]/_N2}, _N1 neq X, [a,_N1] nin _N2",
        "S = {[_N3,_N4],[_N3,_N5]/_N8}, _N4 neq _N5, [_N3,_N5] nin _N8, [_N3,_N4] nin _N8",
        "S = {_N6/_N9}, npair(_N6), _N6 nin _N9",
    ]


def test_domain(run):
    sat(run, "dom({[1,2],[3,4]}, {1,3})")
    sat(run, "dom(F, {1}) & pfun(F) & ran(F, {7})")
    unsat(run, "dom({[1,2]}, {1,3})")
    unsat(run, "dom({[1,2]}, {})")
    sat(run, "ndom({[1,2]}, {2})")
    unsat(run, "ndom({[1,2]}, {1})")


def test_pfun_follows_a_bind_to_another_variable(run):
    # pfun(F) is shown of F; after F = G, dom peels one pair of G per
    # element of its domain, and the rest's domain m is the ground rest of
    # {a, b}, which lacks the peeled element, so there is exactly one
    # answer.  16 steps and no clone: m = {b} and m' = {} bind directly.
    res = sat(run, "pfun(F) & F = G & dom(G, {a, b})", max_solutions=100)
    assert res.complete and len(res.solutions) == 1
    assert (res.steps, res.clones) == (16, 0)
    # Without pfun, dom takes the general path: one answer per multiplicity.
    assert len(run("F = G & dom(G, {a, b})", max_solutions=2).solutions) == 2


def test_a_sort_shown_in_one_branch_stays_out_of_its_sibling(run):
    # The first alternative shows X to be a set (at a set position, or as a
    # listed set's tail) and dies on Z = 1; in the Z = 2 branch nothing shows
    # X or Y to be a set, so X neq Y stays parked.
    for shows in ["subset(X, A)", "{a / X} = A"]:
        res = run(f"Z = 2 & ({shows} & Z = 1 or Z = 2) & foreach(W in {{1}}, X neq Y)")
        assert res.complete and len(res.solutions) == 1
        assert cli._answer_line(res.solutions[0]) == "Z = 2, X neq Y"


@pytest.mark.parametrize("text, names", [
    ("cp(A, B) = E", ["A", "B"]),
    ("{a / D} = E", ["D"]),
    ("[{a / D}, F] = E", ["D"]),
])
def test_enqueue_shows_the_sorts_a_terms_structure_gives(text, names):
    # ``eq`` gives its arguments no sort, but a product's factors and a
    # listed set's tail are sets wherever the term stands.
    store = Store(VarGen())
    store.enqueue(parse_formula(text))
    assert store.facts == dict.fromkeys(names, SET)


def test_a_repeated_constraint_is_parked_once(run):
    res = run("X neq Y & X neq Y & [a, b] nin S & [a, b] nin S")
    assert res.complete and len(res.solutions) == 1
    assert cli._answer_line(res.solutions[0]) == "X neq Y, [a,b] nin S"
    # ``neq`` is symmetric: its swapped copy is the same constraint.
    assert cli._answer_line(run("X neq Y & Y neq X").solutions[0]) == "X neq Y"
    line = cli._answer_line(run("comp(R, R, {[a, b]})").solutions[0])
    assert line.count("a neq _N1") == 1 and "_N1 neq a" not in line


def test_range(run):
    sat(run, "ran({[1,2],[3,4]}, {2,4})")
    sat(run, "ran(F, {1})")
    unsat(run, "ran({[1,2]}, {1})")
    sat(run, "nran({[1,2]}, {1})")
    unsat(run, "nran({[1,2]}, {2})")
    # Over a variable relation, ``nran`` is rewritten, not evaluated.
    sat(run, "nran(R, {b}) & dom(R, {a})")
    refuted(run, "nran(R, T) & ran(R, T)", {"R": RELS, "T": subsets(["a:a", "a:b"])})


def test_application(run):
    sat(run, "applyTo({[1,7],[2,8]}, 1, 7)")
    sat(run, "applyTo({[1,7],[2,8]}, 2, X)")
    sat(run, "applyTo(F, 1, 7) & dom(F, {1})")
    unsat(run, "applyTo({[1,7],[2,8]}, 1, 8)")
    unsat(run, "applyTo({[1,7],[1,8]}, 1, 7)")
    unsat(run, "applyTo({}, 1, X)")


def test_override(run):
    sat(run, "foplus({[1,7]}, 1, 9, {[1,9]})")
    sat(run, "foplus({[1,7]}, 2, 9, {[1,7],[2,9]})")
    sat(run, "foplus({[1,7],[2,8]}, 1, 9, G)")
    unsat(run, "foplus({[1,7]}, 1, 9, {[1,7],[1,9]})")
    unsat(run, "foplus({[1,7]}, 2, 9, {[1,7]})")


def test_declarations_are_transparent(run):
    res = run("dec(X, stype(int)) & X = {1,2}")
    assert res.solutions
    assert res.solutions[0].bindings["X"] == mkset([Int(1), Int(2)])


def test_atoms_strings_ints_are_distinct(run):
    unsat(run, 'a = "a"')
    unsat(run, "1 = one")
    sat(run, 'X = "hi" & X neq hi')


def test_deterministic_propagation_through_queues(run):
    res = sat(run, "un(A, B, C) & C = {1} & A = {} & B = X")
    g = ground_complete(res.solutions[0])
    assert g["X"] == mkset([Int(1)])


def test_budget_exhaustion_is_reported():
    f = parse_formula("un(A, B, C) & un(C, D, E) & un(E, F, G) & 1 in G")
    res = solve(f, budget=5)
    assert not res.complete
    assert res.exhausted_budget
    assert not res.unsat


def test_multiple_solutions_stop_at_limit(run):
    res = run("X in {1,2,3}", max_solutions=2)
    assert len(res.solutions) == 2


def test_ground_complete_reads_interval_bounds(run):
    # An interval with a variable bound in the answer: the bound is an
    # integer, and grounding picks one that satisfies the residue.
    res = sat(run, "X = int(1, N) & N > 0")
    g = ground_complete(res.solutions[0])
    assert g["N"].value > 0
    assert g["X"] == Interval(Int(1), g["N"])
    # The interval shows N to be an integer, so ``neq`` splits into ``lt``.
    res = sat(run, "X = int(1, N) & N neq 0")
    assert cli._answer_line(res.solutions[0]) == "X = int(1,N), N < 0"


@pytest.mark.parametrize("text", [
    # The product branch of each relational rule.
    "pfun(cp(A, B)) & A = {a}",
    "dom(cp(A, B), D) & A = {a}",
    "ran(cp(A, B), R) & B = {b}",
    "inv(cp(A, B), T) & A = {a}",
    "comp(cp(A, B), S, T) & A = {a} & S = {[b, c]}",
    "comp(R, cp(A, B), T) & A = {b}",
    # B occurs only in the product, which shows it a set: it grounds to {}.
    "comp({[a, b]}, cp(A, B), T)",
    "applyTo(cp(A, B), a, Y) & A = {a}",
    # unify splits a product against a listed set into mutual inclusion,
    # also inside a pair.
    "cp(A, B) = {[a, b]}",
    "[cp(A, B), 1] = [{[a, b]}, 1]",
    # ``eq`` has no set position; the factors and the tails are still sets.
    "cp(A, B) = {}",
    "{a / D} = {a / E}",
])
def test_a_product_argument_is_solved_and_certified(run, text):
    sat(run, text)


@pytest.mark.parametrize("text", [
    "X = {a/Y} & Y = 1",          # the bind of Y rewrites the stored X
    "Y = 1 & X = {a/Y}",          # X = {a/Y} is substituted at pop
    "[Y, X] = [1, {a/Y}]",        # inside one unification, at pop
    "[X, Y] = [{a/Y}, 1]",        # inside one unification, at the bind
    "Y = 1 & Z in {a/Y}",
    "X = int(1, Y) & Y = a",      # a non-integer interval bound
    "1 < {a}",                    # a ground non-integer in arithmetic
    "X < {a}",
    "dom(F, D) & F = 1",          # a non-set in a relation position
    "X = cp(Y, Z) & Y = 1",       # a non-set product factor
    "un(A, B, C) & A = 1",
    "X < Y & Y = a",              # an arithmetic variable bound to an atom
    "X < Y & Y in {a}",           # ... after the arithmetic store holds it
])
def test_ill_sorted_bind_fails_the_branch(run, text):
    res = run(text)
    assert res.unsat, f"{text} should be unsatisfiable"
    assert res.ill_sorted, "the cut branch is recorded"


@pytest.mark.parametrize("text", [
    "X = {a/Y} & Y = {} & X = {b}",
    "Y = {b} & X = {a/Y} & X = {a}",
])
def test_well_sorted_unsat_records_no_cut(run, text):
    res = run(text)
    assert res.unsat and res.ill_sorted is None


@pytest.mark.parametrize("text, x", [
    ("(Y = 1 or Y = {b}) & X = {a/Y}", mkset([Atom("a"), Atom("b")])),
    ("Y = 1 & (X = {a/Y} or X = b)", Atom("b")),
    ("exists(Z in {1, {b}}, X = {a/Z})", mkset([Atom("a"), Atom("b")])),
    ("Y = 1 & foreach(Z in X, W = {a/Y})", EMPTY),  # holds over an empty domain
    # The smallest ``or`` alternative that holds the term is the one cut.
    ("Y = 1 & ((X = {a/Y} or X = c) & W = d or X = b)", Atom("c")),
    ("Y = 1 & foreach(Z in {c}, X = {a/Y} or X = b)", Atom("b")),
])
def test_only_the_branch_with_the_ill_sorted_term_dies(run, text, x):
    # The oracle has no verdict on an ill-sorted term, even in a disjunct or
    # an element that is not taken, so the answer is checked directly.
    res = run(text)
    assert res.solutions, f"{text} has an answer"
    assert res.solutions[0].bindings["X"] == x
    assert res.ill_sorted, "the cut branch is recorded"


def test_an_or_with_every_alternative_cut_takes_the_enclosing_alternative(run):
    # The outer alternative dies at the substitution, before it is cloned
    # and queued, so the inner ``false or false`` is never popped.
    res = run("Y = 1 & ((X = {a/Y} or X = {b/Y}) & W = d or X = b)")
    assert [s.bindings for s in res.solutions] == [{"X": Atom("b"), "Y": Int(1)}]
    assert res.ill_sorted == "invalid set tail: Int(value=1)"
    assert (res.steps, res.clones) == (3, 0)


@pytest.mark.parametrize("text", [
    "Y = 1 & (foreach(Z in D, X = {a/Y}) or W = 1) & W = 2",
    "Y = 1 & exists(V in {c}, foreach(Z in D, X = {a/Y}))",
])
def test_a_nested_foreach_with_an_ill_sorted_body_holds_over_an_empty_domain(
        run, capsys, text):
    res = run(text)
    assert res.solutions, f"{text} has an answer"
    assert res.solutions[0].bindings["D"] == EMPTY
    assert res.ill_sorted, "the cut is recorded"
    assert cli.main(["solve", "-e", text]) == cli.OK
    assert "D = {}" in capsys.readouterr().out
