"""Property test: conjunctions of ``comp``, ``dom``, ``ran``, ``inv`` and
the complements ``ncomp``, ``ndom`` and ``nran``, and of ``un``, ``nun``,
``disj`` and ``subset`` over sets, over two or three atoms and an element
variable get sound answers.  Some goals pair two functional constraints,
or one and its complement, over the same variable inputs, which the store
merges into an equation or a ``neq`` of their outputs.  A Sat answer must
ground to a model the oracle accepts, an Unsat answer must leave the
oracle's bounded search with nothing to find, and no answer may keep a
``comp`` whose third argument lists a pair.  A differential test over the
same generator pins ``C & C`` = ``C``: a goal posted twice gets the steps
and the verdict of the goal posted once, and no answer lists a residual
constraint twice.
Over the same terms, the ``eq`` rule's direct bind of a variable gives the
branches that set unification gives, and goals that list one element into
a set more than once get sound answers, as do goals of ``pfun``, ``npfun``,
``dom`` and ``ndom`` over relations whose tails may be asserted ``pfun``."""
from itertools import combinations

import pytest
from conftest import certify
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle import search_model, subsets
from setsolve.engine import Store, solve
from setsolve.formulas import formula_vars
from setsolve.parser import parse_formula
from setsolve.rules import Bind, rewrite
from setsolve.terms import Atom, ExtSet, Pair, VarGen, mkset
from setsolve.unify import unify

ATOMS = ("a", "b", "c")
RELATIONS = ("R", "S")  # variables that stand for relations
SETS = ("D", "E")       # variables that stand for sets of atoms
ELEMENT = "X"           # a variable that stands for one atom


def _terms(atoms):
    """Strategies for the printed terms over ``atoms``: a pair component (an
    atom or the element variable), a relation (a relation variable or at
    most two listed pairs) and a set (a set variable or at most two listed
    components)."""
    component = st.sampled_from(atoms + (ELEMENT,))
    pair = st.tuples(component, component)
    listed_rel = st.lists(pair, max_size=2, unique=True).map(
        lambda ps: "{" + ", ".join(f"[{x}, {y}]" for x, y in ps) + "}")
    listed_set = st.lists(component, max_size=2, unique=True).map(
        lambda xs: "{" + ", ".join(xs) + "}")
    rel = st.one_of(st.sampled_from(RELATIONS), listed_rel)
    dset = st.one_of(st.sampled_from(SETS), listed_set)
    return component, rel, dset


@st.composite
def _twins(draw, rel, dset):
    """Two functional constraints over the same variable inputs, the second
    of the same kind as the first or its complement; ``un``'s inputs may
    be swapped."""
    kind = draw(st.sampled_from(("comp", "dom", "ran", "inv", "un")))
    if kind == "un":
        ins, out = list(draw(st.permutations(SETS))), dset
    else:
        n = 2 if kind == "comp" else 1
        ins = [draw(st.sampled_from(RELATIONS)) for _ in range(n)]
        out = rel if kind in ("comp", "inv") else dset
    first = f"{kind}({', '.join(ins + [draw(out)])})"
    if kind == "un" and draw(st.booleans()):
        ins.reverse()
    second = draw(st.sampled_from((kind, "n" + kind)))
    return f"{first} & {second}({', '.join(ins + [draw(out)])})"


@st.composite
def goals(draw):
    """A conjunction of one to three constraints, each argument a variable
    or a listed relation or set over the first two or three atoms.  A pair
    component or a set element may also be the element variable, so that
    two listed pairs can meet at terms the solver cannot yet tell apart.
    One constraint may be a pair of functional ones over the same inputs."""
    atoms = ATOMS[:draw(st.integers(2, 3))]
    _, rel, dset = _terms(atoms)
    comp3 = st.tuples(rel, rel, st.one_of(st.just("{}"), rel))
    constraint = st.one_of(
        # ``comp(r, s, {})`` is how the machines say "x is not in dom(F)".
        comp3.map(lambda a: "comp({}, {}, {})".format(*a)),
        comp3.map(lambda a: "ncomp({}, {}, {})".format(*a)),
        st.tuples(rel, dset).map(lambda a: "dom({}, {})".format(*a)),
        st.tuples(rel, dset).map(lambda a: "ndom({}, {})".format(*a)),
        st.tuples(rel, dset).map(lambda a: "ran({}, {})".format(*a)),
        st.tuples(rel, dset).map(lambda a: "nran({}, {})".format(*a)),
        st.tuples(rel, rel).map(lambda a: "inv({}, {})".format(*a)),
        st.tuples(dset, dset, dset).map(lambda a: "un({}, {}, {})".format(*a)),
        st.tuples(dset, dset, dset).map(lambda a: "nun({}, {}, {})".format(*a)),
        st.tuples(dset, dset).map(lambda a: "disj({}, {})".format(*a)),
        st.tuples(dset, dset).map(lambda a: "subset({}, {})".format(*a)),
        _twins(rel, dset),
    )
    parts = draw(st.lists(constraint, min_size=1, max_size=3))
    return " & ".join(parts), atoms


def _pools(names, atoms):
    """Relations of at most two pairs, every set, and every atom, over
    ``atoms``."""
    elems = ["a:" + x for x in atoms]
    pairs = [(x, y) for x in elems for y in elems]
    rels = [frozenset(c) for n in range(3) for c in combinations(pairs, n)]
    return [rels if name in RELATIONS else elems if name == ELEMENT
            else subsets(elems) for name in names]


SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# A functional constraint and its complement, or two of them, over one input.
TWINS = [
    ("un(D, E, {a}) & un(E, D, {a, b})", ATOMS[:2]),
    ("un(D, E, {a}) & nun(E, D, {a})", ATOMS[:2]),
    ("dom(R, {a}) & ndom(R, {a, b})", ATOMS[:2]),
    ("comp(R, R, {[a, b]}) & ncomp(R, R, S)", ATOMS[:2]),
    ("inv(R, S) & inv(R, {[a, b]})", ATOMS[:2]),
]


def _twin_examples(test):
    for goal in TWINS:
        test = example(goal)(test)
    return test


@SETTINGS
@given(goals())
@_twin_examples
# A ``comp`` over ``{}`` holds only over relations: the complement's
# ``npair`` branch must not list a non-pair into ``R``.
@example(("ncomp({}, R, {}) & comp(R, {}, {})", ATOMS[:2]))
@example(("comp(R, {}, {}) & ncomp(R, {}, {})", ATOMS[:2]))
def test_comp_dom_ran_answers_are_sound(goal):
    text, atoms = goal
    f = parse_formula(text)
    # Running out of budget may only give Unknown, which checks nothing; a
    # decided example needs at most a few hundred steps.
    res = solve(f, budget=1_000)
    if res.solutions:
        for c in res.solutions[0].residual:
            assert not (c.kind == "comp" and isinstance(c.args[2], ExtSet)), \
                f"{text} keeps {c}"
        certify(f, res)
    elif res.unsat:
        names = sorted(formula_vars(f))
        assert search_model(f, names, _pools(names, atoms)) is None, \
            f"{text} reported Unsat"


def _verdict(res):
    """Sat, Unsat, or None when the search ran out of budget undecided."""
    return "Sat" if res.solutions else "Unsat" if res.unsat else None


@SETTINGS
@given(goals())
@_twin_examples
def test_a_goal_posted_twice_is_solved_as_once(goal):
    text, _ = goal
    once = solve(parse_formula(text), budget=1_000)
    twice = solve(parse_formula(f"{text} & {text}"), budget=1_000)
    assert (twice.steps, _verdict(twice)) == (once.steps, _verdict(once)), text
    for res in (once, twice):
        for sol in res.solutions:
            rest = sol.residual
            assert all(c not in rest[:i] for i, c in enumerate(rest)), \
                f"{text} lists a residual constraint twice: {rest}"


@pytest.mark.parametrize("text, steps", [
    ("comp(R, R, {[a, c]})", 26),
    ("dom({[a, b], [b, b]}, D) & ran(S, D) & dom({[c, b]}, {c, X})", 39),
])
def test_a_goal_posted_twice_takes_the_steps_of_the_goal_posted_once(text, steps):
    """``comp(R, R, {[a, c]})`` takes 26 steps: an instance of the cover's
    ``N neq M or [X, Z] in T`` with ``N`` and ``M`` the same term loses its
    ``t neq t`` alternative in ``rewrite``, before the store is cloned, and
    two instances hold on sight.
    Each witness membership lists its pair once, in a bind that takes no
    ``eq`` pop and a ``nin`` that takes three.  In the ``dom`` goal, an
    equation of two listed sets with the same head has no swap branch."""
    for goal in (text, f"{text} & {text}"):
        res = solve(parse_formula(goal), budget=1_000)
        assert (res.steps, _verdict(res)) == (steps, "Sat"), goal


@st.composite
def listing_goals(draw):
    """A conjunction of one to three constraints that list elements into
    sets, over the terms of ``goals``: an equation of two listed sets with
    one head over two variable tails, a membership of that head in a tail,
    or an ``in``, ``nin`` or ``npair`` of an element or a pair, where ``in``
    and ``nin`` may be over a product."""
    atoms = ATOMS[:draw(st.integers(2, 3))]
    component, rel, dset = _terms(atoms)
    pair = st.tuples(component, component).map(lambda p: "[{}, {}]".format(*p))
    member = st.sampled_from(("in", "nin"))
    constraint = st.one_of(
        st.tuples(component, member, dset).map(" ".join),
        st.tuples(pair, member, rel).map(" ".join),
        st.tuples(st.one_of(component, pair), member, dset, dset).map(
            lambda a: "{} {} cp({}, {})".format(*a)),
        st.one_of(component, pair).map(lambda t: f"npair({t})"),
    )
    sort = draw(st.sampled_from((SETS, RELATIONS)))
    head = draw(component if sort is SETS else pair)
    equation = st.permutations(sort).map(
        lambda a: f"{{{head} / {a[0]}}} = {{{head} / {a[1]}}}")
    relisted = st.tuples(member, st.sampled_from(sort)).map(
        lambda a: f"{head} {a[0]} {a[1]}")
    parts = draw(st.lists(st.one_of(equation, relisted, constraint),
                          min_size=1, max_size=3))
    return " & ".join(parts), atoms


def _sorted_hints(atoms):
    """Candidates for the set and relation variables of the generator, by
    sort: the empty set first, then sets of one or two atoms and relations
    of one pair."""
    elems = [Atom(x) for x in atoms]
    pairs = [Pair(x, y) for x in elems for y in elems]
    return ({n: [mkset(list(c)) for k in range(3) for c in combinations(elems, k)]
             for n in SETS}
            | {n: [mkset(list(c)) for k in range(2) for c in combinations(pairs, k)]
               for n in RELATIONS})


@settings(SETTINGS, max_examples=150)
@given(listing_goals())
def test_listing_an_element_once_keeps_every_answer(goal):
    """A membership that lists its element once, the missing swap branch of
    ``{t / A} = {t / B}`` and the drop of ``npair`` of a pair lose no
    answer: a Sat answer grounds to a model the oracle accepts, and an
    Unsat one leaves the oracle's bounded search with nothing to find.
    The set and relation variables are grounded by their sort, as
    ``verify`` grounds a declared name: ``eq`` has no set position in
    ``formulas.SIG``, so a variable that only an equation puts in a set
    tail has no sort in the store, and grounds to an atom."""
    text, atoms = goal
    f = parse_formula(text)
    res = solve(f, budget=1_000)
    if res.solutions:
        certify(f, res, hints=_sorted_hints(atoms))
    else:
        assert res.unsat, f"{text} is undecided"
        names = sorted(formula_vars(f))
        assert search_model(f, names, _pools(names, atoms)) is None, \
            f"{text} reported Unsat"


@st.composite
def function_goals(draw):
    """``npfun`` of a relation and ``dom`` of a relation variable, in
    either order, with up to one more ``npfun``, ``ndom`` or pair
    membership and, in half of the goals, ``pfun`` of that variable.  A
    relation is the variable, one pair listed over it or one or two listed
    pairs, and a domain a set variable or one or two listed atoms."""
    atoms = ATOMS[:draw(st.integers(2, 3))]
    component = st.sampled_from(atoms + (ELEMENT,))
    pair = st.tuples(component, component).map(lambda p: "[{}, {}]".format(*p))
    f = draw(st.sampled_from(RELATIONS))
    tailed = pair.map(lambda p: f"{{{p} / {f}}}")
    listed = st.lists(pair, min_size=1, max_size=2, unique=True).map(
        lambda ps: "{" + ", ".join(ps) + "}")
    rel = st.one_of(st.just(f), tailed, listed)
    dset = st.one_of(st.sampled_from(SETS), st.lists(
        st.sampled_from(atoms), min_size=1, max_size=2, unique=True).map(
            lambda xs: "{" + ", ".join(xs) + "}"))
    core = [f"npfun({draw(st.one_of(st.just(f), tailed))})", f"dom({f}, {draw(dset)})"]
    extra = st.one_of(
        rel.map(lambda r: f"npfun({r})"),
        st.tuples(rel, dset).map(lambda a: "ndom({}, {})".format(*a)),
        st.tuples(pair, rel).map(lambda a: "{} in {}".format(*a)),
    )
    parts = draw(st.permutations(core + draw(st.lists(extra, max_size=1))))
    if draw(st.booleans()):
        parts.append(f"pfun({f})")
    return " & ".join(parts), atoms


@settings(SETTINGS, max_examples=150)
@given(function_goals())
@example(("dom(R, {a}) & [a, b] in R & [a, c] in R", ATOMS))
@example(("pfun(R) & dom(R, {a}) & [a, b] in R & [a, c] in R", ATOMS))
@example(("dom(R, {a}) & ran(R, {b, c})", ATOMS))
@example(("pfun(R) & dom(R, {a}) & ran(R, {b, c})", ATOMS))
def test_a_function_lists_each_point_once_and_keeps_every_answer(goal):
    """``npfun`` of a listed pair that drops ``npfun`` of a tail asserted
    ``pfun``, and ``dom`` of a variable asserted ``pfun`` that keeps the
    listed head out of the rest's domain, lose no answer: a Sat answer
    grounds to a model the oracle accepts, and an Unsat one leaves the
    oracle's bounded search with nothing to find.  Running out of budget
    gives Unknown, which checks nothing."""
    text, atoms = goal
    f = parse_formula(text)
    res = solve(f, budget=1_000)
    if res.solutions:
        certify(f, res, hints=_sorted_hints(atoms))
    elif res.unsat:
        names = sorted(formula_vars(f))
        assert search_model(f, names, _pools(names, atoms)) is None, \
            f"{text} reported Unsat"


@st.composite
def equations(draw):
    """``s = t`` with each side an element, a relation or a set of
    ``goals``, so that a variable side may occur in the other side."""
    term = st.one_of(*_terms(ATOMS[:draw(st.integers(2, 3))]))
    return f"{draw(term)} = {draw(term)}"


@SETTINGS
@given(equations())
def test_the_eq_rule_gives_the_branches_of_unify(text):
    c = parse_formula(text)
    want = [([Bind(tuple(sorted(delta.items())))] if delta else []) + deferred
            for delta, deferred in unify(*c.args, VarGen(), [])]
    assert rewrite(c, Store(VarGen())) == want, text
