"""Exact rewrite-step counts of the corpus solves.

Step counts are the machine-independent cost of a search.  A change to the
solver core that is meant to be a pure speedup must leave every one of them
as it is; a change to the search order moves them on purpose, and re-pins
them here to exact values.  Each INV and WD obligation of the corpus is proved
by one query for its negated goal with the carriers left free, so neither
count grows with the carrier.

The store parks each residual constraint once: ``pfun``, ``applyTo`` and
``foplus`` each post the same "x is not in the domain" constraint, and a
copy equal to a parked one is dropped instead of being woken and re-solved
on every bind.  That took each carrier-free INV search from 700 steps to
384 (``doors`` 702 to 386); the INIT and WD counts did not move.

A ``disj`` or ``subset`` that the substitution has made a one-branch check
pops ahead of older generators.  That moved the counts in ``SET_GOAL_STEPS``
on purpose: each one used to split a ``un`` before the check that kills the
branch (309, 164, 61 and 18 steps before).

A rewrite drops each branch that holds ``t neq t``, ``x nin {x / _}`` or
``x in {}``, and fails when none is left, instead of cloning the branch and
failing it when that constraint pops.  That moved every count below on
purpose.  Union commutativity (``EXAMPLE_STEPS``' first query) went from
618 steps to 242, since each ``x nin {x / _}`` that the ``un`` splits post
fails on the spot.  ``SET_GOAL_STEPS`` went from 13, 17, 7 and 17 steps to
11, 14, 5 and 15.  Each carrier-free INV search went from 384 steps to 378
(``doors`` 386 to 380), where seven ``x nin {x / _}`` now fail at once.
``doors/INIT/inv2`` went from 6 to 5 (two equal products are not unequal)
and each WD's last round lost one step and one clone (``po in {left}``
keeps only its ``po = left`` branch).

A bind re-reads the level of every queued generator, so a ``disj`` or
``subset`` that a bind settles moves to the front of its level, ahead of
older settled ones and of the constraints the same bind woke, as a
``comp`` whose middle a bind lists already did.  Before, a pop took the
first settled one in queue order.  That moved two ``SET_GOAL_STEPS`` counts
on purpose, 11 to 9 and 14 to 11: in the first, ``disj(H, K)``, settled by
the bind of ``H``, now fails the branch before ``disj(K, {3})``, which was
settled when it was queued, runs.

A PO's declared types are data of the PO, not ``dec`` constraints of its
queries, and ``nnf`` makes a ``dec`` of a ``.slog`` formula true, so no
search pops a declaration.  Each count below lost its ``dec`` pops on
purpose: a ``dec`` was popped once in every branch still alive when it was
reached.  ``gears_intermediate``'s INIT counts lost 3 decs in one branch
(15 to 12, 28 to 25), ``gears/INIT/inv1`` 2 (9 to 7) and ``doors/INIT/inv1``
4 (21 to 17).  Each carrier-free INV search lost its decs in one branch:
3 for ``gears`` (378 to 375, for every carrier) and 5 for ``doors`` (380 to
375).  Each WD lost its decs once in its first round and in 3 branches in
its second: ``gears`` 2 decs (7 to 5, 111 to 105) and ``doors`` 4 (9 to 5,
179 to 167).  ``doors/INIT/inv2`` and ``doors/start_GearExtend/inv2/INV``
fail every branch before a ``dec`` is reached and keep 5 and 4.

The pinned query assumes every invariant from the start, in the order
hypotheses, negated goal, invariants.  Each WD used to run a first round
with no invariant, which found an answer that broke ``inv1``, and a second
with ``inv1``: ``gears`` 5 + 105 and ``doors`` 5 + 167 steps.  Now it runs
one search: 69 steps for ``gears`` and 174 for ``doors``, whose query also
holds ``inv2``.  No other count moved.

A listed set names each element once, by three rules (see ``rules`` and
``unify``), and that moved counts on purpose:

* Rule 1: ``x in S`` over a variable ``S`` binds ``S = {x / N}`` itself,
  one ``eq`` pop sooner, and posts ``x nin N`` unless ``S`` is asserted
  ``pfun``.  So no branch can list ``x`` in ``N`` again, but each posted
  ``nin`` pops at least once.  ``doors/start_GearExtend/inv2/INV`` (4 to 3)
  and ``EXAMPLE_STEPS``' last query (4 to 3) save one ``eq`` pop and fail
  before the ``nin`` pops.  Each WD binds 6 carriers and relations directly
  and pops the 3 ``nin`` it posts for the sets not asserted ``pfun``:
  ``gears`` 69 to 66 and ``doors`` 174 to 171.  In ``SET_GOAL_STEPS``, the
  second goal goes from 11 to 10 (3 ``eq`` pops fewer, 2 ``nin`` pops
  more) and the fourth from 15 to 13 (4 fewer, 2 more).  In
  ``EXAMPLE_STEPS``, the third query goes from 48 to 35 and 12 clones to 9,
  since no ``un`` branch lists an element twice; the second goes from 59 to
  62, where 3 fewer ``eq`` pops meet 6 more ``nin`` pops.
* Rule 2: ``{t / A} = {t / B}`` has no swap branch, since with both heads
  the same term it binds ``A`` and ``B`` to one term and is an instance of
  the ``A = B`` branch.
* Rule 3: a branch that holds ``npair`` of a pair is dropped on sight,
  like ``t neq t``.  No count below has one.

Each carrier-free INV search went from 375 steps and 84 clones to 183 and
39, for every carrier: rule 1 alone gives 188, and rule 2 alone 336.  The
search binds the carrier to ``{po / N}``, and before, the ``dom`` split
also tried the carrier ``{po, po / N}`` and refuted the same goal again
over it.  Union commutativity (``EXAMPLE_STEPS``' first query) went from
242 steps and 63 clones to 148 and 33: rule 1 alone gives 152 and rule 2
alone 234.

A function lists each point once too, by two rules over the ``FUN`` bit of
``Store.facts`` (see ``rules``), and that moved each carrier-free INV search
on purpose, from 183 steps and 39 clones to 92 and 18, for every carrier.
No INIT or WD count moved, and neither did ``doors/start_GearExtend/inv2``.

* Rule 1: ``npfun({[x, y] / s})`` asks ``s`` for a pair ``[x, c]`` with
  ``c neq y``, or for ``npfun(s)``, and drops the second branch when ``s``
  is asserted ``pfun``.  The updated function ``{[po, v] / F}`` shares
  its tail ``F`` with the old one, which ``inv1`` asserts ``pfun``, so the
  negated goal's ``npfun`` of it takes one branch instead of guessing two
  fresh pairs and splitting each membership over the listed head.  Alone:
  123 steps and 30 clones.
* Rule 2: ``dom(r, {h / t})`` over a variable ``r`` asserted ``pfun`` also
  posts ``h nin m`` for the domain ``m`` of the rest of ``r``.  So
  ``{po / m} = {po / N}``, from ``inv1``'s ``dom`` over the carrier, has
  only its ``m = N`` branch left alive.  Alone: 152 steps and 27 clones.

A WD obligation is refuted with the carriers free first, as an INV one is:
its negated goal against the hypotheses and invariants linked to it (see
``verifier``).  The context's carrier equality mentions only carriers, so
it drops out: the search no longer tries each listed member for the point
and no longer lists one pair of the function per member.  That moved each
WD count on purpose, ``gears`` from 66 steps to 28 and ``doors`` from 171
to 76, and the pinned query no longer runs for them.  The pinned ``gears``
search grew with the carrier, 38 steps over 2 members and 212 over 6; the
carrier-free one takes 28 at every size.  No INIT or INV count moved.

An INV obligation's negated goal is refuted in one query, against the
hypotheses linked to any of its conjuncts, instead of one query per group of
conjuncts that share variables.  No corpus count moved, since each corpus
goal is one group.  ``SWAP_STEPS`` pins a goal of three unlinked conjuncts:
its three queries took 3, 3 and 2 steps, and the one query takes 18, since
each branch of the negated conjunction also carries the other two slices.

A variable input has one output per functional kind (see ``engine``): a
second ``un``, ``comp``, ``dom``, ``ran``, ``inv`` or ``id`` over the same
unbound inputs is queued as an equation of the two outputs, and a
complement as their ``neq``.  That moved two ``EXAMPLE_STEPS`` counts on
purpose.  Union commutativity with two outputs, the first query, went from
148 steps and 33 clones to 2 and 0: ``un(B, A, D)`` becomes ``D = C``, and
``C neq C`` fails.  The second, ``un(A, B, C)`` against ``nun(B, A, C)``,
went from 62 steps to 1: the ``nun`` becomes ``C neq C``.  No ``PO_STEPS``,
``SET_GOAL_STEPS`` or ``SWAP_STEPS`` count moved.  The union search that
lists each element once is now pinned on a goal whose two ``un`` share
their inputs only after ``M = Q`` binds; it took 149 steps before and 153
now, since four ``un`` that its splits emit over the same inputs become
equations, which bind where the ``un`` would have parked.

A rewrite also drops each emission true on sight, such as ``t neq u`` for
two distinct constants, ``x nin {}`` or ``x in {x / _}``, and holds
outright when that leaves a branch empty; an ``or`` decides its ground
alternatives when it is rewritten (see ``rules``).  That moved counts on
purpose.  Each INIT obligation that refutes a negated goal over ground
initial values now fails at the ``or`` of its ground alternatives, instead
of cloning a store per alternative and evaluating each one when it pops:
``gears_intermediate/INIT/inv1`` went from 12 steps to 4, ``gears/INIT/inv1``
from 7 to 3 and ``doors/INIT/inv1`` from 17 to 5.  In ``SET_GOAL_STEPS``
the first goal went from 9 to 8: ``subset({1 / N}, {1, 2, 3})`` no longer
queues ``1 in {1, 2, 3}``.  ``TRUE_ON_SIGHT`` pins one goal per form.
"""
import pytest
from setsolve import verifier
from setsolve.corpus import load_corpus
from setsolve.engine import GEN, Store, _prio, solve
from setsolve.formulas import C
from setsolve.machines import parse_machine
from setsolve.parser import parse_formula
from setsolve.terms import EMPTY, Atom, Pair, Var, VarGen, mkset
from test_discharge import SWAP

EXAMPLE_STEPS = [2, 1, 35, 12, 3]

# Steps of every solve call in a PO's discharge: one carrier-free query for
# the negated goal of an INV or WD obligation, then one for the pinned query
# if needed.
PO_STEPS = {
    "gears_intermediate/INIT/inv1": [4],
    "gears_intermediate/INIT/inv2": [25],
    "gears/INIT/inv1": [3],
    "gears/make_GearExtended/inv1/INV": [92],
    "gears/make_GearExtended/grd1/wd1/WD": [28],
    "gears/start_GearRetract/inv1/INV": [92],
    "gears/start_GearRetract/grd1/wd1/WD": [28],
    "doors/INIT/inv1": [5],
    "doors/INIT/inv2": [5],
    "doors/start_GearExtend/inv1/INV": [92],
    "doors/start_GearExtend/inv2/INV": [3],
    "doors/start_GearExtend/grd2/wd1/WD": [76],
}


@pytest.fixture(scope="module")
def cases():
    return {c.name: c for c in load_corpus()}


def test_example_query_steps(cases):
    program = cases["examples.slog"].parsed
    assert [solve(q, program=program).steps for q in program.queries] == EXAMPLE_STEPS


SET_GOAL_STEPS = {
    "un(H, K, T) & subset(H, {1, 2, 3}) & 1 in T & disj(K, {3}) & disj(H, K)"
    " & 1 in H & 1 in K": 8,
    "un(F, R, W) & subset(F, {1, 2, 3}) & 3 in W & disj(R, {1, 2})"
    " & subset(F, R) & 3 in F & 3 nin R": 10,
    "un(A, B, C) & disj(A, B) & 1 in A & 1 in B": 5,
    "neg(subset(F, Q) & subset(Q, F) implies F = Q)": 13,
}


@pytest.mark.parametrize("goal, steps", SET_GOAL_STEPS.items())
def test_a_settled_disj_or_subset_fails_before_the_un_splits(goal, steps):
    res = solve(parse_formula(goal))
    assert res.unsat
    assert res.steps == steps


# Steps, clones and answers at ``max_solutions=10`` of goals that an
# emission true on sight, or a ground ``or`` alternative, decides.  Before,
# each true emission was queued and popped, and each ``or`` alternative
# cloned: 3/1/2, 3/1/2, 10/3/2, 7/2/3, 3/0/1 and 4/1/1.
TRUE_ON_SIGHT = {
    # ``a neq b``: two distinct constants.
    "a neq b or X = c": (1, 0, 1),
    "[a, X] neq [b, Y]": (1, 0, 1),
    # ``x nin {}``.
    "X in {1, 2} & (X nin {} or X = 3)": (6, 1, 2),
    # ``x in {x / _}``.
    "X = 1 & (X in {1 / S} or Y = 2)": (2, 0, 1),
    # ``b neq c``, then ``comp`` of ``{}`` and a listed relation into ``{}``.
    "comp({[X, b]}, {[c, d]}, {})": (1, 0, 1),
    # A ground alternative that is false is dropped.
    "X = 1 & (X in {2} or Y = 3)": (3, 0, 1),
}


@pytest.mark.parametrize("goal, counts", TRUE_ON_SIGHT.items())
def test_a_constraint_true_on_sight_is_not_queued(goal, counts):
    res = solve(parse_formula(goal), max_solutions=10)
    assert res.complete and res.ill_sorted is None
    assert (res.steps, res.clones, len(res.solutions)) == counts


def test_an_ill_sorted_ground_or_alternative_is_cut_and_recorded():
    # ``1 in a`` is cut when the ``or`` is rewritten, not cloned to fail:
    # 3 steps and no clone, where it took 4 and 1.
    res = solve(parse_formula("X = a & (1 in X or Z = 1)"), max_solutions=10)
    assert (res.steps, res.clones, len(res.solutions)) == (3, 0, 1)
    assert res.ill_sorted == "not a set: Atom(name='a')"


def test_a_declaration_takes_no_step():
    assert solve(parse_formula("dec(X, stype(int)) & X = {1,2}")).steps == 1


def test_a_member_of_its_own_listed_set_fails_in_one_step():
    res = solve(parse_formula("X nin {X / T}"))
    assert res.unsat
    assert res.steps == 1


def test_union_commutativity_fails_each_branch_that_lists_an_element_twice():
    # The two ``un`` share no inputs until ``M = Q`` binds, so the search
    # splits them.
    res = solve(parse_formula("neg(un(M, P, T) & un(P, Q, W) & M = Q implies T = W)"))
    assert res.unsat
    assert (res.steps, res.clones) == (153, 33)


def test_union_commutativity_merges_the_outputs_of_the_two_uns():
    res = solve(parse_formula("neg(un(M, P, T) & un(P, M, W) implies T = W)"))
    assert res.unsat
    assert (res.steps, res.clones) == (2, 0)


# Goals whose search enumerated relations of 1, 2, 3, ... pairs, or re-listed
# the third argument of a ``comp``, until the budget ran out.
MERGED_STEPS = {
    "dom(S, {a}) & dom(S, {a, b})": 1,
    "ran(S, {a}) & ran(S, {a, b})": 1,
    "dom(S, {a}) & S = {[a, 1] / T} & dom(T, {a, b})": 4,
    "dom(S, A) & dom(S, {a, b}) & A = {a}": 2,
    "dom(S, {a, b}) & ndom(S, {a, b})": 1,
    "comp(R, R, R) & comp(R, R, {[a, b]})": 2,
    # A complement queued before its function gets a ``neq`` when the
    # function is queued.
    "ndom(S, {a, b}) & dom(S, {a, b})": 1,
    "nun(A, B, C) & un(B, A, C)": 1,
}


@pytest.mark.parametrize("goal, steps", MERGED_STEPS.items())
def test_two_functional_constraints_over_one_input_share_its_output(goal, steps):
    res = solve(parse_formula(goal))
    assert res.unsat and res.ill_sorted is None
    assert res.steps == steps


def test_an_ur_element_output_is_left_to_the_sort_check():
    res = solve(parse_formula("dom(S, D) & ndom(S, 1)"))
    assert res.unsat and res.ill_sorted == "not a set: Int(value=1)"


def test_an_interval_output_is_not_merged_with_its_own_listing():
    # ``dom(R, D)`` pops as ``dom(R, int(1, 2))`` and is rewritten to
    # ``dom(R, {1, 2})``: merging that with ``D`` would drop the ``dom``.
    goal = "dom(R, D) & D = int(1, 2) & (R = {[1, a]} or R = {[2, a]})"
    res = solve(parse_formula(goal))
    assert res.unsat


def test_a_neq_of_two_pairs_drops_the_component_that_is_equal():
    res = solve(parse_formula("[a, X] neq [a, Y] & X = b"), max_solutions=2)
    assert res.clones == 0
    assert [s.residual for s in res.solutions] == [[C("neq", Atom("b"), Var("Y"))]]


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
    assert {k: v for k, v in got.items() if k.endswith(("/INV", "/WD"))} == {
        k: v for k, v in PO_STEPS.items()
        if k.startswith("gears/") and k.endswith(("/INV", "/WD"))}


SWAP_STEPS = {"swap/swap/inv1/INV": [18], "swap/swap/inv2/INV": [4]}


def test_a_goal_of_unlinked_conjuncts_takes_one_carrier_free_query(monkeypatch):
    got = _po_steps(parse_machine(SWAP), monkeypatch)
    assert {k: v for k, v in got.items() if k.endswith("/INV")} == SWAP_STEPS


@pytest.mark.parametrize("name", ["gears_intermediate.smch", "gears.smch", "doors.smch"])
def test_a_po_result_counts_the_steps_of_its_whole_discharge(cases, name):
    for r in verifier.verify_machine(cases[name].parsed):
        assert r.steps == sum(PO_STEPS[r.po.po_id])


def test_the_json_report_counts_the_steps_of_each_discharge(cases):
    results = verifier.verify_machine(cases["gears_intermediate.smch"].parsed)
    doc = verifier.report_json(cases["gears_intermediate.smch"].parsed, results)
    assert {r["id"]: r["stats"]["steps"] for r in doc["pos"]} == {
        k: sum(v) for k, v in PO_STEPS.items() if k.startswith("gears_intermediate/")}


def test_a_result_counts_its_branch_stores(monkeypatch):
    made = []
    clone = Store.clone
    monkeypatch.setattr(Store, "clone", lambda s: made.append(1) or clone(s))
    res = solve(parse_formula("X = a or X = b or X = c"), max_solutions=3)
    assert len(res.solutions) == 3
    assert res.clones == len(made) == 2
    assert res.max_depth == 2


R, S, T = Var("R"), Var("S"), Var("T")
LISTED = mkset([Pair(Atom("a"), Atom("b"))])


def _drain(store: Store) -> list:
    """Pop every item of ``store``, in order."""
    return list(iter(store.pop, None))


def _order(store: Store) -> list:
    """The items ``store`` would pop from here on, read off a clone."""
    return _drain(store.clone())


def test_a_comp_over_a_known_relation_is_queued_with_the_filters():
    a, b = Atom("a"), Atom("b")
    r = mkset([Pair(a, a)])
    gen, filt = C("pfun", Var("F")), C("in", a, Var("S"))
    over_var, over_listed = C("comp", r, Var("F"), EMPTY), C("comp", r, mkset([Pair(a, b)]), EMPTY)
    store = Store(VarGen())
    for it in (gen, filt, over_var, over_listed):
        store.enqueue(it)
    assert _order(store) == [filt, over_listed, gen, over_var]


def test_a_woken_comp_over_a_now_listed_middle_lands_at_the_front_of_level_1():
    store, comp = Store(VarGen()), C("comp", R, S, T)
    gen, older = C("pfun", Var("F")), C("in", Atom("a"), Var("X"))
    store.enqueue(gen)
    store.enqueue(older)
    store.park(comp)
    store.apply_bind({"S": LISTED})
    assert _order(store) == [comp, older, gen]


def test_a_queued_comp_whose_middle_a_bind_lists_moves_ahead_of_older_filters():
    store, gen = Store(VarGen()), C("pfun", Var("F"))
    older, comp = C("in", Atom("a"), Var("X")), C("comp", R, S, T)
    woken = C("nin", Atom("c"), S)
    for it in (gen, comp, older):
        store.enqueue(it)
    store.park(woken)
    assert _order(store) == [older, gen, comp]
    store.apply_bind({"S": LISTED})
    assert _order(store) == [comp, woken, older, gen]
    assert store.pop() == comp


def test_a_comp_whose_middle_stays_a_variable_keeps_its_place():
    store = Store(VarGen())
    first, comp, last = C("pfun", Var("F")), C("comp", R, S, T), C("dom", Var("G"), Var("D"))
    for it in (first, comp, last):
        store.enqueue(it)
    store.apply_bind({"S": Var("S2")})
    assert _order(store) == [first, comp, last]
    # Its middle is now ``S2``: it still moves when that one is listed.
    store.apply_bind({"S2": LISTED})
    assert _order(store) == [comp, first, last]


def test_park_keeps_one_of_two_equal_constraints():
    store = Store(VarGen())
    store.park(C("nin", LISTED, S))
    store.park(C("nin", mkset([Pair(Atom("a"), Atom("b"))]), Var("S")))
    store.park(C("nin", LISTED, T))
    assert [c for _, c in store.parked] == [C("nin", LISTED, S), C("nin", LISTED, T)]


def test_park_keeps_one_of_a_neq_and_its_swapped_copy():
    store = Store(VarGen())
    store.park(C("neq", R, S))
    store.park(C("neq", S, R))
    store.park(C("neq", S, T))
    assert [c for _, c in store.parked] == [C("neq", R, S), C("neq", S, T)]


def test_a_clone_cannot_move_or_drop_another_branchs_items():
    a = Store(VarGen())
    gen, comp, other = C("pfun", Var("F")), C("comp", R, S, T), C("comp", R, Var("U"), T)
    for it in (gen, comp, other):
        a.enqueue(it)
    b = a.clone()
    b.apply_bind({"S": LISTED})
    assert _order(b) == [comp, gen, other]
    assert _order(a) == [gen, comp, other]
    assert a.pop() == gen  # leaves ``b``'s queue alone
    b.apply_bind({"U": LISTED})
    assert _drain(b) == [other, comp, gen]
    a.apply_bind({"U": LISTED})
    assert _drain(a) == [other, comp]


def test_a_disj_over_a_listed_set_pops_ahead_of_an_older_un():
    store = Store(VarGen())
    un, disj = C("un", R, S, T), C("disj", Var("A"), Var("B"))
    for it in (un, disj):
        store.enqueue(it)
    store.apply_bind({"B": LISTED})
    assert store.pop() == disj
    assert store.pop() == un


def test_a_disj_or_subset_over_variables_keeps_its_fifo_place():
    store = Store(VarGen())
    un, disj = C("un", R, S, T), C("disj", Var("A"), Var("B"))
    subset = C("subset", Var("A"), LISTED)
    for it in (un, disj, subset):
        store.enqueue(it)
    assert [store.pop() for _ in range(3)] == [un, disj, subset]


def test_a_bind_settled_subset_pops_ahead_of_older_settled_ones_and_the_woken():
    store = Store(VarGen())
    un, older = C("un", R, S, T), C("disj", Var("A"), LISTED)
    subset, woken = C("subset", Var("B"), Var("E")), C("subset", Var("B"), Var("G"))
    for it in (un, older, subset):
        store.enqueue(it)
    store.park(woken)
    assert _order(store) == [older, un, subset]
    store.apply_bind({"B": LISTED})
    assert _drain(store) == [subset, woken, older, un]


def test_each_bind_leaves_only_generators_at_the_generator_level(cases, monkeypatch):
    """After every bind of the corpus and ``examples.slog``, the generator
    level holds only items whose level is still ``GEN``, and no other item
    is queued ahead of its level."""
    binds = []
    apply_bind = Store.apply_bind

    def checked(store, delta):
        apply_bind(store, delta)
        binds.append(1)
        for level, q in enumerate(store.queues):
            for item in q:
                if level == GEN:
                    assert _prio(item, store.subst) == GEN, item
                else:
                    assert _prio(item, store.subst) <= level, item

    monkeypatch.setattr(Store, "apply_bind", checked)
    for name in ("gears_intermediate.smch", "gears.smch", "doors.smch"):
        assert all(r.status == "Proved" for r in verifier.verify_machine(cases[name].parsed))
    program = cases["examples.slog"].parsed
    for q in program.queries:
        solve(q, program=program)
    assert binds
