"""Rewrite rules for the primitive constraints.

``rewrite`` maps a constraint or an ``or`` (with the store's substitution
already applied) to one of:

* ``None``      -- irreducible: park it as a residual constraint,
* ``[]``        -- unsatisfiable: fail this branch,
* ``[b1, ...]`` -- nondeterministic branches, explored left to right.

Each branch is a list of emissions: constraints, whole sub-formulas (from
quantifier bodies), or ``Bind`` substitution deltas produced by unification.
An ``or`` gives one branch per alternative that it does not decide on
sight (below), which is its one emission.  Ground constraints
short-circuit through the evaluator.  Rules follow a
case-split discipline: membership drives elements into variable sets,
negative constraints introduce fresh witnesses, and union-style constraints
peel one listed element per step so every chain of descendants shrinks.

A quantifier over a listed domain instantiates its body at the head and
goes on over the tail; ``foreach`` over a variable, product or interval
parks until it is listed.  ``exists`` over one takes a fresh member ``w``:
it emits ``w in d`` and the body's instance at ``w``, so membership, below,
lists ``w`` as it lists any element.

Membership lists an element once: ``x in S`` over a variable ``S`` binds
``S = {x / N}`` for a fresh ``N`` (the bind ``_rule_eq`` would make) and
posts ``x nin N``, since ``x in S`` holds exactly when ``S`` is ``x`` added
to a set without ``x``.  So no branch lists ``x`` in ``N`` a second time
and refutes its goal again over the copy.  A set that ``Store.facts`` shows
asserted ``pfun`` gets no ``nin``: the ``pfun`` rule already keeps each
listed pair out of the rest.

A function lists each point once, by two more rules that read the same
``FUN`` bit.  ``npfun({[x, y] / s})`` holds exactly when ``s`` maps ``x``
to some ``c neq y`` or ``s`` is itself no function, so it branches on
those two, the first first; when ``s`` is a variable asserted ``pfun``,
the second branch has no solution and is left out.  The first branch also
replaces the generic guess of two fresh pairs ``[n1, n2]`` and
``[n1, n3]``, whose memberships each split over the listed head.
``dom(r, {h / t})`` over a variable ``r`` asserted ``pfun`` binds
``r = {[h, n] / r1}`` with ``{h / m} = {h / t}`` for the domain ``m`` of
``r1``, as for any relation, and also posts ``h nin m``: a function has
one pair over ``h``, so ``r1`` can be chosen as ``r`` without that pair,
whose domain lacks ``h``, and no answer is lost.  So the alternative of
``{h / m} = {h / t}`` that lists ``h`` in ``m`` again dies at once, and
each element is peeled once.  When ``t`` is a ground listed set without
``h``, that leaves ``m = t``, which the rule emits instead, so no clone is
made only to die.

A variable input has at most one output per functional kind on a branch
(``un``, ``comp``, ``dom``, ``ran``, ``inv`` and ``id``; see
``Store.outputs``): the store queues ``y2 = y1`` for a second ``dom(r, y2)``
over a variable ``r`` instead of the constraint, and ``y2 neq y1`` for a
``ndom(r, y2)``.  So these rules never split two outputs of one variable
against each other; only a rule that binds an input meets a second
constraint over it, which then holds a listed or fresh input.

``rewrite`` decides on sight what syntax alone decides, in both directions.
It drops each branch that holds ``false`` or a constraint false on sight,
and returns ``[]`` when none is left: ``t neq t``, ``x nin {x / _}``,
``x in {}`` and ``npair`` of a pair, exactly the forms whose own rule fails
from syntax alone.
``false`` is an ``or`` alternative as written, or one that substitution
left ill-sorted (``formulas.subst_formula`` records that cut).  Each is
false under every substitution, so the branch has no solution, and
dropping it before it is cloned and queued loses none.  That holds as well
for a branch that also binds a variable to an ill-sorted term: it would die
with a recorded cut, but it has no solution whatever the sorts, so its
loss needs no cut to flag it.  It also drops from each branch every
emission true on sight: ``t neq u`` for two distinct atoms, integers or
strings (``ATOMIC``), ``x nin {}``, ``x in {x / _}``, and ``comp`` of
``{}`` and a listed relation into ``{}``.  Each holds under
every substitution, so queuing it only costs a pop.  A branch left empty
then holds outright, and so does the rewritten constraint: ``rewrite``
returns ``[[]]``, since every other branch has only answers that the
empty one subsumes.  (``solve`` with many answers lists fewer of them.)
An ``or`` decides each ground constraint alternative when it is rewritten,
by the sort check and the evaluator that ``rewrite`` applies to a popped
ground constraint; the evaluator decides a ground equation as ``unify``
would.  A true alternative makes the ``or`` hold, a false one is dropped,
and an ill-sorted one is dropped with a recorded cut, as
``subst_formula`` cuts one.  Any other ground constraint is evaluated
when it pops.

Sorts follow one rule, read from ``formulas.SIG``: an atom, integer, string
or pair in a set position or a quantifier domain, or a leaf other than an
integer or a variable in an integer position, raises ``IllSorted``.
``rewrite`` checks each constraint on entry, so no rule sees a non-set where
it expects a set; the term constructors check set tails, product factors
and interval bounds, and ``Store.apply_bind`` what an arithmetic variable
is bound to.  ``neq`` on variables splits by the sort ``Store.facts`` has
for them, and parks while it has none.

``comp`` over a variable is decided whenever its third argument lists a pair
(the relational rules of Cristiá and Rossi, JAR 2020): ``[x, z]`` is in
``comp(r, s)`` exactly when ``r`` holds some ``[x, n]`` and ``s`` holds
``[n, z]``.  Where ``r`` or ``s`` is a variable and the other is a variable
or one listed pair, ``comp(r, s, {p1, ..., pk / t'})`` with ``pi = [xi, zi]``
becomes, for fresh ``ni``:

* ``[xi, ni] in r`` and ``[ni, zi] in s`` for each ``i``, so that every
  listed pair has a witness;
* ``foreach([X, N] in r, foreach([M, Z] in s, N neq M or [X, Z] in t))``,
  so that ``comp(r, s)`` stays inside ``t``;
* unless ``t'`` is ``{}``, ``foreach([X, Z] in t', [L], [X, L] in r &
  [L, Z] in s)``, so that ``t'`` stays inside ``comp(r, s)``.

``r`` and ``s`` may be the same variable: both memberships then list the
same set.

An empty composition ``comp(r, s, {})`` ("no pair of ``r`` chains into
``s``") splits per listed pair without branching, because ``comp``
distributes over union in each argument: a listed ``r`` or ``s`` of two or
more pairs becomes one ``comp`` per listed pair, and ``comp({[x, y]},
{[u, v] / s'}, {})`` becomes ``y neq u & comp({[x, y]}, s', {})``.  On
sight (above), that fails when ``y`` and ``u`` are the same term, and
drops the ``neq`` when both are atoms, integers or strings, which then
differ.  Other terms that differ may still be equal (``{x, y}`` and
``{y, x}``), so they keep it.
The split terminates, because every ``comp`` it emits has a strictly
shorter listed argument.

So the irreducible ``comp`` forms are ``comp(R, S, T)``,
``comp(R, {[u, v]}, T)`` and ``comp({[x, y]}, S, T)``, with ``R`` and ``S``
variables and ``T`` not a listed set: a variable, ``{}``, or a product or
interval that is not ground.  Among them is ``comp(R, S, {})``.  Each
holds when ``R``, ``S`` and ``T`` are empty.

Why the rewrite of a listed third argument terminates: it emits no
``comp``, so it cannot feed itself; it adds ``k`` pairs to ``r`` and ``s``;
and each ``foreach`` instantiates once per listed element of its domain and
parks on a variable one.  With
``t' = {}`` the quantifier bodies only test listed pairs of ``r`` and ``s``
against the closed list ``t``, so nothing grows ``r``, ``s`` or ``t``.  With
a variable ``t'``, a ``[X, Z] in t`` that lists a new element of ``t'``
makes the last ``foreach`` ask for a witness again.  A membership tries
every listed element before it grows a set, so that happens only on the
last alternatives, and there the step budget is the backstop: running out
of it gives Unknown.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import arith, groundeval
from .formulas import (
    INT_POS, SET_POS, And, C, Constraint, FalseF, Or, QPayload, binder_names,
    conj, subst_formula,
)
from .terms import (
    CP, NON_SETS, EMPTY, Atom, EmptySet, ExtSet, IllSorted, Int, Interval, Pair,
    Str, Term, Var, is_ground, mkset, set_parts, term_vars,
)
from .unify import concretize, unify


@dataclass(slots=True, unsafe_hash=True)
class Bind:
    delta: tuple  # tuple of (name, term)


Branchs = list  # list of branches; branch = list of emissions

# What a branch's constraints have shown about a variable, as bits of
# ``Store.facts``: an integer, a set, and a set asserted ``pfun``.
INT, SET, FUN = 1, 2, 4

# Constants that equal only themselves: two of them that differ are distinct.
ATOMIC = (Atom, Int, Str)


def _bind(delta: dict[str, Term]) -> Bind:
    return Bind(tuple(sorted(delta.items())))


def rewrite(c: Constraint, store):
    k = c.kind
    if k == "or":
        return _rule_or(c, store)
    if k in ("foreach", "exists"):
        return _live(_rule_quant(c, store))
    if k == "eq":
        return _rule_eq(c, store)  # eq relates terms of any sort
    _check_sorts(c)
    if k in ("is", "le", "lt"):
        return _rule_arith(c, store)

    # Expand ground products/intervals in argument position.
    args = c.args
    if any(type(a) in (CP, Interval) for a in args):
        args = list(args)
        changed = False
        for i, a in enumerate(args):
            g = concretize(a)
            if g is not None:
                args[i] = g
                changed = True
        if changed:
            return _live([[C(k, *args)]])

    if _ground(c):
        return [[]] if groundeval.eval_constraint(c) else []

    return _live(_RULES[k](store, *args))


def _check_sorts(c: Constraint) -> None:
    """Raise ``IllSorted`` for a non-set at a set position of ``c`` or a
    non-integer at an integer one."""
    args = c.args
    for i in SET_POS[c.kind]:
        if type(args[i]) in NON_SETS:
            raise IllSorted(f"not a set: {args[i]!r}")
    for i in INT_POS[c.kind]:
        arith.check_int(args[i])


def _ground(c: Constraint) -> bool:
    """Whether every argument of ``c`` is ground."""
    if c.kind in ("is", "le", "lt"):
        return all(map(arith.expr_is_ground, c.args))
    return all(map(is_ground, c.args))


def _rule_or(c: Or, store):
    """One branch per alternative, but a ground constraint alternative is
    decided on the spot, by the sort check and the evaluator that
    ``rewrite`` applies to a popped one: it makes the ``or`` hold when
    true, and is dropped when false or ill-sorted (a recorded cut).  The
    evaluator decides a ground equation as ``unify`` would."""
    out = []
    for p in c.parts:
        if type(p) is Constraint and p.q is None and _ground(p):
            try:
                _check_sorts(p)
                if groundeval.eval_constraint(p):
                    return [[]]
            except IllSorted as e:
                store.sort_cuts.append(str(e))
        else:
            out.append([p])
    return _live(out)


def _false_on_sight(e) -> bool:
    """``false``, ``t neq t``, ``x nin {x / _}``, ``x in {}`` or ``npair``
    of a pair."""
    if type(e) is not Constraint:
        return type(e) is FalseF
    k = e.kind
    if k == "neq":
        return e.args[0] == e.args[1]
    if k == "nin":
        s = e.args[1]
        return type(s) is ExtSet and s.head == e.args[0]
    if k == "npair":
        return type(e.args[0]) is Pair
    return k == "in" and type(e.args[1]) is EmptySet


def _true_on_sight(e) -> bool:
    """``t neq u`` for two distinct constants, ``x nin {}``,
    ``x in {x / _}``, or ``comp`` of ``{}`` and a listed relation into
    ``{}``."""
    if type(e) is not Constraint:
        return False
    k = e.kind
    if k == "neq":
        a, b = e.args
        return type(a) in ATOMIC and type(b) in ATOMIC and a != b
    if k == "nin":
        return type(e.args[1]) is EmptySet
    if k == "in":
        s = e.args[1]
        return type(s) is ExtSet and s.head == e.args[0]
    if k == "comp":
        r, s, t = e.args
        return type(t) is EmptySet and (
            (type(r) is EmptySet and _listed_relation(s))
            or (type(s) is EmptySet and _listed_relation(r)))
    return False


def _listed_relation(t: Term) -> bool:
    """Whether ``t`` lists only pairs and ends in ``{}``."""
    elems, tail = set_parts(t)
    return type(tail) is EmptySet and all(type(e) is Pair for e in elems)


def _live(out):
    """The branches of ``out`` that hold neither ``false`` nor a constraint
    false on sight, without their emissions true on sight; ``[[]]`` when
    that leaves a branch empty, since the rewritten constraint then holds."""
    if not out:
        return out
    live = []
    for b in out:
        if any(map(_false_on_sight, b)):
            continue
        if any(map(_true_on_sight, b)):
            b = [e for e in b if not _true_on_sight(e)]
            if not b:
                return [[]]
        live.append(b)
    return live


# --- equality / disequality ---------------------------------------------

def _rule_eq(c: Constraint, store):
    a, b = c.args
    # A variable that does not occur in the other side binds to it, as in
    # ``unify``: the variable side, and the first one if both are.
    x, t = (a, b) if type(a) is Var else (b, a)
    if type(x) is Var and x.name not in term_vars(t):
        return [[Bind(((x.name, t),))]]
    # Every other equation is decided by ``unify``: products and intervals
    # included, so no equation comes back to this rule.
    out = []
    for delta, residual in unify(a, b, store.gen, store.sort_cuts):
        branch: list = []
        if delta:
            branch.append(_bind(delta))
        branch.extend(residual)
        out.append(branch)
    return out


def _definite_set(t: Term) -> bool:
    return isinstance(t, (ExtSet, EmptySet, CP, Interval))


def _rule_neq(store, a, b):
    if a == b:
        return []
    if isinstance(a, Pair) and isinstance(b, Pair):
        return [[C("neq", a.first, b.first)], [C("neq", a.second, b.second)]]
    if (_definite_set(a) and isinstance(b, NON_SETS)) or \
       (_definite_set(b) and isinstance(a, NON_SETS)):
        return [[]]  # a set is never equal to an ur-element
    if isinstance(a, NON_SETS) and isinstance(b, NON_SETS) and type(a) is not type(b):
        return [[]]
    # Both sides are definite sets, or at least one is a variable.
    va = a.name if isinstance(a, Var) else None
    vb = b.name if isinstance(b, Var) else None
    other = b if va else a
    bits = store.facts.get(va, 0) | store.facts.get(vb, 0)
    if (bits & SET and isinstance(other, NON_SETS)) or \
       (bits & INT and _definite_set(other)):
        return [[]]  # a set is never an ur-element, an integer never a set
    if _definite_set(other) or bits & SET:
        n = store.gen.fresh()
        return [[C("in", n, a), C("nin", n, b)], [C("in", n, b), C("nin", n, a)]]
    if bits & INT:
        if all(isinstance(t, (Var, Int)) for t in (a, b)):
            return [[C("lt", a, b)], [C("lt", b, a)]]
    return None


# --- membership -----------------------------------------------------------

def _rule_in(store, x, s):
    if isinstance(s, EmptySet):
        return []
    if isinstance(s, ExtSet):
        return [[C("eq", x, s.head)], [C("in", x, s.tail)]]
    if isinstance(s, Var):
        if s.name in term_vars(x):
            return []  # no well-founded solution
        n = store.gen.fresh()
        bind = Bind(((s.name, ExtSet(x, n)),))
        if store.facts.get(s.name, 0) & FUN:
            return [[bind]]  # the ``pfun`` rule lists each pair once
        return [[bind, C("nin", x, n)]]
    if isinstance(s, CP):
        n1, n2 = store.gen.fresh(), store.gen.fresh()
        return [[C("eq", x, Pair(n1, n2)), C("in", n1, s.left), C("in", n2, s.right)]]
    # s is an interval.
    if isinstance(x, (Var, Int)):
        return [[C("le", s.lo, x), C("le", x, s.hi)]]
    return []


def _rule_nin(store, x, s):
    if isinstance(s, EmptySet):
        return [[]]
    if isinstance(s, ExtSet):
        return [[C("neq", x, s.head), C("nin", x, s.tail)]]
    if isinstance(s, Var):
        return None
    if isinstance(s, CP):
        n1, n2 = store.gen.fresh(), store.gen.fresh()
        p = Pair(n1, n2)
        return [
            [C("npair", x)],
            [C("eq", x, p), C("nin", n1, s.left)],
            [C("eq", x, p), C("nin", n2, s.right)],
        ]
    # s is an interval.
    if isinstance(x, (Var, Int)):
        return [[C("lt", x, s.lo)], [C("lt", s.hi, x)]]
    return [[]]


def _rule_npair(store, x):
    if isinstance(x, Var):
        return None
    return [] if isinstance(x, Pair) else [[]]


# --- union / disjointness / inclusion -------------------------------------

def _rule_un(store, a, b, c):
    if a == b:
        return [[C("eq", a, c)]]
    if isinstance(a, EmptySet):
        return [[C("eq", b, c)]]
    if isinstance(b, EmptySet):
        return [[C("eq", a, c)]]
    if isinstance(c, EmptySet):
        return [[C("eq", a, EMPTY), C("eq", b, EMPTY)]]
    if a == c:
        return [[C("subset", b, a)]]
    if b == c:
        return [[C("subset", a, b)]]
    if isinstance(c, ExtSet):
        return _un_split_third(store, a, b, c)
    if isinstance(a, ExtSet):
        return _un_split_side(store, a, b, c, left=True)
    if isinstance(b, ExtSet):
        return _un_split_side(store, b, a, c, left=False)
    return None


def _un_split_third(store, a, b, c):
    t, c1 = c.head, c.tail
    g = store.gen
    out = []
    # The element t belongs to a, to b, or to both; in each case remove it
    # everywhere and unite what is left.
    for in_a, in_b in ((True, False), (False, True), (True, True)):
        for peeled in (False, True):
            n3 = g.fresh()
            ea, left = _peel(g, t, a, in_a)
            eb, right = _peel(g, t, b, in_b)
            out.append([C("nin", t, n3), *ea, *eb, C("un", left, right, n3),
                        C("eq", c1, ExtSet(t, n3) if peeled else n3)])
    return out


def _un_split_side(store, src, other, c, left: bool):
    """src is extensional: its head element must appear in c."""
    t, rest = src.head, src.tail
    out = []
    g = store.gen
    for src_more in (False, True):
        for other_has in (False, True):
            ec, n3 = _peel(g, t, c, True)
            es, s_rest = _peel(g, t, rest, src_more)
            eo, o_rest = _peel(g, t, other, other_has)
            parts = (s_rest, o_rest) if left else (o_rest, s_rest)
            out.append([*ec, *es, *eo, C("un", *parts, n3)])
    return out


def _peel(gen, t, s, has):
    """List ``t`` once in ``s``: with ``has``, ``s = {t / n}`` and
    ``t nin n`` for a fresh ``n``, which is the rest; without, ``t nin s``,
    and ``s`` is the rest.  Returns the emissions and the rest."""
    if has:
        n = gen.fresh()
        return [C("eq", s, ExtSet(t, n)), C("nin", t, n)], n
    return [C("nin", t, s)], s


def _rule_nun(store, a, b, c):
    n = store.gen.fresh()
    return [
        [C("in", n, c), C("nin", n, a), C("nin", n, b)],
        [C("in", n, a), C("nin", n, c)],
        [C("in", n, b), C("nin", n, c)],
    ]


def _rule_disj(store, a, b):
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return [[]]
    if a == b:
        return [[C("eq", a, EMPTY)]]
    if isinstance(a, ExtSet):
        return [[C("nin", a.head, b), C("disj", a.tail, b)]]
    if isinstance(b, ExtSet):
        return [[C("nin", b.head, a), C("disj", a, b.tail)]]
    return None


def _rule_ndisj(store, a, b):
    n = store.gen.fresh()
    return [[C("in", n, a), C("in", n, b)]]


def _rule_subset(store, a, b):
    if isinstance(a, EmptySet) or a == b:
        return [[]]
    if isinstance(b, EmptySet):
        return [[C("eq", a, EMPTY)]]
    if isinstance(a, ExtSet):
        return [[C("in", a.head, b), C("subset", a.tail, b)]]
    return None


def _rule_nsubset(store, a, b):
    n = store.gen.fresh()
    return [[C("in", n, a), C("nin", n, b)]]


# --- partial functions and relational constraints --------------------------

def _make_pair(store, t: Term, again):
    """The branches for a listed element ``t`` of a relation that is not a
    pair: for a variable, ``t = [n1, n2]`` and ``again``, the constraint
    that listed it; for anything else, none."""
    if isinstance(t, Var):
        return [[C("eq", t, Pair(store.gen.fresh(), store.gen.fresh())), again]]
    return []


def _rule_pfun(store, f):
    if isinstance(f, Var):
        return None
    if isinstance(f, ExtSet):
        t = f.head
        if not isinstance(t, Pair):
            return _make_pair(store, t, C("pfun", f))
        fst = t.first
        return [[C("pfun", f.tail), C("comp", mkset([Pair(fst, fst)]), f.tail, EMPTY)]]
    if isinstance(f, CP):
        return [
            [C("eq", f.left, EMPTY)],
            [C("eq", f.right, EMPTY)],
            [C("eq", f.right, mkset([store.gen.fresh()]))],
        ]
    return [[C("lt", f.hi, f.lo)]]  # f is an interval


def _rule_npfun(store, f):
    g = store.gen
    if isinstance(f, ExtSet) and isinstance(f.head, Pair):
        # ``{[x, y] / s}`` is no function exactly when ``s`` maps ``x`` to
        # another value or is itself no function.
        x, y = f.head.first, f.head.second
        c, s = g.fresh(), f.tail
        out = [[C("in", Pair(x, c), s), C("neq", c, y)]]
        if not (isinstance(s, Var) and store.facts.get(s.name, 0) & FUN):
            out.append([C("npfun", s)])
        return out
    n1, n2, n3, n = g.fresh(), g.fresh(), g.fresh(), g.fresh()
    return [
        [C("in", Pair(n1, n2), f), C("in", Pair(n1, n3), f), C("neq", n2, n3)],
        [C("in", n, f), C("npair", n)],
    ]


def _rule_dom(store, r, d):
    if isinstance(r, EmptySet):
        return [[C("eq", d, EMPTY)]]
    if isinstance(r, ExtSet):
        t = r.head
        if not isinstance(t, Pair):
            return _make_pair(store, t, C("dom", r, d))
        m = store.gen.fresh()
        return [[C("dom", r.tail, m), C("eq", d, ExtSet(t.first, m))]]
    if isinstance(r, CP):
        n = store.gen.fresh()
        return [
            [C("eq", r.right, EMPTY), C("eq", d, EMPTY)],
            [C("eq", r.right, ExtSet(n, store.gen.fresh())), C("eq", d, r.left)],
        ]
    if isinstance(r, Var):
        if isinstance(d, EmptySet):
            return [[C("eq", r, EMPTY)]]
        if isinstance(d, ExtSet):
            g = store.gen
            n, r1, m = g.fresh(), g.fresh(), g.fresh()
            branch = [C("eq", r, ExtSet(Pair(d.head, n), r1)), C("dom", r1, m)]
            if not store.facts.get(r.name, 0) & FUN:
                return [branch + [C("eq", ExtSet(d.head, m), d)]]
            # A function has one pair over ``d.head``: take ``r1`` as the
            # rest, whose domain lacks it.  A ground ``d`` that lists it
            # once shows that domain.
            if is_ground(d) and groundeval.term_value(d.head) not in \
                    groundeval.term_value(d.tail):
                return [branch + [C("eq", m, d.tail)]]
            return [branch + [C("eq", ExtSet(d.head, m), d), C("nin", d.head, m)]]
    return None


def _rule_ndom(store, r, d):
    g = store.gen
    n1, n2, n, m = g.fresh(), g.fresh(), g.fresh(), g.fresh()
    return [
        [C("in", Pair(n1, n2), r), C("nin", n1, d)],
        [C("in", m, d), C("comp", mkset([Pair(m, m)]), r, EMPTY)],
        [C("in", n, r), C("npair", n)],
    ]


def _rule_ran(store, r, t):
    if isinstance(r, EmptySet):
        return [[C("eq", t, EMPTY)]]
    if isinstance(r, ExtSet):
        h = r.head
        if not isinstance(h, Pair):
            return _make_pair(store, h, C("ran", r, t))
        m = store.gen.fresh()
        return [[C("ran", r.tail, m), C("eq", t, ExtSet(h.second, m))]]
    if isinstance(r, CP):
        n = store.gen.fresh()
        return [
            [C("eq", r.left, EMPTY), C("eq", t, EMPTY)],
            [C("eq", r.left, ExtSet(n, store.gen.fresh())), C("eq", t, r.right)],
        ]
    if isinstance(r, Var):
        if isinstance(t, EmptySet):
            return [[C("eq", r, EMPTY)]]
        if isinstance(t, ExtSet):
            g = store.gen
            n, r1, m = g.fresh(), g.fresh(), g.fresh()
            return [[
                C("eq", r, ExtSet(Pair(n, t.head), r1)),
                C("ran", r1, m),
                C("eq", ExtSet(t.head, m), t),
            ]]
    return None


def _rule_nran(store, r, t):
    g = store.gen
    n1, n2, n, m = g.fresh(), g.fresh(), g.fresh(), g.fresh()
    return [
        [C("in", Pair(n1, n2), r), C("nin", n2, t)],
        [C("in", m, t), C("comp", r, mkset([Pair(m, m)]), EMPTY)],
        [C("in", n, r), C("npair", n)],
    ]


def _rule_inv(store, r, t):
    if isinstance(r, EmptySet):
        return [[C("eq", t, EMPTY)]]
    if isinstance(t, EmptySet):
        return [[C("eq", r, EMPTY)]]
    if isinstance(r, ExtSet):
        h = r.head
        if not isinstance(h, Pair):
            return _make_pair(store, h, C("inv", r, t))
        m = store.gen.fresh()
        return [[C("inv", r.tail, m), C("eq", t, ExtSet(Pair(h.second, h.first), m))]]
    if isinstance(r, CP):
        return [[C("eq", t, CP(r.right, r.left))]]
    if isinstance(t, (ExtSet, CP)):
        return [[C("inv", t, r)]]  # converse is an involution
    return None


def _rule_ninv(store, r, t):
    g = store.gen
    n1, n2, n3, n4, n, m = (g.fresh() for _ in range(6))
    return [
        [C("in", Pair(n1, n2), r), C("nin", Pair(n2, n1), t)],
        [C("in", Pair(n3, n4), t), C("nin", Pair(n4, n3), r)],
        [C("in", n, r), C("npair", n)],
        [C("in", m, t), C("npair", m)],
    ]


def _rule_id(store, a, r):
    if isinstance(a, EmptySet):
        return [[C("eq", r, EMPTY)]]
    if isinstance(r, EmptySet):
        return [[C("eq", a, EMPTY)]]
    if isinstance(a, ExtSet):
        m = store.gen.fresh()
        x = a.head
        return [[C("id", a.tail, m), C("eq", r, ExtSet(Pair(x, x), m))]]
    if isinstance(r, ExtSet):
        g = store.gen
        n, a1, m = g.fresh(), g.fresh(), g.fresh()
        return [[
            C("eq", r.head, Pair(n, n)),
            C("eq", a, ExtSet(n, a1)),
            C("id", a1, m),
            C("eq", ExtSet(Pair(n, n), m), r),
        ]]
    return None


def _rule_nid(store, a, r):
    g = store.gen
    n, n1, n2, n3, n4, m = (g.fresh() for _ in range(6))
    return [
        [C("in", n, a), C("nin", Pair(n, n), r)],
        [C("in", Pair(n1, n2), r), C("neq", n1, n2)],
        [C("in", Pair(n3, n4), r), C("nin", n3, a)],
        [C("in", m, r), C("npair", m)],
    ]


def _rule_comp(store, r, s, t):
    if isinstance(r, (EmptySet, Interval)) or isinstance(s, (EmptySet, Interval)):
        return _comp_empty(store, r, s, t)
    if isinstance(r, ExtSet):
        h = r.head
        if not isinstance(h, Pair):
            return _make_pair(store, h, C("comp", r, s, t))
        if not isinstance(r.tail, EmptySet):
            return _comp_split(store, (mkset([h]), s), (r.tail, s), t)
        return _comp_single(store, h, s, t)
    if isinstance(r, CP):
        g = store.gen
        ib, bs, m = g.fresh(), g.fresh(), g.fresh()
        return [[
            C("id", r.right, ib),
            C("comp", ib, s, bs),
            C("ran", bs, m),
            C("eq", t, CP(r.left, m)),
        ]]
    # r is a variable from here on.
    if isinstance(s, ExtSet):
        h = s.head
        if not isinstance(h, Pair):
            return _make_pair(store, h, C("comp", r, s, t))
        if not isinstance(s.tail, EmptySet):
            return _comp_split(store, (r, mkset([h])), (r, s.tail), t)
        return _comp_cover(store, r, s, t)
    if isinstance(s, CP):
        g = store.gen
        ia, ra, m = g.fresh(), g.fresh(), g.fresh()
        return [[
            C("id", s.left, ia),
            C("comp", r, ia, ra),
            C("dom", ra, m),
            C("eq", t, CP(m, s.right)),
        ]]
    return _comp_cover(store, r, s, t)


def _comp_empty(store, r, s, t):
    """``comp(r, s, t)`` with ``r`` or ``s`` ``{}`` or an interval: ``t`` is
    ``{}``, and both arguments are relations.  An interval holds no pair, so
    it must be empty; a listed element must be a pair, and a variable tail
    a relation, which ``dom`` of it asserts."""
    branch = [C("eq", t, EMPTY)]
    for a in (r, s):
        elems, tail = set_parts(a)
        for e in elems:
            if not isinstance(e, Pair):
                return _make_pair(store, e, C("comp", r, s, t))
        if isinstance(tail, Interval):
            branch.append(C("lt", tail.hi, tail.lo))
        elif isinstance(tail, Var):
            branch.append(C("dom", tail, store.gen.fresh()))
    return [branch]


def _comp_split(store, head_args, rest_args, t):
    """``comp`` over a listed argument of two or more pairs: one ``comp``
    for its head pair and one for the rest, whose union is ``t``."""
    if isinstance(t, EmptySet):
        return [[C("comp", *head_args, t), C("comp", *rest_args, t)]]
    g = store.gen
    t1, t2 = g.fresh(), g.fresh()
    return [[C("comp", *head_args, t1), C("comp", *rest_args, t2), C("un", t1, t2, t)]]


def _comp_single(store, p: Pair, s, t):
    """comp({[x,y]}, s, t) with s not empty/extensional-multi handled here."""
    x, y = p.first, p.second
    if isinstance(s, ExtSet):
        q = s.head
        if not isinstance(q, Pair):
            return _make_pair(store, q, C("comp", mkset([p]), s, t))
        u, v = q.first, q.second
        if isinstance(t, EmptySet):
            return [[C("neq", y, u), C("comp", mkset([p]), s.tail, t)]]
        t1 = store.gen.fresh()
        return [
            [C("eq", y, u), C("comp", mkset([p]), s.tail, t1),
             C("eq", t, ExtSet(Pair(x, v), t1))],
            [C("neq", y, u), C("comp", mkset([p]), s.tail, t)],
        ]
    if isinstance(s, CP):
        return [
            [C("nin", y, s.left), C("eq", t, EMPTY)],
            [C("in", y, s.left), C("eq", t, CP(mkset([x]), s.right))],
        ]
    return _comp_cover(store, mkset([p]), s, t)


def _comp_cover(store, r, s, t):
    """comp(r, s, t) with r or s a variable and the other a variable or one
    listed pair: witnesses for the listed pairs of t and two quantifiers for
    the inclusions (see the module docstring), or None when t lists none."""
    if not isinstance(t, ExtSet):
        return None
    elems, tail = set_parts(t)
    for e in elems:
        if not isinstance(e, Pair):
            return _make_pair(store, e, C("comp", r, s, t))
    g = store.gen
    out: list = []
    for p in elems:
        n = g.fresh()
        out += [C("in", Pair(p.first, n), r), C("in", Pair(n, p.second), s)]
    x, n, m, z = g.fresh(), g.fresh(), g.fresh(), g.fresh()
    inner = Constraint("foreach", (), q=QPayload(
        Pair(m, z), s, (), Or((C("neq", n, m), C("in", Pair(x, z), t)))))
    out.append(Constraint("foreach", (), q=QPayload(Pair(x, n), r, (), inner)))
    if not isinstance(tail, EmptySet):
        x, z, n = g.fresh(), g.fresh(), g.fresh()
        out.append(Constraint("foreach", (), q=QPayload(
            Pair(x, z), tail, (n.name,),
            And((C("in", Pair(x, n), r), C("in", Pair(n, z), s))))))
    return [out]


def _rule_ncomp(store, r, s, t):
    g = store.gen
    out = []
    n1, n2, n3 = g.fresh(), g.fresh(), g.fresh()
    out.append([C("in", Pair(n1, n2), r), C("in", Pair(n2, n3), s),
                C("nin", Pair(n1, n3), t)])
    m1, m3, k, m = g.fresh(), g.fresh(), g.fresh(), g.fresh()
    out.append([C("in", Pair(m1, m3), t),
                C("comp", mkset([Pair(m1, m1)]), r, k),
                C("comp", k, s, m),
                C("nin", Pair(m1, m3), m)])
    w1, w2, w3 = g.fresh(), g.fresh(), g.fresh()
    out.append([C("in", w1, t), C("npair", w1)])
    out.append([C("in", w2, r), C("npair", w2)])
    out.append([C("in", w3, s), C("npair", w3)])
    return out


def _rule_apply(store, f, x, y):
    if isinstance(f, CP):
        return [[C("in", x, f.left), C("eq", f.right, mkset([y]))]]
    if isinstance(f, Interval):
        return []
    listed, g = _peel(store.gen, Pair(x, y), f, True)
    return [[*listed, C("comp", mkset([Pair(x, x)]), g, EMPTY)]]


def _rule_foplus(store, f, x, y, out):
    gen = store.gen
    z = gen.fresh()
    listed, h = _peel(gen, Pair(x, z), f, True)
    xx = mkset([Pair(x, x)])
    return [
        [*listed,
         C("comp", xx, h, EMPTY),
         C("eq", out, ExtSet(Pair(x, y), h))],
        [C("comp", xx, f, EMPTY),
         C("eq", out, ExtSet(Pair(x, y), f))],
    ]


# --- arithmetic -------------------------------------------------------------

def _rule_arith(c: Constraint, store):
    k = c.kind
    a, b = c.args
    if _ground(c):
        return [[]] if groundeval.eval_constraint(c) else []
    if k == "is" and isinstance(a, Var) and arith.expr_is_ground(b):
        return [[C("eq", a, Int(arith.eval_ground(b)))]]
    try:
        la = arith.lower(a)
        lb = arith.lower(b)
    except arith.NonLinear:
        return None  # park until enough operands are bound
    if k == "is":
        store.arith.assert_eq(la - lb)
    else:
        store.arith.assert_le(la - lb, strict=(k == "lt"))
    if store.arith.consistent(budget=512) is False:
        return []
    return None  # keep for the answer; bindings re-trigger it


# --- quantifiers -------------------------------------------------------------

def _rule_quant(c: Constraint, store):
    q = c.q
    d = q.domain
    if type(d) in NON_SETS:
        raise IllSorted(f"not a set: {d!r}")
    g = concretize(d)
    if g is not None:
        return [[Constraint(c.kind, (), q=QPayload(q.binder, g, q.locals, q.body, q.funcs))]]
    foreach = c.kind == "foreach"
    gen = store.gen

    def instantiate(elem: Term):
        """Emissions binding the pattern to elem plus the body instance."""
        pre: list = []
        if isinstance(q.binder, Var):
            s = {q.binder.name: elem}
        else:
            names = binder_names(q.binder)
            if isinstance(elem, Pair):
                s = {names[0]: elem.first, names[1]: elem.second}
            else:
                n1, n2 = gen.fresh(), gen.fresh()
                pre.append(C("eq", elem, Pair(n1, n2)))
                s = {names[0]: n1, names[1]: n2}
        ren = {l: gen.fresh() for l in q.locals}
        s.update(ren)
        inner = q.body if q.funcs is None else conj([q.funcs, q.body])
        return pre + [subst_formula(s, inner, gen, store.sort_cuts)]

    if isinstance(d, EmptySet):
        return [[]] if foreach else []
    if isinstance(d, ExtSet):
        rest = Constraint(c.kind, (), q=QPayload(q.binder, d.tail, q.locals, q.body, q.funcs))
        if foreach:
            return [instantiate(d.head) + [rest]]
        try:
            return [instantiate(d.head), [rest]]
        except IllSorted as e:  # the head leaves the body ill-sorted
            store.sort_cuts.append(str(e))
            return [[rest]]
    # d is a variable, a product or an interval: ``foreach`` waits for it to
    # be listed, and ``exists`` takes a fresh member, which ``_rule_in`` lists.
    if foreach:
        return None
    w = gen.fresh()
    return [[C("in", w, d)] + instantiate(w)]


_RULES = {
    "neq": _rule_neq, "in": _rule_in, "nin": _rule_nin,
    "un": _rule_un, "nun": _rule_nun,
    "disj": _rule_disj, "ndisj": _rule_ndisj,
    "subset": _rule_subset, "nsubset": _rule_nsubset,
    "pfun": _rule_pfun, "npfun": _rule_npfun,
    "dom": _rule_dom, "ndom": _rule_ndom,
    "ran": _rule_ran, "nran": _rule_nran,
    "inv": _rule_inv, "ninv": _rule_ninv,
    "id": _rule_id, "nid": _rule_nid,
    "comp": _rule_comp, "ncomp": _rule_ncomp,
    "applyTo": _rule_apply, "foplus": _rule_foplus,
    "npair": _rule_npair,
}
