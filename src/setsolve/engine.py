"""Constraint store and search loop.

Solving works on a stack of stores (depth-first over the branch points the
rules produce).  Each store keeps a substitution, priority queues of pending
items, the parked residue of irreducible constraints, and a linear-arithmetic
store.  Binding a variable wakes any parked constraint that mentions it.
The residue holds each constraint once: parked constraints are normal under
the substitution (see below), so one equal to a parked one is the same
constraint, and since ``C & C`` is ``C``, dropping it loses no solution.
Kept, the copy would wake, re-split and show up in answers with the other.
For the same reason ``solve`` queues a root item equal to an earlier one
only once.

Queue items are constraints and ``or``s, and ``rules.rewrite`` decides
every one the loop pops (an ``or`` gives one branch per alternative), so
the loop has one path for all of them.

The queue has five levels, and a pop takes the front item of the lowest
non-empty one.  ``_prio`` gives an item's level under the current
substitution: 0 for an equality, which binds; 1 for the filters (``in``,
``nin``, ``neq``, ``npair``, ``is``, ``le``, ``lt``) and for a
``comp(r, s, t)`` whose middle ``s`` is not a variable; 2 for a ``disj`` or
``subset`` that the substitution has made a one-branch check with no fresh
variable (``_settled``); 3 (``GEN``) for every other generator and each
disjunction, which grow sets with fresh variables; 4 for the quantifiers.
It is first-fail: what cannot branch runs before what can.  A ``comp``
over a listed middle only walks its pairs and splits on equality of
points, so running it before ``pfun``, ``dom``, ``foplus`` or ``applyTo``
kills doomed branches before they grow, and a settled ``disj`` or
``subset`` can fail a branch before an older ``un`` splits it.  This is
sound, because a store's items form a conjunction: the order decides how
soon a doomed branch dies, not which answers there are; no item is dropped
and no branch skipped.

A level is read when an item is queued, and again at each bind, the only
thing that can change it.  A bind only lowers a level: the substitution
only grows, and a term it puts for a variable keeps its kind under later
binds (a listed set stays listed, ``{}`` stays ``{}``).  Nothing below
``GEN`` or at the quantifier level can fall, so after waking the parked
constraints that it touches, a bind re-reads the level of each entry at
``GEN``.  An entry it lowers moves to the front of its new level, in
queue order and ahead of the constraints the same bind woke.

A rewrite never returns a branch that holds a constraint false on sight
(see ``rules``), so no branch is cloned or queued only to fail at its first
filter.

A quiescent store is an answer: the substitution plus the parked residue.
Unsatisfiability is only reported when every branch failed within budget;
running out of budget degrades the verdict, never flips it.

The substitution is kept idempotent.  Parked constraints are normal under
it (substituting them changes nothing), because a bind that touches one
wakes it.  Every queued item is read under the substitution when it is
popped; ``subst_formula`` returns an item that it does not change as the
same object, and for a quantifier the same reading renames its bound names
away from the incoming terms.

Each store keeps ``facts``: the bits ``INT``, ``SET`` and ``FUN`` (a set
asserted ``pfun``) that the constraints of its branch have shown of each
variable.  ``enqueue`` fills it under the substitution from every argument
of an item, by its ``SIG`` position (``SHOWS``) and its structure
(``Store._show``); ``ground_complete`` shows the answer's terms the same
way, so the search and grounding sort by one rule.  A bind to another
variable passes the bits on.  ``facts`` only grows, since a sort once shown
holds on the branch, so a pop has nothing to undo; a clone copies it,
since one ``or`` alternative says nothing of its sibling.

Each store also keeps ``outputs``, an index of functional outputs.
``un``, ``comp``, ``dom``, ``ran``, ``inv`` and ``id`` are total functions
of their inputs, their output the last argument (``formulas.FUNCTIONAL``),
so ``F(x, y1) & F(x, y2)`` is ``F(x, y1) & y2 = y1``: the simpagation rule
of Constraint Handling Rules.  When ``enqueue`` meets ``F(in, y)`` whose
inputs are all unbound variables, keyed by ``F`` and their names (``un``'s
two sorted, since its inputs commute), it records ``y`` if the index holds
no output for them; it queues ``y = y0`` in the item's place if the index
holds a ``y0`` that differs under the substitution, and the item itself if
it holds ``y`` again (so ``C & C`` takes the steps of ``C``).  A complement
``nF(in, y)`` becomes ``y neq y0``; with no ``y0`` yet it is recorded, and
the ``F`` that later fills the entry also queues ``y neq y0``.  The index
only grows: every branch of a rewrite entails the constraint it rewrote,
so a recorded output stays true on the branch, and a clone copies it.
Two guards keep the sort rule below.  An output that is an ur-element (an
atom, integer, string or pair) is neither recorded nor merged, so the
rewrite's sort check still cuts it; nor is a product or interval, whose
rewrite lists it again under the same inputs and must not be merged with
its own entry.  And a bind of a variable whose ``facts`` hold ``SET`` to an
ur-element raises ``IllSorted``, since a merge can kill a branch before the
item that would show the ill-sorted term pops.

Sorts follow one rule, read from ``formulas.SIG`` (see ``rules``): a
non-set where a set belongs, or a non-integer where an integer belongs, is
ill-sorted (``IllSorted``).  Such a term cuts the smallest part that holds
it: an ``or`` alternative, ``exists`` instance or unification alternative
becomes false, and a ``foreach`` body empties the domain, since a
``foreach`` still holds over an empty one (``formulas.subst_formula``,
``rules``, ``unify``).  With no such part, it kills the store.  Each cut is
recorded, because an ill-sorted formula and its negation can both come out
unsat: an unsat result with a cut refutes nothing.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import arith, groundeval
from .arith import ArithStore
from .formulas import (
    COMPLEMENT, FUNCTIONAL, INT_POS, SET_POS, SIG, And, Constraint, FalseF,
    Formula, IllFormed, Implies, Neg, PredCall, Program, TrueF, all_var_names,
    arg_vars, expand_calls, formula_vars, subst_formula,
)
from .negate import nnf
from .rules import FUN, INT, SET, Bind, rewrite
from .terms import (
    CP, NON_SETS, Atom, EMPTY, EmptySet, ExtSet, IllSorted, Int, Interval, Pair,
    Term, Var, VarGen, compose, is_ground, mkset, subst_term, term_vars,
)


QItem = object  # Constraint | Or

GEN = 3  # the level of a generator
PRIO = {
    "eq": 0,
    "in": 1, "nin": 1, "neq": 1, "npair": 1, "is": 1, "le": 1, "lt": 1,
    "foreach": 4, "exists": 4,
}
N_PRIO = 5

# The bits each kind shows of its arguments, one per position: SET (and FUN
# for ``pfun``) at a set position, INT at an integer one, else 0.
SHOWS = {k: tuple((SET | FUN if k == "pfun" else SET) if i in SET_POS[k]
                  else INT if i in INT_POS[k] else 0 for i in range(len(sig)))
         for k, sig in SIG.items()}

# Each functional kind and its complement, by the functional kind.
FUNCTION_OF = {k: f for f in FUNCTIONAL for k in (f, COMPLEMENT[f])}
# The outputs the index records and merges: a variable, ``{}`` or a listed
# set.
OUTPUTS = (Var, ExtSet, EmptySet)


def _prio(item: QItem, subst: dict[str, Term] = {}) -> int:
    """The level of ``item`` under ``subst``, which is idempotent (read,
    never written)."""
    if item.kind == "comp":
        m = item.args[1]
        if isinstance(m, Var):
            m = subst.get(m.name, m)
        return GEN if isinstance(m, Var) else 1
    if item.kind in ("disj", "subset"):
        return 2 if _settled(item, subst) else GEN
    return PRIO.get(item.kind, GEN)


def _settled(item: Constraint, subst: dict[str, Term]) -> bool:
    """A ``disj`` or ``subset`` that ``subst`` (idempotent) leaves with one
    branch and no fresh variable: ``disj`` with a ``{}`` or listed side,
    ``subset`` with a ``{}`` or listed left side or a ``{}`` right side."""
    a, b = (subst.get(x.name, x) if isinstance(x, Var) else x for x in item.args)
    if isinstance(a, (EmptySet, ExtSet)):
        return True
    return isinstance(b, EmptySet) or (item.kind == "disj" and isinstance(b, ExtSet))


def items_of(f: Formula) -> Optional[list[QItem]]:
    """Flatten a negation-free formula into queue items, the constraints and
    ``or``s of its conjunction; None means false."""
    if isinstance(f, TrueF):
        return []
    if isinstance(f, FalseF):
        return None
    if isinstance(f, And):
        out: list[QItem] = []
        for p in f.parts:
            sub = items_of(p)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(f, PredCall):
        raise IllFormed(f"unknown predicate {f.name}/{len(f.args)}")
    if isinstance(f, (Neg, Implies)):
        raise IllFormed(f"unexpected {type(f).__name__} after preprocessing")
    return [f]


class Store:
    __slots__ = ("subst", "queues", "parked", "facts", "outputs",
                 "arith", "gen", "sort_cuts")

    def __init__(self, gen: VarGen):
        self.subst: dict[str, Term] = {}
        self.queues: list[deque] = [deque() for _ in range(N_PRIO)]
        self.parked: list[tuple[frozenset, Constraint]] = []
        self.facts: dict[str, int] = {}  # sort bits by variable, see above
        self.outputs: dict[tuple, object] = {}  # functional outputs, see above
        self.arith = ArithStore()
        self.gen = gen
        # The ill-sorted terms that cut a branch; every clone shares the
        # list, so it covers the whole search.
        self.sort_cuts: list[str] = []

    def clone(self) -> "Store":
        s = Store.__new__(Store)
        s.subst = self.subst  # apply_bind replaces it, nothing mutates it
        s.queues = [deque(q) for q in self.queues]
        s.parked = list(self.parked)
        s.facts = dict(self.facts)
        s.outputs = dict(self.outputs)
        s.arith = self.arith.copy()
        s.gen = self.gen
        s.sort_cuts = self.sort_cuts
        return s

    def enqueue(self, item: QItem, front: bool = False) -> None:
        if item.q is not None:
            self._show(item.q.domain, SET)
        for a, bits in zip(item.args, SHOWS.get(item.kind, ())):
            self._show(a, bits)
        f = FUNCTION_OF.get(item.kind)
        if f is not None:
            item = self._merge(item, f)
        q = self.queues[_prio(item, self.subst)]
        if front:
            q.appendleft(item)
        else:
            q.append(item)

    def _merge(self, item: Constraint, f: str) -> Constraint:
        """What to queue for ``item``, an ``F`` or ``nF`` of the functional
        kind ``f``, under the index of outputs (see the module docstring)."""
        *ins, out = item.args
        subst = self.subst
        names = []
        for a in ins:
            if type(a) is Var:
                a = subst.get(a.name, a)
                if type(a) is Var:
                    names.append(a.name)
                    continue
            return item
        if f == "un":
            names.sort()
        if type(subst.get(out.name, out) if type(out) is Var else out) not in OUTPUTS:
            return item  # an ur-element, product or interval (see above)
        outputs, key = self.outputs, (f, *names)
        known = outputs.get(key)
        if known is None:
            apart = (COMPLEMENT[f], *names)
            if item.kind == f:
                outputs[key] = out
                for y in outputs.get(apart, ()):
                    self.enqueue(Constraint("neq", (y, out)))
            else:
                outputs[apart] = outputs.get(apart, ()) + (out,)
            return item
        try:
            y, y2 = subst_term(subst, known), subst_term(subst, out)
        except IllSorted:
            return item  # the rewrite's sort check cuts it
        if type(y) not in OUTPUTS:
            return item
        if item.kind != f:
            return Constraint("neq", (y2, y))
        return item if y2 == y else Constraint("eq", (y2, y))

    def _show(self, a, bits: int) -> None:
        """Add ``bits`` to the facts of ``a`` if it is a variable, and show
        the sorts its structure gives the variables inside it: a listed
        set's tail and a product's factors are sets, an interval's bounds and
        the variables of an integer expression are integers.  Set heads and
        pair components are walked with no bits of their own."""
        while True:
            if type(a) is Var:
                a = self.subst.get(a.name, a)
                if type(a) is Var:
                    if bits:
                        self.facts[a.name] = self.facts.get(a.name, 0) | bits
                    return
            cls = type(a)
            if cls is ExtSet:
                self._show(a.head, 0)
                a, bits = a.tail, SET
            elif cls is Pair:
                self._show(a.first, 0)
                a, bits = a.second, 0
            elif cls is CP:
                self._show(a.left, SET)
                a, bits = a.right, SET
            elif cls is Interval:
                self._show(a.lo, INT)
                a, bits = a.hi, INT
            else:
                if not isinstance(a, Term):
                    for n in arg_vars(a):
                        self._show(Var(n), INT)
                return

    def pop(self) -> Optional[QItem]:
        for q in self.queues:
            if q:
                return q.popleft()
        return None

    def park(self, c: Constraint) -> None:
        # The residue is a set (see the module docstring), and ``a neq b`` is
        # ``b neq a``.  A scan is cheaper here than hashing the constraint,
        # and comparing whole entries compares the variable sets first, which
        # rules most entries out.
        vs = frozenset(formula_vars(c))
        parked = self.parked
        if (vs, c) in parked or (
                c.kind == "neq" and (vs, Constraint("neq", c.args[::-1])) in parked):
            return
        parked.append((vs, c))

    def apply_bind(self, delta: dict[str, Term]) -> None:
        self.subst = compose(self.subst, delta)
        facts = self.facts
        for name in delta:
            t = self.subst[name] if name in facts else None
            if isinstance(t, Var):
                facts[t.name] = facts.get(t.name, 0) | facts[name]
            elif isinstance(t, NON_SETS) and facts[name] & SET:
                raise IllSorted(f"not a set: {t!r}")
        keys = set(delta)
        kept = []
        for vs, c in self.parked:
            if vs & keys:
                # Woken constraints jump their queue: a parked constraint
                # becomes reducible exactly when a binding touches it, and
                # letting it run before older generative items fails doomed
                # branches early.
                self.enqueue(c, front=True)
            else:
                kept.append((vs, c))
        self.parked = kept
        # A generator the bind lowers (see ``_prio``) moves to the front of
        # its new level, ahead of the woken constraints, keeping its order.
        gens, subst = self.queues[GEN], self.subst
        levels = [_prio(item, subst) for item in gens]
        if min(levels, default=GEN) < GEN:
            self.queues[GEN] = deque(e for e, lv in zip(gens, levels) if lv == GEN)
            for e, lv in zip(reversed(gens), reversed(levels)):
                if lv < GEN:
                    self.queues[lv].appendleft(e)
        # Asserting an equation below adds only variables the substitution
        # leaves unbound, never a name of delta, so one scan serves them all.
        int_vars = self.arith.vars()
        for name in delta:
            if name in int_vars:
                t = subst_term(self.subst, Var(name))
                if not isinstance(t, (Int, Var)):
                    raise IllSorted(f"not an integer: {t!r}")
                if t != Var(name):
                    self.arith.assert_eq(arith.lower(Var(name)) - arith.lower(t))

    def _scan_sorts(self) -> tuple[set[str], set[str]]:
        """The variables that the branch has shown to be sets, and those it
        has shown to be integers."""
        facts = self.facts
        return ({n for n, b in facts.items() if b & SET},
                {n for n, b in facts.items() if b & INT})


@dataclass
class Solution:
    bindings: dict[str, Term]
    residual: list[Constraint]
    query_vars: frozenset
    store: Store = field(repr=False)

    def arith_model(self) -> Optional[dict[str, int]]:
        return self.store.arith.model()


@dataclass
class Result:
    solutions: list[Solution]
    complete: bool           # the whole search space was examined
    exhausted_budget: bool
    steps: int
    ill_sorted: Optional[str] = None  # the first ill-sorted term that cut a branch
    clones: int = 0                   # branch stores made
    max_depth: int = 0                # the deepest stack of pending stores
    query: Optional[Formula] = None   # the formula searched: NNF, calls inlined

    @property
    def unsat(self) -> bool:
        return self.complete and not self.solutions


def prepare(formula: Formula, program: Optional[Program], gen: VarGen) -> Formula:
    gen.bump_past(all_var_names(formula))
    f = nnf(formula, gen, program)
    if program is not None:
        # Clause bodies may carry implications and negations of their own.
        f = nnf(expand_calls(f, program, gen), gen, program)
        # Clause bodies keep their bound names; without a program, ``nnf``
        # draws every new name from ``gen``, so the walk is not needed.
        gen.bump_past(all_var_names(f))
    return f


def solve(formula: Formula, program: Optional[Program] = None, *,
          budget: int = 200_000, max_solutions: int = 1, trace=None) -> Result:
    gen = VarGen()
    query_vars = formula_vars(formula)
    f = prepare(formula, program, gen)
    root = Store(gen)
    init = items_of(f)
    steps = 0
    if init is None:
        return Result([], True, False, steps, query=f)
    for i, it in enumerate(init):
        if it not in init[:i]:  # ``C & C`` is ``C``
            root.enqueue(it)

    stack: list[Store] = [root]
    sols: list[Solution] = []
    exhausted = False
    clones, max_depth = 0, len(stack)

    while stack:
        store = stack.pop()
        dead = False
        while not dead:
            if steps >= budget:
                exhausted = True
                break
            item = store.pop()
            if item is None:
                sol = _extract(store, query_vars)
                if sol is not None:
                    sols.append(sol)
                break
            steps += 1
            # A bind can leave a term of this item ill-sorted.  Substituting
            # cuts an ``or`` alternative or empties a ``foreach`` that holds
            # it; a term held by neither kills the store.
            c = item
            try:
                c = subst_formula(store.subst, item, store.gen, store.sort_cuts)
                out = rewrite(c, store)
            except IllSorted as e:
                store.sort_cuts.append(str(e))
                if trace:
                    trace(c.kind, step=steps, constraint=c, result="ill_sorted")
                dead = True
                break
            if trace:
                trace(c.kind, step=steps, constraint=c,
                      result=("park" if out is None else len(out)))
            if out is None:
                store.park(c)
                continue
            if not out:
                dead = True
                break
            if len(out) > 1:
                for branch in reversed(out[1:]):
                    s2 = store.clone()
                    if _apply_branch(s2, branch):
                        stack.append(s2)
                clones += len(out) - 1
                max_depth = max(max_depth, len(stack))
            if not _apply_branch(store, out[0]):
                dead = True
                break
        if exhausted:
            break
        if sols and len(sols) >= max_solutions:
            break

    complete = (not exhausted) and not stack
    cut = root.sort_cuts[0] if root.sort_cuts else None
    return Result(sols, complete, exhausted, steps, cut, clones, max_depth, f)


def _apply_branch(store: Store, branch: list) -> bool:
    for em in branch:
        if isinstance(em, Bind):
            try:
                store.apply_bind(dict(em.delta))
            except IllSorted as e:
                store.sort_cuts.append(str(e))
                return False
        elif isinstance(em, Constraint):
            store.enqueue(em)
        else:
            sub = items_of(em)
            if sub is None:
                return False
            for it in sub:
                store.enqueue(it)
    if store.arith.failed:
        return False
    return True


def _extract(store: Store, query_vars: set[str]) -> Optional[Solution]:
    if store.arith.consistent(budget=4096) is False:
        return None
    bindings = {}
    for v in sorted(query_vars):
        t = subst_term(store.subst, Var(v))
        if t != Var(v):
            bindings[v] = t
    residual = [c for _, c in store.parked]  # normal under the substitution
    return Solution(bindings, residual, frozenset(query_vars), store)


# --- grounding completion ----------------------------------------------------

def ground_complete(sol: Solution,
                    hints: Optional[dict[str, list[Term]]] = None) -> Optional[dict[str, Term]]:
    """Extend an answer to a fully ground witness, or return None.

    Unbound variables are filled from carrier hints, the arithmetic model,
    or small default pools; the parked residue is then evaluated on the
    candidate.  Success certifies the answer as a genuine solution.
    """
    hints = hints or {}
    store = sol.store
    need = {v for v in sol.query_vars if v not in store.subst}
    # The answer's terms show the sorts of the variables they hold.
    for t in sol.bindings.values():
        need |= term_vars(t)
        store._show(t, 0)
    for c in sol.residual:
        need |= formula_vars(c)
        for a in c.args:
            store._show(a, 0)
    if not need:
        return dict(sol.bindings) if _residual_ok(sol.residual, {}) else None

    # A certified model assigns every variable of the arithmetic store.
    arith_vars = store.arith.vars()
    model = store.arith.model() if need & arith_vars else None
    set_sorted, int_sorted = store._scan_sorts()

    a1, a2 = Atom("_e1"), Atom("_e2")
    pools: list[tuple[str, list[Term]]] = []
    for i, v in enumerate(sorted(need)):
        if v in hints:
            pools.append((v, list(hints[v])))
        elif v in arith_vars:
            if model is None:
                return None  # arithmetic residue with no certified model
            pools.append((v, [Int(model[v])]))
        elif v in int_sorted:
            pools.append((v, [Int(0), Int(1), Int(-1), Int(2)]))
        elif v in set_sorted:
            pools.append((v, [EMPTY, mkset([a1]), mkset([a2]), mkset([a1, a2])]))
        else:
            own = Atom(f"_e{i + 3}")
            pools.append((v, [own, a1, EMPTY, Int(0)]))

    count = [0]
    env: dict[str, object] = {}  # the values of ``fill``

    def leaf(fill: dict[str, Term]) -> Optional[dict[str, Term]]:
        if not _residual_ok(sol.residual, env):
            return None
        out = {}
        try:
            for v, t in sol.bindings.items():
                g = subst_term(fill, t)
                if not is_ground(g):
                    return None
                out[v] = g
        except ValueError:
            return None  # a candidate landed in an ill-typed position
        for v, t in fill.items():
            out.setdefault(v, t)
        return out

    def rec(idx: int, fill: dict[str, Term]) -> Optional[dict[str, Term]]:
        if idx == len(pools):
            return leaf(fill)
        name, cands = pools[idx]
        for cand in cands:
            count[0] += 1
            if count[0] > 4000:  # candidates tried before giving up
                return None
            fill[name] = cand
            env[name] = groundeval.term_value(cand)
            got = rec(idx + 1, fill)
            if got is not None:
                return got
            del fill[name], env[name]
        return None

    return rec(0, {})


def _residual_ok(residual: list[Constraint], env: dict[str, object]) -> bool:
    """Every residual constraint holds under the candidate values ``env``."""
    for c in residual:
        try:
            if not groundeval.eval_formula(c, env):
                return False
        except (groundeval.NotGround, ValueError):
            return False
    return True
