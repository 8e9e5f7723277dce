"""Proof obligations for machines, and their discharge by refutation.

Three kinds of obligation are generated:

  INIT  the initialisation establishes each invariant;
  INV   each event re-establishes each invariant that mentions a variable
        the event writes;
  WD    every function application occurring in a guard or action is
        defined: the point has exactly one image.

An obligation is discharged by refuting its negation: the solver runs on
``hypotheses & neg(goal)``.  An unsatisfiable query proves the obligation;
a satisfiable one is only reported as disproved when the witness can be
completed to a well-typed ground state on which the whole query and every
invariant evaluate to true.  Declared types are data of the obligation
(``PO.types``), not constraints of the query: they check the witness, and
a declared variable the query leaves free takes its first candidate value.

An INV obligation is discharged in this order:

  1. Goal conjuncts that are conjuncts of the hypotheses (those over
     variables the event does not write) are not negated: the hypotheses
     state them.  This is done when the obligation is generated, and the
     query stays equivalent to the one over the whole goal.
  2. The remaining goal conjuncts are grouped by shared variables, carrier
     names aside.  Each group is refuted against only the hypotheses
     connected to it through such variables, with the carriers left free.
     An unsatisfiable query shows that a subset of the hypotheses entails
     its group, so if every group is refuted (with no ill-sorted cut) the
     obligation is proved.  This is the hypothesis selection of Event-B
     provers, and its cost does not grow with the carriers.
  3. Otherwise one query is solved with the carriers pinned to their
     members: the hypotheses, the negated goal, and every invariant of the
     machine, as an Event-B obligation assumes them all.  Only this stage
     yields counterexamples and the causes of an Unknown.  A proof here
     records as its hypotheses used the invariants linked to the negated
     goal through shared variables, carriers aside; a proof from stage 2
     records none.

INIT and WD obligations go straight to stage 3.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .engine import Solution, ground_complete, solve
from .formulas import (
    C, Constraint, Formula, Neg, QPayload, conj, conjuncts, disj, formula_vars,
)
from .formulas import subst_formula  # noqa: F401  (the bench's tracer wraps this name)
from .groundeval import NotGround, eval_formula, term_value, value_to_term
from .machines import (
    Carrier, Machine, WDOcc, carrier_equalities, carrier_synonyms,
    event_formula, guards_formula, init_formula, machine_var_types, prime,
)
from .printer import pp_formula, pp_term
from .terms import (
    EMPTY, Atom, ExtSet, Pair, Term, Var, is_ground, mkset, set_parts,
)
from .typecheck import TEnum, TProd, TSet, TypeEnv, check_formula, inhabits


@dataclass(frozen=True)
class PO:
    po_id: str
    kind: str                  # INIT | INV | WD
    machine: str
    event: Optional[str]
    target: str                # invariant label or application site
    fixed: Formula             # hypotheses that are always assumed
    goal: Formula              # what must follow
    neg_goal: Formula          # refutation query part (Neg(goal) or bespoke)
    pool: tuple[tuple[str, Formula], ...]  # the other invariants, also assumed
    types: tuple[tuple[str, object], ...]  # declared type of each variable
    show_vars: tuple[str, ...]  # variables worth reporting in a counterexample
    carriers: tuple[Carrier, ...]  # pinned by ``fixed``, left free in stage 2


@dataclass
class POResult:
    po: PO
    status: str                # Proved | Disproved | Unknown
    hyps_used: tuple[str, ...]  # of a Proved from the pinned search, else ()
    iterations: int            # always 1; the JSON report and perfbench read it
    time_ms: float
    counterexample: Optional[dict[str, Term]] = None
    note: str = ""
    steps: int = 0             # summed over every solve call of the discharge
    # Why an Unknown: budget, ungroundable (no answer grounds to a valid
    # witness) or ill_sorted.
    cause: str = ""


class VerifyError(Exception):
    pass


# --- obligation generation ----------------------------------------------------

def _types(m: Machine, primed: set[str]) -> tuple[tuple[str, object], ...]:
    """The declared variables and carriers with their types, and the primed
    copies of those in ``primed``."""
    tys = machine_var_types(m)
    return tuple(tys.items()) + tuple(
        (n + "_", tys[n]) for n in sorted(primed) if n in tys)


def _fresh_names(m: Machine, base: str, k: int) -> list[str]:
    taken = set(m.var_names()) | {c.name for c in m.carriers}
    for ev in m.events:
        taken |= set(ev.params)
    out: list[str] = []
    i = 0
    while len(out) < k:
        i += 1
        name = f"{base}{i}"
        if name not in taken:
            out.append(name)
    return out


def _wd_goal(m: Machine, occ: WDOcc) -> tuple[Formula, Formula]:
    """Positive goal and refutation formula for one application."""
    f, x = occ.apply.args[0], occ.apply.args[1]
    out, n1, n2 = _fresh_names(m, "w", 3)
    point = mkset([Pair(x, x)])
    goal: Formula = C("applyTo", f, x, Var(out))
    no_image: Formula = C("comp", point, f, mkset([]))
    two_images: Formula = conj([
        C("in", Pair(x, Var(n1)), f),
        C("in", Pair(x, Var(n2)), f),
        C("neq", Var(n1), Var(n2)),
    ])
    neg: Formula = disj([no_image, two_images])
    for binder, dom in reversed(occ.binders):
        goal = Constraint("foreach", (), q=QPayload(binder, dom, (), goal, None))
        neg = Constraint("exists", (), q=QPayload(binder, dom, (), neg, None))
    return goal, neg


def generate_pos(m: Machine) -> list[PO]:
    pos: list[PO] = []
    carriers = tuple(c.name for c in m.carriers)
    statevars = m.var_names()
    # Carrier definitions from the context hold in every proof; pinning them
    # keeps function domains listed and the search finite.
    ctx = carrier_equalities(m)

    for inv in m.invariants:
        pos.append(PO(
            po_id=f"{m.name}/INIT/{inv.label}",
            kind="INIT", machine=m.name, event=None, target=inv.label,
            fixed=conj([ctx, init_formula(m)]),
            goal=inv.formula,
            neg_goal=Neg(inv.formula),
            pool=(),
            types=_types(m, set()),
            show_vars=statevars + carriers,
            carriers=m.carriers,
        ))

    for ev in m.events:
        written = set(ev.writes())
        show = statevars + tuple(v + "_" for v in statevars if v in written) \
            + carriers + ev.params
        for inv in m.invariants:
            if not (formula_vars(inv.formula) & written):
                continue
            goal = prime(inv.formula, written)
            fixed = conj([ctx, inv.formula, event_formula(m, ev, frames=False)])
            # A goal conjunct over variables the event does not write is a
            # conjunct of the hypotheses, so only the others are negated.
            stated = set(conjuncts(fixed))
            pos.append(PO(
                po_id=f"{m.name}/{ev.name}/{inv.label}/INV",
                kind="INV", machine=m.name, event=ev.name, target=inv.label,
                fixed=fixed,
                goal=goal,
                neg_goal=Neg(conj([g for g in conjuncts(goal) if g not in stated])),
                pool=tuple((o.label, o.formula) for o in m.invariants
                           if o.label != inv.label),
                types=_types(m, written),
                show_vars=show,
                carriers=m.carriers,
            ))

        occs: list[tuple[Formula, WDOcc]] = []
        done: list[Formula] = []
        for g in ev.guards:
            for occ in g.wd:
                occs.append((conj(done + [occ.pre]), occ))
            done.append(g.formula)
        all_guards = guards_formula(ev)
        for a in ev.actions:
            for occ in a.wd:
                occs.append((conj([all_guards, occ.pre]), occ))
        for k, (pre, occ) in enumerate(occs, start=1):
            goal, neg = _wd_goal(m, occ)
            pos.append(PO(
                po_id=f"{m.name}/{ev.name}/{occ.site}/wd{k}/WD",
                kind="WD", machine=m.name, event=ev.name, target=occ.site,
                fixed=conj([ctx, pre]),
                goal=goal,
                neg_goal=neg,
                pool=tuple((o.label, o.formula) for o in m.invariants),
                types=_types(m, set()),
                show_vars=show,
                carriers=m.carriers,
            ))
    return pos


def _type_env(carriers: tuple[Carrier, ...]) -> TypeEnv:
    env = TypeEnv()
    env.synonyms.update(carrier_synonyms(carriers))
    return env


def typecheck_machine(m: Machine) -> list[str]:
    """Check every formula of the machine in one shared context."""
    env = _type_env(m.carriers)
    env.vars.update(_types(m, set(m.var_names())))
    parts: list[Formula] = [inv.formula for inv in m.invariants]
    parts += [a.formula for a in m.init]
    for ev in m.events:
        parts.append(event_formula(m, ev, frames=False))
    errors = check_formula(conj(parts), env)
    return [str(e) for e in errors]


# --- discharge -----------------------------------------------------------------

def _hints(m: Machine) -> dict[str, list[Term]]:
    """Candidate ground values for completing a witness.

    Carriers get their member set.  A variable typed as a subset of an
    enumerable type gets the full set and the empty set; one typed as a
    relation between enumerable types additionally gets each constant
    total function and the full product, so counterexamples involving
    function-valued state can be completed.  Primed copies share the
    candidates of their base variable.
    """
    env = _type_env(m.carriers)

    def members(ty) -> Optional[tuple[str, ...]]:
        ty = env.resolve(ty)
        return ty.members if isinstance(ty, TEnum) else None

    out: dict[str, list[Term]] = {}
    for c in m.carriers:
        if c.members is not None:
            out[c.name] = [mkset([Atom(x) for x in c.members])]
    for v in m.variables:
        if not isinstance(v.ty, TSet):
            continue
        cands: list[Term] = []
        elem = v.ty.elem
        if isinstance(elem, TProd) and len(elem.parts) == 2:
            dom = members(elem.parts[0])
            rng = members(elem.parts[1])
            if dom and rng:
                for y in rng:
                    cands.append(mkset([Pair(Atom(x), Atom(y)) for x in dom]))
                cands.append(mkset([Pair(Atom(x), Atom(y))
                                    for x in dom for y in rng]))
                cands.append(EMPTY)
        else:
            mem = members(elem)
            if mem:
                cands.append(mkset([Atom(x) for x in mem]))
                cands.append(EMPTY)
        if cands:
            out[v.name] = cands
            out[v.name + "_"] = list(cands)
    return out


def _groups(parts: list[Formula], free: set[str]) -> list[tuple[set[str], list[Formula]]]:
    """``parts`` split into groups linked by shared variables outside
    ``free``, each with those variables; order within a group is kept."""
    groups: list[tuple[set[str], list[Formula]]] = []
    for p in parts:
        vs = formula_vars(p) - free
        linked = [g for g in groups if g[0] & vs]
        for g in linked:
            groups.remove(g)
            vs |= g[0]
        groups.append((vs, [q for g in linked for q in g[1]] + [p]))
    return groups


def _connected(parts: list[Formula], seed: set[str], free: set[str]) -> list[Formula]:
    """The parts reachable from variables ``seed`` through shared variables
    outside ``free``, in their order: the groups of ``parts`` that meet
    ``seed``."""
    picked = {id(p) for vs, group in _groups(parts, free) if vs & seed for p in group}
    return [p for p in parts if id(p) in picked]


def _linked(po: PO) -> tuple[str, ...]:
    """The labels of the invariants of ``po.pool`` linked to the negated
    goal through the hypotheses and shared variables, carriers aside."""
    carriers = {c.name for c in po.carriers}
    pool = [f for _, f in po.pool]
    seed = formula_vars(po.neg_goal) - carriers
    reached = {id(p) for p in _connected(conjuncts(po.fixed) + pool, seed, carriers)}
    return tuple(label for label, f in po.pool if id(f) in reached)


def _proved_carrier_free(po: PO, budget: int) -> tuple[bool, int]:
    """Stage 2: refute the negation of each group of goal conjuncts against
    the hypotheses connected to it, with the carriers not pinned.  Returns
    whether every group was refuted, and the steps spent."""
    carriers = {c.name for c in po.carriers}
    fixed = conjuncts(po.fixed)
    steps = 0
    for vs, group in _groups(conjuncts(po.neg_goal.body), carriers):
        sliced = _connected(fixed, vs, carriers)
        res = solve(conj(sliced + [Neg(conj(group))]), budget=budget)
        steps += res.steps
        if not res.unsat or res.ill_sorted:
            return False, steps
    return True, steps


def _resolved(types: tuple[tuple[str, object], ...],
              carriers: tuple[Carrier, ...]) -> tuple[tuple[str, object], ...]:
    """``types`` with the synonyms of ``carriers`` resolved."""
    env = _type_env(carriers)
    return tuple((name, env.expand(ty)) for name, ty in types)


def _typed_hints(types: tuple[tuple[str, object], ...], sol: Solution,
                 hints: Optional[dict[str, list[Term]]]) -> dict[str, list[Term]]:
    """``hints`` plus, for each unbound leaf of an enumerated type in the
    answer term of a variable declared in ``types`` (resolved), that type's
    members."""
    out = dict(hints or {})

    def walk(t: Term, ty) -> None:
        if isinstance(t, Var):
            if isinstance(ty, TEnum) and t.name not in out:
                out[t.name] = [Atom(x) for x in ty.members]
        elif isinstance(t, ExtSet) and isinstance(ty, TSet):
            walk(t.head, ty.elem)
            walk(t.tail, ty)
        elif isinstance(t, Pair) and isinstance(ty, TProd) and len(ty.parts) == 2:
            walk(t.first, ty.parts[0])
            walk(t.second, ty.parts[1])

    for name, ty in types:
        if name in sol.bindings:
            walk(sol.bindings[name], ty)
    return out


def _well_typed(types: tuple[tuple[str, object], ...], witness: dict[str, Term]) -> bool:
    """Each variable of ``types`` (resolved) that ``witness`` gives a value
    inhabits its declared type."""
    return all(inhabits(witness[name], ty) for name, ty in types if name in witness)


def _validate(types: tuple[tuple[str, object], ...], query: Formula,
              witness: dict[str, Term]) -> bool:
    """A counterexample must fit the declared types and make the whole
    query true; a query it cannot evaluate counts as false."""
    if not _well_typed(types, witness):
        return False
    try:
        return eval_formula(query, {name: term_value(t) for name, t in witness.items()})
    except NotGround:
        return False


def discharge(po: PO, *, budget: int = 200_000,
              hints: Optional[dict[str, list[Term]]] = None) -> POResult:
    t0 = time.perf_counter()
    steps = 0

    def done(status: str, hyps_used: tuple[str, ...] = (), **kw) -> POResult:
        return POResult(po, status, hyps_used, 1,
                        (time.perf_counter() - t0) * 1000.0, steps=steps, **kw)

    if po.kind == "INV":
        proved, steps = _proved_carrier_free(po, budget)
        if proved:
            return done("Proved")

    query = conj([po.fixed, po.neg_goal] + [f for _, f in po.pool])
    res = solve(query, budget=budget, max_solutions=1)
    steps += res.steps
    if res.unsat:
        if res.ill_sorted:
            return done("Unknown", note=f"ill-sorted term: {res.ill_sorted}",
                        cause="ill_sorted")
        return done("Proved", _linked(po))

    note = "answer could not be grounded"
    if res.solutions:
        sol = res.solutions[0]
        types = _resolved(po.types, po.carriers)
        typed = _typed_hints(types, sol, hints)
        witness = ground_complete(sol, hints=typed)
        if witness is not None:
            # A declared variable the query leaves free takes its first
            # candidate, so the invariants over it can be evaluated.
            for name, _ in po.types:
                if name not in witness and typed.get(name):
                    witness[name] = typed[name][0]
            if _validate(types, query, witness):
                shown = {v: witness[v] for v in po.show_vars if v in witness}
                return done("Disproved", counterexample=shown)
            note = "witness failed ground validation"
    if res.exhausted_budget:
        return done("Unknown", note="search budget exhausted", cause="budget")
    return done("Unknown", note=note, cause="ungroundable")


def verify_machine(m: Machine, *, budget: int = 200_000,
                   po_id: Optional[str] = None) -> list[POResult]:
    """Discharge every PO of ``m``, or only the one named ``po_id``."""
    errors = typecheck_machine(m)
    if errors:
        raise VerifyError("type errors:\n" + "\n".join(errors))
    pos = [po for po in generate_pos(m) if po_id is None or po.po_id == po_id]
    hints = _hints(m)
    return [discharge(po, budget=budget, hints=hints) for po in pos]


def report_json(m: Machine, results: list[POResult]) -> dict:
    counts = {"Proved": 0, "Disproved": 0, "Unknown": 0}
    rows = []
    for r in results:
        counts[r.status] += 1
        row = {
            "id": r.po.po_id,
            "kind": r.po.kind,
            "status": r.status,
            "goal": pp_formula(r.po.goal),
            "hypotheses_used": list(r.hyps_used),
            "iterations": r.iterations,
            "time_ms": round(r.time_ms, 3),
            "stats": {"steps": r.steps, "iterations": r.iterations},
        }
        if r.counterexample is not None:
            row["counterexample"] = {k: pp_term(v)
                                     for k, v in sorted(r.counterexample.items())}
        if r.note:
            row["note"] = r.note
        if r.cause:
            row["cause"] = r.cause
        rows.append(row)
    return {
        "machine": m.name,
        "summary": {
            "total": len(results),
            "proved": counts["Proved"],
            "disproved": counts["Disproved"],
            "unknown": counts["Unknown"],
        },
        "pos": rows,
    }


# --- animation ------------------------------------------------------------------

class GuardNotSatisfied(Exception):
    pass


def _canon(t: Term) -> Term:
    return value_to_term(term_value(t))


def _pinned(m: Machine, values: dict[str, Term]) -> tuple[Carrier, ...]:
    """The carriers of ``m``, each abstract one that ``values`` gives a
    listed set of two or more atoms enumerated by those atoms."""
    out = []
    for c in m.carriers:
        if c.members is None and c.name in values:
            elems, tail = set_parts(values[c.name])
            names = tuple(dict.fromkeys(e.name for e in elems if isinstance(e, Atom)))
            if tail == EMPTY and len(names) >= 2 and all(isinstance(e, Atom) for e in elems):
                c = Carrier(c.name, names)
        out.append(c)
    return tuple(out)


def _ground_state(m: Machine, sol: Solution, hints: dict[str, list[Term]],
                  carriers: tuple[Carrier, ...]) -> Optional[dict[str, Term]]:
    """``sol`` grounded with the members of each declared type at hand, or
    None when that fails or leaves a declared value outside its type.
    ``carriers`` are those of ``m`` with their animated values."""
    types = _resolved(_types(m, set(m.var_names())), carriers)
    g = ground_complete(sol, hints=_typed_hints(types, sol, hints))
    return g if g is not None and _well_typed(types, g) else None


def initial_state(m: Machine, *, budget: int = 200_000,
                  carriers: Optional[dict[str, Term]] = None) -> dict[str, Term]:
    carriers = carriers or {}
    for name in carriers:
        if name not in {c.name for c in m.carriers}:
            raise VerifyError(f"{m.name} has no carrier set {name}")
    pins: list[Formula] = [C("eq", Var(k), t) for k, t in carriers.items()]
    f = conj([carrier_equalities(m)] + pins + [init_formula(m)])
    res = solve(f, budget=budget, max_solutions=1)
    if not res.solutions:
        if res.unsat:
            raise VerifyError("the initialisation is unsatisfiable")
        raise VerifyError("no initial state found within the budget")
    g = _ground_state(m, res.solutions[0], _hints(m), _pinned(m, carriers))
    if g is None:
        raise VerifyError("the initial state could not be grounded")
    state: dict[str, Term] = {}
    for c in m.carriers:
        if c.name in carriers:
            state[c.name] = _canon(carriers[c.name])
        elif c.members is not None:
            state[c.name] = mkset([Atom(x) for x in c.members])
        elif c.name in g:
            state[c.name] = _canon(g[c.name])
    for v in m.var_names():
        if v not in g:
            raise VerifyError(f"initialisation leaves {v} unconstrained")
        state[v] = _canon(g[v])
    return state


def step(m: Machine, state: dict[str, Term], event_name: str,
         args: Optional[dict[str, Term]] = None, *,
         budget: int = 200_000, max_successors: int = 8,
         carriers: Optional[dict[str, Term]] = None) -> list[dict[str, Term]]:
    """All distinct successor states of one event, in search order.

    An empty guard yields GuardNotSatisfied; callers that expect determinism
    can reject a result longer than one.  ``carriers`` are the values pinned
    for :func:`initial_state`; as there, only a pinned carrier types its
    variables, not one the state holds because the initialisation grounded it.
    """
    ev = m.event(event_name)
    args = args or {}
    for k in args:
        if k not in ev.params:
            raise VerifyError(f"{event_name} has no parameter {k}")
    parts: list[Formula] = [C("eq", Var(k), t) for k, t in state.items()]
    parts += [C("eq", Var(k), t) for k, t in args.items()]
    parts.append(event_formula(m, ev, frames=True))
    res = solve(conj(parts), budget=budget, max_solutions=max_successors)
    if not res.solutions:
        if res.unsat:
            raise GuardNotSatisfied(f"{event_name} is not enabled in this state")
        raise VerifyError("no successor found within the budget")
    out: list[dict[str, Term]] = []
    seen = set()
    hints, pinned = _hints(m), _pinned(m, carriers or {})
    for sol in res.solutions:
        g = _ground_state(m, sol, hints, pinned)
        if g is None:
            continue
        nxt: dict[str, Term] = {}
        for c in m.carriers:
            if c.name in state:
                nxt[c.name] = state[c.name]
        ok = True
        for v in m.var_names():
            t = g.get(v + "_")
            if t is None or not is_ground(t):
                ok = False
                break
            nxt[v] = _canon(t)
        if not ok:
            continue
        key = tuple(sorted((k, pp_term(v)) for k, v in nxt.items()))
        if key not in seen:
            seen.add(key)
            out.append(nxt)
    if not out:
        raise VerifyError("successor states could not be grounded")
    return out
