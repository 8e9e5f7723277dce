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
they give the values tried for what an answer leaves unbound.  A variable
of an enumerated type tries its members; one typed as a set of them, the
full set and then ``{}``; one typed as a relation between two, each
constant total function, the full product and then ``{}``.  Any other type
gives no candidates and the solver's default pools apply.

INV and WD obligations are discharged in this order, INIT ones from step 3:

  1. Goal conjuncts of an INV obligation that are conjuncts of the
     hypotheses (those over variables the event does not write) are not
     negated: the hypotheses state them.  This is done when the obligation
     is generated, and the query stays equivalent to the one over the whole
     goal.
  2. The negated goal is refuted with the carriers left free, in one query,
     against its slice: the hypotheses connected to it through shared
     variables, carrier names aside.  A WD obligation's slice also takes in
     the invariants connected that way; the carrier equalities mention only
     carriers, so they drop out.  An unsatisfiable query (with no
     ill-sorted cut) shows that a subset of the hypotheses entails the
     goal, for every carrier, so the obligation is proved.  This is the
     hypothesis selection of Event-B provers, and its cost does not grow
     with the carriers.
  3. Otherwise one query is solved with the carriers pinned to their
     members: the hypotheses, the negated goal, and every invariant of the
     machine, as an Event-B obligation assumes them all.  Only this stage
     yields counterexamples and the causes of an Unknown.

A proof records as its hypotheses used the invariants in the slice of its
negated goal over the hypotheses and every invariant, carriers aside: the
ones a WD query of stage 2 slices in.  An INV query of stage 2 slices in no
invariant, so a proof from it records none.  INIT obligations skip stage 2:
a falsified one would pay for a carrier-free answer it throws away.
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
from .terms import EMPTY, Atom, ExtSet, Pair, Term, Var, mkset, set_parts
from .typecheck import Checker, TEnum, TProd, TSet, TypeEnv, inhabits


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
    hyps_used: tuple[str, ...]  # linked invariants of a Proved; () from INV stage 2
    iterations: int            # always 1; the JSON report and perfbench read it
    time_ms: float
    counterexample: Optional[dict[str, Term]] = None
    note: str = ""
    steps: int = 0             # summed over every solve call of the discharge
    # Why an Unknown: budget, ungroundable (the answer does not ground to a
    # well-typed witness on which the query holds) or ill_sorted.
    cause: str = ""
    stage: str = "pinned"      # the stage that decided it: carrier_free | pinned


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
    """Check every formula of the machine in one shared context, where the
    parameters of an event are scoped to that event.

    An invariant may name only state variables and carriers.  Any other
    free name is the value of a function application that the parser could
    not fold away (``f(a) in s``, ``f(g(a)) = t``).  Negating the goal
    would then let the search pick that value freely, and an INV obligation
    would give ``f(a)`` and ``f_(a)`` one name, so it is an error."""
    env = _type_env(m.carriers)
    env.vars.update(_types(m, set(m.var_names())))
    ck = Checker(env)
    ck.check_formula(conj([inv.formula for inv in m.invariants]
                          + [a.formula for a in m.init]))
    for ev in m.events:
        ck.check_formula(event_formula(m, ev, frames=False))
        for p in ev.params:
            ck.scope.pop(p, None)
    ck.finish()
    state = set(m.var_names()) | {c.name for c in m.carriers}
    return [str(e) for e in ck.errors] + [
        f"{inv.label}: unsupported function application: an invariant may "
        "apply a function only as f(x) = t or inside a quantifier"
        for inv in m.invariants if formula_vars(inv.formula) - state]


# --- discharge -----------------------------------------------------------------

def _candidates(ty, env: TypeEnv) -> list[Term]:
    """The ground values to try for a variable of type ``ty``: an
    enumeration's members; for a set of one, the full set and then ``{}``;
    for a relation between two, each constant total function, the full
    product and then ``{}``.  Any other type gives none."""
    ty = env.resolve(ty)
    if isinstance(ty, TEnum):
        return [Atom(x) for x in ty.members]
    if not isinstance(ty, TSet):
        return []
    elem = env.resolve(ty.elem)
    if isinstance(elem, TEnum):
        return [mkset([Atom(x) for x in elem.members]), EMPTY]
    if isinstance(elem, TProd) and len(elem.parts) == 2:
        dom, rng = (env.resolve(p) for p in elem.parts)
        if isinstance(dom, TEnum) and isinstance(rng, TEnum):
            consts = [mkset([Pair(Atom(x), Atom(y)) for x in dom.members])
                      for y in rng.members]
            full = mkset([Pair(Atom(x), Atom(y)) for x in dom.members for y in rng.members])
            return consts + [full, EMPTY]
    return []


def _hints(m: Machine) -> dict[str, list[Term]]:
    """The candidates of each declared variable and carrier of ``m`` that
    has some, and of its primed copy."""
    env = _type_env(m.carriers)
    out: dict[str, list[Term]] = {}
    for name, ty in machine_var_types(m).items():
        cands = _candidates(ty, env)
        if cands:
            out[name] = out[name + "_"] = cands
    return out


def _connected(parts: list[Formula], seed: set[str], free: set[str]) -> list[Formula]:
    """The parts reachable from variables ``seed`` through shared variables
    outside ``free``, in their order."""
    links = [formula_vars(p) - free for p in parts]
    picked = [False] * len(parts)
    reached, grown = set(seed), True
    while grown:
        grown = False
        for i, vs in enumerate(links):
            if not picked[i] and vs & reached:
                picked[i] = grown = True
                reached |= vs
    return [p for p, hit in zip(parts, picked) if hit]


def _slice(po: PO, pool: tuple[tuple[str, Formula], ...]) -> list[Formula]:
    """The conjuncts of ``po.fixed`` and the invariants of ``pool`` linked
    to the negated goal through shared variables, carriers aside."""
    carriers = {c.name for c in po.carriers}
    parts = conjuncts(po.fixed) + [f for _, f in pool]
    return _connected(parts, formula_vars(po.neg_goal) - carriers, carriers)


def _labels(po: PO, parts: list[Formula]) -> tuple[str, ...]:
    """The labels of the invariants of ``po.pool`` that are among ``parts``."""
    ids = {id(p) for p in parts}
    return tuple(label for label, f in po.pool if id(f) in ids)


def _proved_carrier_free(po: PO, budget: int) -> tuple[Optional[tuple[str, ...]], int]:
    """Stage 2: refute the negated goal against its slice, with the carriers
    not pinned.  A WD PO's slice also takes in the invariants.  Returns the
    labels of the invariants sliced in when the query is refuted, else
    None, and the steps spent."""
    sliced = _slice(po, po.pool if po.kind == "WD" else ())
    res = solve(conj(sliced + [po.neg_goal]), budget=budget)
    if not res.unsat or res.ill_sorted:
        return None, res.steps
    return _labels(po, sliced), res.steps


def _typed_hints(types: tuple[tuple[str, object], ...], env: TypeEnv, sol: Solution,
                 hints: Optional[dict[str, list[Term]]]) -> dict[str, list[Term]]:
    """``hints`` plus the candidates of each unbound leaf in the answer term
    of a name declared in ``types``, by the type at that leaf; a name the
    answer leaves unbound is its own leaf."""
    out = dict(hints or {})

    def walk(t: Term, ty) -> None:
        ty = env.resolve(ty)
        if isinstance(t, Var):
            if t.name not in out:
                cands = _candidates(ty, env)
                if cands:
                    out[t.name] = cands
        elif isinstance(t, ExtSet) and isinstance(ty, TSet):
            walk(t.head, ty.elem)
            walk(t.tail, ty)
        elif isinstance(t, Pair) and isinstance(ty, TProd) and len(ty.parts) == 2:
            walk(t.first, ty.parts[0])
            walk(t.second, ty.parts[1])

    for name, ty in types:
        walk(sol.bindings.get(name, Var(name)), ty)
    return out


def _ground(types: tuple[tuple[str, object], ...], env: TypeEnv, sol: Solution,
            hints: Optional[dict[str, list[Term]]] = None) -> Optional[dict[str, Term]]:
    """``sol`` completed to a ground witness from the candidates of the
    types declared in ``types``, or None when that fails or leaves a
    declared value outside its type.  ``env`` resolves those types."""
    g = ground_complete(sol, hints=_typed_hints(types, env, sol, hints))
    if g is None or not all(inhabits(g[n], ty, env) for n, ty in types if n in g):
        return None
    return g


def _holds(query: Formula, witness: dict[str, Term]) -> bool:
    """Is ``query`` true on ``witness``?  One it cannot evaluate is not."""
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

    if po.kind != "INIT":
        hyps_used, steps = _proved_carrier_free(po, budget)
        if hyps_used is not None:
            return done("Proved", hyps_used, stage="carrier_free")

    query = conj([po.fixed, po.neg_goal] + [f for _, f in po.pool])
    res = solve(query, budget=budget, max_solutions=1)
    steps += res.steps
    if res.unsat:
        if res.ill_sorted:
            return done("Unknown", note=f"ill-sorted term: {res.ill_sorted}",
                        cause="ill_sorted")
        return done("Proved", _labels(po, _slice(po, po.pool)))
    if res.solutions:
        witness = _ground(po.types, _type_env(po.carriers), res.solutions[0], hints)
        if witness is not None and _holds(query, witness):
            shown = {v: witness[v] for v in po.show_vars if v in witness}
            return done("Disproved", counterexample=shown)
    if res.exhausted_budget:
        return done("Unknown", note="search budget exhausted", cause="budget")
    return done("Unknown", note="answer could not be grounded", cause="ungroundable")


def verify_machine(m: Machine, *, budget: int = 200_000,
                   po_id: Optional[str] = None) -> list[POResult]:
    """Discharge every PO of ``m``, or only the one named ``po_id``."""
    errors = typecheck_machine(m)
    if errors:
        raise VerifyError("type errors:\n" + "\n".join(errors))
    pos = [po for po in generate_pos(m) if po_id is None or po.po_id == po_id]
    return [discharge(po, budget=budget) for po in pos]


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
        row["stage"] = r.stage
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

# Answers of one event's search that ``step`` grounds into successors.
MAX_SUCCESSORS = 8


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
    g = _ground(_types(m, set()), _type_env(_pinned(m, carriers)), res.solutions[0])
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
        state[v] = _canon(g[v])
    return state


def step(m: Machine, state: dict[str, Term], event_name: str,
         args: Optional[dict[str, Term]] = None, *,
         budget: int = 200_000,
         carriers: Optional[dict[str, Term]] = None) -> list[dict[str, Term]]:
    """The distinct successor states of one event, in search order, from
    at most ``MAX_SUCCESSORS`` answers.

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
    res = solve(conj(parts), budget=budget, max_solutions=MAX_SUCCESSORS)
    if not res.solutions:
        if res.unsat:
            raise GuardNotSatisfied(f"{event_name} is not enabled in this state")
        raise VerifyError("no successor found within the budget")
    out: list[dict[str, Term]] = []
    seen = set()
    types, env = _types(m, set(m.var_names())), _type_env(_pinned(m, carriers or {}))
    for sol in res.solutions:
        g = _ground(types, env, sol)
        if g is None:
            continue
        nxt: dict[str, Term] = {}
        for c in m.carriers:
            if c.name in state:
                nxt[c.name] = state[c.name]
        for v in m.var_names():
            nxt[v] = _canon(g[v + "_"])
        key = tuple(sorted((k, pp_term(v)) for k, v in nxt.items()))
        if key not in seen:
            seen.add(key)
            out.append(nxt)
    if not out:
        raise VerifyError("successor states could not be grounded")
    return out
