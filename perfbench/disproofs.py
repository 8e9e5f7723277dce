"""The ``disproofs`` workload: seeded single-edit mutants of the corpus machines.

Each bundled machine is restated over carriers of several sizes whose
member names the seed draws, and every single edit of its initialisation,
guards and actions is applied in turn:

  init_flip    ``v := cp(C, {true})`` becomes ``{false}``
  init_point   the same initialisation spelled out, one point flipped
  init_drop    ... one point left out
  init_conflict ... one point given both images
  guard_flip   a ``true``/``false`` in a guard is flipped
  guard_drop   one guard conjunct (or a whole guard line) is dropped
  action_flip  a ``true``/``false`` in an action is flipped
  insertion    ``f(x) := v`` becomes ``f := {[x, v] / f}``

Invariants are never edited: they are the specification.  Every PO of a
mutant is decided by enumerating the finite typed states with
``tests/oracle.py`` (at most 8**3 states for ``doors``), independently of
the solver.  Only the POs the enumeration falsifies become items; a mutant
with none is an equivalent mutant and is dropped.  The known answer of
every item is therefore Disproved.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from common import Failure, Item, Outcome, evidence

# Carrier sizes per machine.  doors stops at three members: its enumeration
# grows as 2**(3n) states and n=4 would dominate the set-up of every run.
BASES = (
    ("gears.smch", (2, 3, 4)),
    ("doors.smch", (2, 3)),
    ("gears_intermediate.smch", (2, 3, 4)),
)
MEMBER_NAMES = (
    "front", "right", "left", "nose", "tail", "port", "aft", "bow", "keel",
    "mast", "wing", "hub", "belly", "rear", "spur", "skid",
)

_BOOL = re.compile(r"\b(true|false)\b")
_CARRIER = re.compile(r"^(\s*)(\w+)\s*=\s*\{[^}]*\}\s*$")
_POINT_UPDATE = re.compile(r"^(\s*)(\w+)\((\w+)\)\s*:=\s*(.+?)\s*$")
_CONST_INIT = re.compile(r"^(\s*)(\w+)\s*:=\s*cp\((\w+),\s*\{(true|false)\}\)\s*$")
_FLIP = {"true": "false", "false": "true"}


@dataclass(frozen=True)
class Mutant:
    key: str          # machine/size/op/line/variant, unique within a seed
    base: str         # corpus file the mutant derives from
    op: str
    text: str


def restate(text: str, members: list[str]) -> str:
    """The machine without comments, its one carrier listing ``members``."""
    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    out, seen = [], 0
    for ln in lines:
        m = _CARRIER.match(ln)
        if m and not seen:
            ln = f"{m.group(1)}{m.group(2)} = {{{', '.join(members)}}}"
            seen += 1
        out.append(ln)
    if seen != 1:
        raise ValueError("expected exactly one enumerated carrier")
    return "\n".join(out) + "\n"


def _sites(lines: list[str]) -> list[tuple[int, str, int]]:
    """(line index, region, event number) of each editable labelled line."""
    region, event, out = None, -1, []
    for i, ln in enumerate(lines):
        word = ln.strip().split(" ", 1)[0]
        if word in ("context", "variables", "invariants", "end", "machine"):
            region = None
        elif word == "init":
            region = "init"
        elif word == "event":
            region, event = None, event + 1
        elif word == "where":
            region = "guard"
        elif word == "then":
            region = "action"
        elif region and ":" in ln and not ln.strip().startswith("any"):
            out.append((i, region, event))
    return out


def single_edits(text: str, members: list[str]) -> list[tuple[str, int, str]]:
    """Every (op, line index, mutated text) of one restated machine."""
    lines = text.splitlines()
    sites = _sites(lines)
    guards_per_event: dict[int, int] = {}
    for _, region, ev in sites:
        if region == "guard":
            guards_per_event[ev] = guards_per_event.get(ev, 0) + 1
    out: list[tuple[str, int, str]] = []

    def emit(op: str, i: int, new_line: Optional[str]) -> None:
        new = lines[:i] + ([new_line] if new_line is not None else []) + lines[i + 1:]
        out.append((op, i, "\n".join(new) + "\n"))

    for i, region, ev in sites:
        label, body = lines[i].split(":", 1)
        for mt in _BOOL.finditer(body):
            flipped = body[:mt.start()] + _FLIP[mt.group(1)] + body[mt.end():]
            emit(f"{region}_flip", i, f"{label}:{flipped}")
        if region == "guard":
            parts = [p.strip() for p in body.split(" & ")]
            if len(parts) > 1:
                for k in range(len(parts)):
                    rest = " & ".join(p for j, p in enumerate(parts) if j != k)
                    emit("guard_drop", i, f"{label}: {rest}")
            elif guards_per_event[ev] > 1:
                emit("guard_drop", i, None)
        elif region == "action":
            m = _POINT_UPDATE.match(body)
            if m:
                f, x, v = m.group(2), m.group(3), m.group(4)
                emit("insertion", i, f"{label}: {f} := {{[{x}, {v}] / {f}}}")
        elif region == "init":
            m = _CONST_INIT.match(body)
            if m:
                # Spelled out as a listing, one point is flipped, dropped,
                # or given a second image.
                var, b = m.group(2), m.group(4)
                for k, xk in enumerate(members):
                    for op, pts in (
                        ("init_point", [f"[{x}, {_FLIP[b] if x == xk else b}]"
                                        for x in members]),
                        ("init_drop", [f"[{x}, {b}]" for x in members if x != xk]),
                        ("init_conflict", [f"[{x}, {b}]" for x in members]
                         + [f"[{xk}, {_FLIP[b]}]"]),
                    ):
                        emit(op, i, f"{label}: {var} := {{{', '.join(pts)}}}")
    return out


def generate_mutants(corpus_texts: dict[str, str], seed: int) -> list[Mutant]:
    """All single-edit mutants for this seed, in a seeded order."""
    rng = random.Random(f"disproofs:{seed}")
    out: list[Mutant] = []
    for name, sizes in BASES:
        stem = name.rsplit(".", 1)[0]
        for n in sizes:
            members = rng.sample(MEMBER_NAMES, n)
            base = restate(corpus_texts[name], members)
            for k, (op, line, text) in enumerate(single_edits(base, members)):
                out.append(Mutant(f"{stem}/n{n}/{op}/L{line}/{k}", name, op, text))
    rng.shuffle(out)
    return out


# --- independent enumeration ---------------------------------------------------

_NONE = object()   # a term cannot denote the value being matched


class Space:
    """The finite typed values of one machine, as oracle values.

    ``good_states`` caches, per machine and carrier, the states on which
    every invariant holds; mutants never edit invariants, so all mutants of
    one restated machine share them.
    """

    def __init__(self, m, oracle, good_states: Optional[dict] = None):
        from setsolve.formulas import conj
        from setsolve.machines import machine_synonyms
        from setsolve.typecheck import TEnum, TProd, TSet, TypeEnv

        self.oracle = oracle
        self.env = TypeEnv()
        self.env.synonyms.update(machine_synonyms(m))
        self.carriers = {c.name: frozenset("a:" + x for x in c.members)
                         for c in m.carriers}
        members = sorted(set().union(*self.carriers.values()))
        self.params = members
        self.elements = members + ["a:true", "a:false"]
        self.state: dict[str, list] = {}
        for v in m.variables:
            ty = v.ty
            if not (isinstance(ty, TSet) and isinstance(ty.elem, TProd)
                    and len(ty.elem.parts) == 2):
                raise ValueError(f"{v.name}: only relation-typed state is enumerated")
            dom, rng = (self.env.resolve(p) for p in ty.elem.parts)
            if not (isinstance(dom, TEnum) and isinstance(rng, TEnum)):
                raise ValueError(f"{v.name}: relation over non-enumerated types")
            # Every corpus machine's inv1 makes each state variable a total
            # function on its domain, and inv1 is assumed by every INV and
            # WD obligation, so states range over total functions.
            xs = ["a:" + x for x in dom.members]
            self.state[v.name] = [
                frozenset(zip(xs, ys))
                for ys in product(["a:" + y for y in rng.members], repeat=len(xs))]
        self.params_of = {p for ev in m.events for p in ev.params}
        self.invariants = conj([inv.formula for inv in m.invariants])
        self.invariant_parts = set(_conjuncts(self.invariants))
        cache = good_states if good_states is not None else {}
        key = (repr(self.invariants), tuple(sorted(self.carriers.items(), key=str)))
        if key not in cache:
            names = list(self.state)
            good = []
            for values in product(*(self.state[n] for n in names)):
                env = dict(self.carriers)
                env.update(zip(names, values))
                if oracle.holds(self.invariants, env):
                    good.append(dict(zip(names, values)))
            cache[key] = good
        self.good_states = cache[key]

    def pool(self, name: str) -> list:
        if name in self.state:
            return self.state[name]
        if name in self.params_of:
            return self.params
        return self.elements


def _conjuncts(f) -> list:
    from setsolve.formulas import And

    if isinstance(f, And):
        return [c for p in f.parts for c in _conjuncts(p)]
    return [f]


def _match(t, value, env: dict, name: str, oracle):
    """The value ``name`` must take for term ``t`` to denote ``value``."""
    from setsolve.terms import Pair, Var, term_vars

    if isinstance(t, Var) and t.name == name:
        return value
    if isinstance(t, Pair) and isinstance(value, tuple) and len(value) == 2:
        got = _NONE
        for sub, v in ((t.first, value[0]), (t.second, value[1])):
            if name in term_vars(sub):
                got = _match(sub, v, env, name, oracle)
            elif oracle.val(sub, env) != v:
                return _NONE
        return got
    return _NONE


def _definer(c, bound: set[str], oracle) -> Optional[tuple[str, Callable]]:
    """A conjunct that narrows one unbound variable, given bound ones, to
    the candidates returned by a function of the environment."""
    from setsolve.formulas import Constraint
    from setsolve.terms import Var, term_vars

    if not isinstance(c, Constraint) or c.q is not None:
        return None
    val = oracle.val
    if c.kind == "eq":
        for a, b in (c.args, c.args[::-1]):
            if isinstance(a, Var) and a.name not in bound and term_vars(b) <= bound:
                return a.name, lambda env, b=b: [val(b, env)]
    if c.kind == "in":
        t, s = c.args
        free = term_vars(t) - bound
        if len(free) == 1 and term_vars(s) <= bound:
            name = next(iter(free))

            def members(env, t=t, s=s, name=name):
                got = [_match(t, e, env, name, oracle) for e in val(s, env)]
                return [g for g in got if g is not _NONE]
            return name, members
    if c.kind == "applyTo":
        f, x, y = c.args
        if isinstance(y, Var) and y.name not in bound and \
                (term_vars(f) | term_vars(x)) <= bound:
            def image(env, f=f, x=x):
                xv = val(x, env)
                ys = {q for p, q in val(f, env) if p == xv}
                return list(ys) if len(ys) == 1 else []
            return y.name, image
    if c.kind == "foplus":
        f, x, v, g = c.args
        if isinstance(g, Var) and g.name not in bound and \
                (term_vars(f) | term_vars(x) | term_vars(v)) <= bound:
            def override(env, f=f, x=x, v=v):
                fv, xv = val(f, env), val(x, env)
                if len({q for p, q in fv if p == xv}) > 1:
                    return []
                return [frozenset(p for p in fv if p[0] != xv) | {(xv, val(v, env))}]
            return g.name, override
    return None


def _plan(f, bound: set[str], space: Space) -> list[tuple]:
    """Steps that bind every free variable of ``f``: narrowed where a
    conjunct determines candidates, else enumerated over its typed pool.
    Narrowing is complete: a value outside the candidates falsifies the
    defining conjunct, and ``f`` is a conjunction."""
    from setsolve.formulas import formula_vars

    bound = set(bound)
    free = formula_vars(f) - bound
    parts = _conjuncts(f)
    steps: list[tuple] = []
    while True:
        progress = True
        while progress:
            progress = False
            for c in parts:
                d = _definer(c, bound, space.oracle)
                if d is not None:
                    steps.append(d)
                    bound.add(d[0])
                    progress = True
        rest = free - bound
        if not rest:
            return steps
        order = sorted(rest, key=lambda v: (v not in space.state,
                                            v not in space.params_of, v))
        pool = space.pool(order[0])
        steps.append((order[0], lambda env, pool=pool: pool))
        bound.add(order[0])


def _search(steps: list[tuple], env: dict, accept: Callable[[dict], bool]) -> bool:
    def go(i: int) -> bool:
        if i == len(steps):
            return accept(env)
        name, candidates = steps[i]
        for value in candidates(env):
            env[name] = value
            if go(i + 1):
                return True
        env.pop(name, None)
        return False

    return go(0)


def counterexample_exists(po, space: Space, pinned: Optional[dict] = None) -> bool:
    """Is there a typed assignment satisfying the PO's hypotheses, every
    invariant it may assume, and its negated goal?  ``pinned`` fixes some
    variables (a reported counterexample); the rest are searched."""
    from setsolve.formulas import Or, conj, formula_vars

    holds = space.oracle.holds
    parts = _conjuncts(conj([po.fixed] + [f for _, f in po.pool]))
    env = dict(space.carriers)
    env.update(pinned or {})
    starts = [{}]
    if space.invariant_parts <= set(parts) and not (set(space.state) & set(env)):
        # Every invariant is assumed: states come from the precomputed set,
        # so the invariants need no re-evaluation.
        parts = [p for p in parts if p not in space.invariant_parts]
        starts = space.good_states
    outer = conj(parts)
    bound = set(env) | (set(space.state) if starts != [{}] else set())
    outer_steps = _plan(outer, bound, space)
    inner_bound = bound | formula_vars(outer) | {s[0] for s in outer_steps}
    # An existential over a disjunction is the disjunction of existentials.
    goals = po.neg_goal.parts if isinstance(po.neg_goal, Or) else (po.neg_goal,)
    inner = [(g, _plan(g, inner_bound, space)) for g in goals]

    def refutes(g, e: dict) -> bool:
        return holds(g, e) and (po.kind == "WD" or _defined(po.goal, e, space.oracle))

    def accept(e: dict) -> bool:
        if not holds(outer, e):
            return False
        return any(_search(steps, e, lambda e2, g=g: refutes(g, e2)) for g, steps in inner)

    for start in starts:
        e = dict(env)
        e.update(start)
        if _search(outer_steps, e, accept):
            return True
    return False


def _defined(f, env: dict, oracle) -> bool:
    """Every function application in a quantifier's let-part has exactly
    one image.  A goal is refuted only where it is well defined: the
    verifier, like Event-B, leaves the well-definedness of invariants to
    obligations of their own, and the package's ground evaluator rejects
    undefined images rather than reading them as false."""
    from setsolve.formulas import And, Constraint, Implies, Neg, Or
    from setsolve.terms import Pair, Var

    if isinstance(f, (And, Or)):
        return all(_defined(p, env, oracle) for p in f.parts)
    if isinstance(f, Neg):
        return _defined(f.body, env, oracle)
    if isinstance(f, Implies):
        return _defined(f.left, env, oracle) and _defined(f.right, env, oracle)
    if not (isinstance(f, Constraint) and f.q is not None):
        return True
    q = f.q
    for elem in oracle.val(q.domain, env):
        e = dict(env)
        if isinstance(q.binder, Var):
            e[q.binder.name] = elem
        elif isinstance(q.binder, Pair) and isinstance(elem, tuple):
            e[q.binder.first.name], e[q.binder.second.name] = elem
        if q.funcs is not None:
            for app in _conjuncts(q.funcs):
                if app.kind != "applyTo":
                    continue
                fn, x, out = app.args
                xv = oracle.val(x, e)
                images = {b for a, b in oracle.val(fn, e) if a == xv}
                if len(images) != 1:
                    return False
                e[out.name] = next(iter(images))
        if not _defined(q.body, e, oracle):
            return False
    return True


# --- items ---------------------------------------------------------------------

class MutantPO(Item):
    """Parse, typecheck and generate the POs of one mutant, then discharge
    one falsified PO: the work of ``setsolve verify --po``."""

    def __init__(self, mutant: Mutant, po_id: str, oracle, good_states: dict):
        self.mutant = mutant
        self.po_id = po_id
        self.key = f"{mutant.key}:{po_id}"
        self.oracle = oracle
        self.good_states = good_states

    def run(self) -> list[Outcome]:
        from setsolve import machines, verifier

        m = machines.parse_machine(self.mutant.text)
        errors = verifier.typecheck_machine(m)
        if errors:
            raise verifier.VerifyError("; ".join(errors))
        po = next(p for p in verifier.generate_pos(m) if p.po_id == self.po_id)
        r = verifier.discharge(po, hints=verifier._hints(m))
        return [Outcome(self.key, r.status, evidence=evidence(r.counterexample),
                        payload=(m, po, r))]

    def check(self, outs: list[Outcome]) -> list[Failure]:
        (out,) = outs
        if out.verdict == "Proved":
            return [Failure(self.key, "Proved, but the enumeration falsifies it", True)]
        if out.verdict != "Disproved":
            return []
        m, po, r = out.payload
        space = Space(m, self.oracle, self.good_states)
        failure = check_counterexample(self.key, m, po, r.counterexample, space)
        return [failure] if failure else []


def check_counterexample(key: str, m, po, cex, space: Space) -> Optional[Failure]:
    """The witness must fit the declared types and, by the oracle, satisfy
    the hypotheses, every invariant and the negated goal."""
    from setsolve.machines import machine_var_types
    from setsolve.printer import pp_term
    from setsolve.typecheck import inhabits

    oracle = space.oracle
    types = machine_var_types(m)
    for name, term in sorted(cex.items()):
        ty = types.get(name[:-1] if name.endswith("_") else name)
        if ty is not None and not inhabits(term, ty, space.env):
            return Failure(key, f"ill-typed witness {name} = {pp_term(term)}", False)
    try:
        env = {k: oracle.val(t, {}) for k, t in cex.items()}
        ok = counterexample_exists(po, space, env)
    except oracle.Undecidable as e:
        return Failure(key, f"oracle cannot evaluate the witness: {e}", False)
    if not ok:
        return Failure(key, "the oracle rejects the counterexample", False)
    return None


def build_items(corpus_texts: dict[str, str], seed: int, oracle) -> list[MutantPO]:
    """Items for one seed: each falsified PO of each non-equivalent mutant."""
    from setsolve import machines, verifier

    items: list[MutantPO] = []
    good_states: dict = {}
    for mu in generate_mutants(corpus_texts, seed):
        m = machines.parse_machine(mu.text)
        space = Space(m, oracle, good_states)
        for po in verifier.generate_pos(m):
            if counterexample_exists(po, space):
                items.append(MutantPO(mu, po.po_id, oracle, good_states))
    return items
