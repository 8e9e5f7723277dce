"""The ``queries`` workload: seeded ``.slog`` formulas and programs.

Each pass runs a fixed mix of query shapes.  The seed draws the variable
names, permutes the set constants, shifts the integer constants and orders
the pass; the shapes, and which occurrence of a broken lemma is misspelled,
are fixed, so the work of a pass is nearly the same for every seed.  Shapes
and their known answers:

  lemma        a set-algebra, relational or arithmetic lemma posed as
               ``neg(A implies B)``: Unsat
  broken       the same lemma with one variable of the conclusion
               misspelled: Sat
  sets         ``un``/``disj``/``subset``/``in``/``nin`` conjunctions built
               around a chosen model (Sat) or with a contradiction (Unsat)
  relations    ``comp``/``dom``/``ran``/``pfun``/``applyTo`` over small
               relations, Sat or Unsat by construction
  arith        ``int(lo, hi)`` membership with ``is``/``<``/``>``, Sat or Unsat
  interval     an interval with a variable bound, ``S = int(L, N)``: Sat
  program      clauses and one query (``parse_program``, ``check_program``,
               ``expand_calls``), Sat or Unsat

Checks run outside the timed region: a Sat answer must ground
(``ground_complete``) to an assignment ``tests/oracle.py`` accepts; an Unsat
answer must survive a bounded ``oracle.search_model`` over the pools below.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

from common import Failure, Item, Outcome, evidence

NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "K", "L", "M", "P", "Q",
         "R", "S", "T", "U", "V", "W", "Z")

# Lemmas: text with $-placeholders and each placeholder's sort.
LEMMAS = (
    ("neg(un($A, $B, $C) implies un($B, $A, $C))", "A:set B:set C:set"),
    ("neg(un($A, $B, $C) & un($B, $A, $D) implies $C = $D)", "A:set B:set C:set D:set"),
    ("neg(subset($A, $B) & subset($B, $C) implies subset($A, $C))", "A:set B:set C:set"),
    ("neg(un($A, $B, $C) implies subset($A, $C))", "A:set B:set C:set"),
    ("neg(disj($A, $B) & subset($C, $A) implies disj($C, $B))", "A:set B:set C:set"),
    ("neg($X in $A & subset($A, $B) implies $X in $B)", "X:elem A:set B:set"),
    ("neg(subset($A, $B) & subset($B, $A) implies $A = $B)", "A:set B:set"),
    ("neg(un($A, $A, $B) implies $A = $B)", "A:set B:set"),
    ("neg(pfun($F) & [$X, $Y] in $F & [$X, $Z] in $F implies $Y = $Z)",
     "F:rel X:elem Y:elem Z:elem"),
    ("neg(dom($F, $D) & [$X, $Y] in $F implies $X in $D)", "F:rel D:set X:elem Y:elem"),
    ("neg(ran($F, $D) & [$X, $Y] in $F implies $Y in $D)", "F:rel D:set X:elem Y:elem"),
    ("neg(comp($R, $S, $T) & dom($T, $D) & dom($R, $E) implies subset($D, $E))",
     "R:rel S:rel T:rel D:set E:set"),
    ("neg(applyTo($F, $X, $Y) implies [$X, $Y] in $F)", "F:rel X:elem Y:elem"),
    ("neg(inv($R, $S) & dom($R, $D) implies ran($S, $D))", "R:rel S:rel D:set"),
    ("neg($X in int(1, 3) implies 1 =< $X)", "X:int"),
    ("neg($X is $Y + 1 & $Y > 2 implies $X > 3)", "X:int Y:int"),
)

PROGRAM = """\
:- dec_p_type(add(stype(int), int, stype(int))).
add(S, X, T) :- un(S, {X}, T).
:- dec_p_type(both(stype(int), stype(int), int)).
both(S, T, X) :- X in S & X in T.
"""

# Shapes per pass: each lemma twice valid and twice broken, the rest by quota.
QUOTAS = (("sets", 20), ("relations", 24), ("arith", 20), ("interval", 8),
          ("program", 20))


def _subsets(xs) -> list[frozenset]:
    xs = list(xs)
    return [frozenset(c) for c in
            chain.from_iterable(combinations(xs, n) for n in range(len(xs) + 1))]


# Bounded pools for the Unsat check, by sort.
POOLS = {
    "set": _subsets((1, 2)),
    "set3": _subsets((1, 2, 3)),
    "set0123": _subsets((0, 1, 2, 3)),
    "elem": [1, 2, 3],
    "rel": _subsets(((1, 1), (1, 2), (2, 1))),
    "rel6": _subsets(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))),
    "int": list(range(-1, 12)),
}


@dataclass(frozen=True)
class Query:
    key: str
    shape: str
    text: str
    program: bool
    expected: str                       # Sat | Unsat
    sorts: tuple[tuple[str, str], ...]  # free variable -> pool name


def _fmt(s: set) -> str:
    return "{" + ", ".join(str(x) for x in sorted(s)) + "}"


def _names(rng: random.Random, k: int) -> list[str]:
    """k distinct variable names in sorted order.  The solver breaks some
    ties by variable name, so keeping the order of names fixed keeps the
    work of a query the same for every seed."""
    return sorted(rng.sample(NAMES, k))


def _lemma(rng: random.Random, i: int, broken: bool) -> Query:
    text, sorts = LEMMAS[i % len(LEMMAS)]
    sort = dict(s.split(":") for s in sorts.split())
    names = dict(zip(sorted(sort), _names(rng, len(sort))))
    sorts_out = {names[p]: sort[p] for p in sort}
    if broken:
        # Each lemma is broken twice per pass, at two different occurrences.
        head, tail = text.split(" implies ")
        occ = list(re.finditer(r"\$([A-Z])", tail))
        pick = occ[i // len(LEMMAS) % len(occ)]
        fresh = names[pick.group(1)] * 2
        tail = tail[:pick.start()] + fresh + tail[pick.end():]
        sorts_out[fresh] = sort[pick.group(1)]
        text = head + " implies " + tail
    text = re.sub(r"\$([A-Z])", lambda m: names[m.group(1)], text)
    return Query("", "broken" if broken else "lemma", text, False,
                 "Sat" if broken else "Unsat", tuple(sorted(sorts_out.items())))


# (members of A, members of B, a constant) around which a set query is
# built; the seed permutes the values 1..3.
SET_MODELS = (({1}, {2}, 1), ({1, 2}, {2, 3}, 3), ({1, 3}, {2}, 2),
              ({2}, {1, 2, 3}, 1), ({1, 2, 3}, {3}, 2))
# Images of 1 and 2 for the relation queries.
IMAGES = ({1: 2, 2: 3}, {1: 1, 2: 1}, {1: 3, 2: 2})


def _sets(rng: random.Random, i: int) -> Query:
    a, b, c = _names(rng, 3)
    pi = dict(zip((1, 2, 3), rng.sample((1, 2, 3), 3)))
    ma, mb, k = SET_MODELS[i // 2 % len(SET_MODELS)]
    ma, mb, k = {pi[x] for x in ma}, {pi[x] for x in mb}, pi[k]
    parts = [f"un({a}, {b}, {c})", f"subset({a}, {_fmt(ma | {k})})",
             f"{k} {'in' if k in ma | mb else 'nin'} {c}",
             f"disj({b}, {_fmt({1, 2, 3} - mb)})" if mb != {1, 2, 3}
             else f"subset({b}, {_fmt(mb)})"]
    sat = i % 2 == 0
    if not sat:
        parts += [(f"{k} in {a} & {k} nin {c}",
                   f"disj({a}, {b}) & {k} in {a} & {k} in {b}",
                   f"subset({a}, {b}) & {k} in {a} & {k} nin {b}")[i // 2 % 3]]
    return Query("", "sets", " & ".join(parts), False, "Sat" if sat else "Unsat",
                 tuple(sorted({a: "set3", b: "set3", c: "set3"}.items())))


def _relations(rng: random.Random, i: int) -> Query:
    f, x, y = _names(rng, 3)
    shape = i % 8
    img = IMAGES[i // 8 % len(IMAGES)]
    fun = "{" + ", ".join(f"[{d}, {r}]" for d, r in sorted(img.items())) + "}"
    k = 1 + i // 8 % 2
    other = min({1, 2, 3} - {img[k]})
    shapes = (
        (f"pfun({f}) & dom({f}, {{1, 2}}) & applyTo({f}, {k}, {y}) & "
         f"ran({f}, {_fmt(set(img.values()))})", "Sat", {f: "rel6", y: "elem"}),
        (f"comp({f}, {{[1, 1], [2, 1]}}, {y}) & {f} = {fun}", "Sat",
         {f: "rel6", y: "rel6"}),
        (f"applyTo({fun}, {k}, {y}) & {y} = {img[k]}", "Sat", {y: "elem"}),
        (f"dom({f}, {x}) & ran({f}, {y}) & {f} = {fun}", "Sat",
         {f: "rel6", x: "set3", y: "set3"}),
        (f"pfun({f}) & [{k}, {img[k]}] in {f} & [{k}, {other}] in {f}", "Unsat",
         {f: "rel6"}),
        (f"applyTo({fun}, 3, {y})", "Unsat", {y: "elem"}),
        (f"dom({f}, {{{k}}}) & [{3 - k}, {img[k]}] in {f}", "Unsat", {f: "rel6"}),
        (f"comp({fun}, {{[{img[k]}, 3]}}, {y}) & [{k}, 3] nin {y}", "Unsat",
         {y: "rel6"}),
    )
    text, expected, sorts = shapes[shape]
    return Query("", "relations", text, False, expected, tuple(sorted(sorts.items())))


def _arith(rng: random.Random, i: int) -> Query:
    """The seed shifts every constant by the same amount."""
    x, y = _names(rng, 2)
    lo = rng.randrange(0, 3)
    hi = lo + 1 + i // 4 % 3
    k = 1 + i // 4 % 3
    sat = i % 2 == 0
    if i // 2 % 2 == 0:
        c = hi + k - 1 if sat else hi + k
        text = f"{x} in int({lo}, {hi}) & {y} is {x} + {k} & {y} > {c}"
    else:
        c = lo + hi if sat else 2 * hi + 1
        text = f"{x} in int({lo}, {hi}) & {y} in int({lo}, {hi}) & {x} < {y} & {x} + {y} >= {c}"
    return Query("", "arith", text, False, "Sat" if sat else "Unsat",
                 tuple(sorted({x: "int", y: "int"}.items())))


def _interval(rng: random.Random, i: int) -> Query:
    n, s = _names(rng, 2)
    lo = rng.randrange(0, 2)
    text = f"{s} = int({lo}, {n}) & {n} > {lo + rng.randrange(0, 2)}"
    return Query("", "interval", text, False, "Sat",
                 tuple(sorted({s: "set0123", n: "int"}.items())))


def _program(rng: random.Random, i: int) -> Query:
    s, t, x = _names(rng, 3)
    a, b, k = rng.sample((1, 2, 3), 3)
    shapes = (
        (f"add({{{a}, {b}}}, {k}, {t}) & both({t}, {{{k}, 6}}, {x})", "Sat",
         {t: "set3", x: "elem"}),
        (f"add({{{a}, {b}}}, {k}, {t}) & both({t}, {{6, 7}}, {x})", "Unsat",
         {t: "set3", x: "elem"}),
        (f"neg(add({s}, {x}, {t}) implies {x} in {t})", "Unsat",
         {s: "set", t: "set", x: "elem"}),
        (f"neg(add({s}, {x}, {t}) implies subset({t}, {s}))", "Sat",
         {s: "set", t: "set", x: "elem"}),
    )
    text, expected, sorts = shapes[i % len(shapes)]
    return Query("", "program", PROGRAM + f"?- {text}.\n", True, expected,
                 tuple(sorted(sorts.items())))


_MAKERS = {"sets": _sets, "relations": _relations, "arith": _arith,
           "interval": _interval, "program": _program}


def generate_queries(seed: int) -> list[Query]:
    rng = random.Random(f"queries:{seed}")
    out: list[Query] = []
    for i in range(2 * len(LEMMAS)):
        out.append(_lemma(rng, i, broken=False))
        out.append(_lemma(rng, i, broken=True))
    for shape, n in QUOTAS:
        out += [_MAKERS[shape](rng, i) for i in range(n)]
    rng.shuffle(out)
    return [Query(f"q{i:03d}/{q.shape}", q.shape, q.text, q.program, q.expected, q.sorts)
            for i, q in enumerate(out)]


class QueryItem(Item):
    """Parse (and for programs typecheck) the query, solve it, and ground
    the first answer into a model: what a user needs to act on an answer."""

    def __init__(self, query: Query, oracle):
        self.query = query
        self.key = query.key
        self.oracle = oracle

    def run(self) -> list[Outcome]:
        from setsolve import parser, typecheck

        program = None
        if self.query.program:
            program = parser.parse_program(self.query.text)
            errors = typecheck.check_program(program)
            if errors:
                raise ValueError("; ".join(str(e) for e in errors))
            formula = program.queries[0]
        else:
            formula = parser.parse_formula(self.query.text)
        verdict, model = solve_and_ground(formula, program)
        return [Outcome(self.key, verdict, evidence=evidence(model),
                        payload=(formula, program, model))]

    def check(self, outs: list[Outcome]) -> list[Failure]:
        (out,) = outs
        failure = self._check(out)
        return [failure] if failure else []

    def _check(self, out: Outcome) -> Optional[Failure]:
        if out.verdict not in ("Sat", "Unsat"):
            return None
        formula, program, model = out.payload
        f = _expanded(formula, program)
        if out.verdict == "Sat":
            try:
                ok = self.oracle.holds(f, model)
            except self.oracle.Undecidable as e:
                return Failure(self.key, f"oracle cannot evaluate the model: {e}",
                               self.query.expected == "Unsat")
            if not ok:
                return Failure(self.key, "the oracle rejects the model",
                               self.query.expected == "Unsat")
            return None
        found = bounded_model(self.query, f, self.oracle)
        if found is not None:
            return Failure(self.key, f"Unsat, but {found} is a model", True)
        return None


def solve_and_ground(formula, program):
    """Verdict and grounded model of one query.  An answer that cannot be
    grounded is not a certified Sat: it counts as Unknown."""
    from setsolve import engine

    res = engine.solve(formula, program=program)
    if res.unsat:
        return "Unsat", None
    if res.solutions:
        model = engine.ground_complete(res.solutions[0])
        return ("Sat" if model is not None else "Unknown"), model
    return "Unknown", None


def _expanded(formula, program):
    """The query with predicate calls inlined, for the oracle."""
    if program is None:
        return formula
    from setsolve.formulas import expand_calls
    from setsolve.terms import VarGen

    return expand_calls(formula, program, VarGen())


def bounded_model(query: Query, formula, oracle) -> Optional[dict]:
    names = [n for n, _ in query.sorts]
    return oracle.search_model(formula, names, [POOLS[s] for _, s in query.sorts])


def build_items(seed: int, oracle) -> list[QueryItem]:
    return [QueryItem(q, oracle) for q in generate_queries(seed)]
