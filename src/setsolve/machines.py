"""State machine files (.smch): parsing and translation to constraints.

A machine file declares carrier sets, typed state variables, invariants,
an initialisation, and guarded events:

    machine gears
    context
      positionsdg = {front, right, left}
    end
    variables
      gear_ext_p : stype([positionsdg, bool])
    end
    invariants
      inv1: pfun(gear_ext_p) & dom(gear_ext_p, positionsdg)
    end
    init
      act1: gear_ext_p := cp(positionsdg, {true})
    end
    event make_GearExtended
      any po
      where
        grd1: po in positionsdg & gear_ext_p(po) = false
      then
        act1: gear_ext_p(po) := true
      end

Identifier case carries no meaning here; names are resolved by scope.  A name
denotes a state variable, event parameter, quantifier binder or carrier set
when one is in scope, and an atom otherwise.  Comments start with ``#``.

The constraint language is read by the grammar of ``parser.Parser``: its
lexer, types, terms, integer expressions, infix constraints and formula
connectives.  ``_MParser`` subclasses it with ``#`` comments, ``:=`` and
``:`` punctuation and a single word class, and overrides ``word`` (scope
resolution and application lifting), ``sub_term`` (nested applications and
parenthesised terms), ``mark``/``reset`` (which also undo lifted
applications), ``call`` (constraints only, with integer expressions in
the integer positions of their signatures, and no ``dec``, ``foplus`` or
predicate calls), ``binder`` (declared names) and ``quantified`` (lifted
applications become locals).  Block structure, scoping, folding,
well-definedness sites and actions are its own.

Guards and invariants use the constraint language, extended with function
application ``f(x)``.  Applications are not terms of the core language, so
they are compiled away: ``f(x)`` becomes a fresh variable ``m``, named
``m1``, ``m2``, ... but never a word of the file, constrained by
``applyTo(f, x, m)``.  Inside a quantifier the application constraints
move to the functional slot of the quantifier and the fresh variables become
its locals.  Every application produced this way is kept as a
well-definedness obligation.

Actions come in two forms.  ``x := e`` binds the next-state variable ``x_``
(plain ``x`` in the initialisation), and ``f(k) := v`` is functional
override, compiled to ``foplus(f, k, v, f_)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import (
    And, C, Constraint, Formula, Implies, KINDS, TrueF, binder_names, conj, disj,
)
from .parser import ParseError, Parser
from .terms import Atom, Pair, Term, Var, mkset
from .typecheck import TBasic, TEnum, TSet

_KEYWORDS = frozenset((
    "machine", "context", "variables", "invariants", "init",
    "event", "any", "where", "then", "end",
))

# Names that cannot be declared as variables, carriers or parameters.
_RESERVED = frozenset(KINDS) | _KEYWORDS | frozenset((
    "or", "implies", "neg", "true", "false", "cp", "int", "str",
    "etype", "stype", "div", "mod", "dec",
))


# --- surface structure -------------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    name: str
    members: Optional[tuple[str, ...]]  # None for an abstract carrier


@dataclass(frozen=True)
class MachineVar:
    name: str
    ty: Optional[object]  # a typecheck type, or None when undeclared


@dataclass(frozen=True)
class Invariant:
    label: str
    formula: Formula


@dataclass(frozen=True)
class WDOcc:
    """One function application occurrence, kept for well-definedness.

    ``apply`` is the generated applyTo constraint; its first two arguments
    (function and point) define the obligation.  ``binders`` is the chain of
    enclosing quantifier binders with their domains, outermost first, and
    ``pre`` collects the conjuncts of the same guard that were already
    established when the application was read.
    """
    apply: Constraint
    binders: tuple[tuple[Term, Term], ...]
    pre: Formula
    site: str


@dataclass(frozen=True)
class Guard:
    label: str
    formula: Formula
    wd: tuple[WDOcc, ...]


@dataclass(frozen=True)
class Action:
    label: str
    writes: str
    formula: Formula
    wd: tuple[WDOcc, ...]


@dataclass(frozen=True)
class Event:
    name: str
    params: tuple[str, ...]
    guards: tuple[Guard, ...]
    actions: tuple[Action, ...]

    def writes(self) -> tuple[str, ...]:
        return tuple(a.writes for a in self.actions)


@dataclass(frozen=True)
class Machine:
    name: str
    carriers: tuple[Carrier, ...]
    variables: tuple[MachineVar, ...]
    invariants: tuple[Invariant, ...]
    init: tuple[Action, ...]
    events: tuple[Event, ...]

    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def event(self, name: str) -> Event:
        for ev in self.events:
            if ev.name == name:
                return ev
        raise KeyError(name)

    def invariant(self, label: str) -> Invariant:
        for inv in self.invariants:
            if inv.label == label:
                return inv
        raise KeyError(label)


class MachineError(ParseError):
    pass


# --- parser ------------------------------------------------------------------

class _MParser(Parser):
    """The machine grammar: the shared core of :class:`Parser` with names
    resolved by scope and function applications lifted to ``applyTo``."""

    Error = MachineError
    COMMENT = "#"
    PUNCT2 = (":=", "=<", ">=")
    PUNCT1 = "()[]{},/=<>&:+-*"

    @staticmethod
    def word_kind(word: str) -> str:
        return "atom"

    def __init__(self, text: str):
        super().__init__(text)
        self.mvars: dict[str, Optional[object]] = {}
        self.carriers: dict[str, Optional[tuple[str, ...]]] = {}
        self.scopes: list[set[str]] = []          # event params, binders
        self.frames: list[list[tuple[Constraint, tuple]]] = []
        self.binders: list[tuple[Term, Term]] = []
        self.occs: list[WDOcc] = []
        self.site = ""
        self.lift_vars: set[str] = set()
        self.m_counter = 0
        self.words = set(self.toks)  # a lifted name is none of these
        self.in_init = False

    def name_tok(self, what: str) -> int:
        """Read a word; its index, for the errors it may cause."""
        k = self.i
        if not self.is_atom(self.toks[k]):
            raise self.err(f"expected {what}, found {self.toks[k]!r}")
        self.i += 1
        return k

    def declare(self, k: int, what: str) -> str:
        """The name that word ``k`` declares."""
        name = self.toks[k]
        if name in _RESERVED:
            raise self.err(f"{name!r} is reserved and cannot name a {what}", k)
        if name.endswith("_"):
            raise self.err("names ending in _ are reserved for next-state "
                           "variables", k)
        return name

    # scope

    def in_scope(self, name: str) -> bool:
        if name in self.mvars or name in self.carriers:
            return True
        for s in self.scopes:
            if name in s:
                return True
        return False

    def fresh_m(self) -> str:
        while True:
            self.m_counter += 1
            name = f"m{self.m_counter}"
            if name not in self.words:
                self.lift_vars.add(name)
                return name

    # --- machine structure ---------------------------------------------------

    def machine(self) -> Machine:
        self.expect("machine")
        name = self.declare(self.name_tok("a machine name"), "machine")
        carriers: list[Carrier] = []
        variables: list[MachineVar] = []
        invariants: list[Invariant] = []
        init: list[Action] = []
        events: list[Event] = []
        seen: set[str] = set()
        while t := self.toks[self.i]:
            if t in ("context", "variables", "invariants", "init"):
                if t in seen:
                    raise self.err(f"duplicate {t} block")
                seen.add(t)
            if self.at("context"):
                self.next()
                carriers.extend(self.context_block())
            elif self.at("variables"):
                self.next()
                variables.extend(self.variables_block())
            elif self.at("invariants"):
                if not variables:
                    raise self.err("invariants must follow the variables block")
                self.next()
                invariants.extend(self.invariants_block())
            elif self.at("init"):
                if not variables:
                    raise self.err("init must follow the variables block")
                self.next()
                init.extend(self.init_block())
            elif self.at("event"):
                if not variables:
                    raise self.err("events must follow the variables block")
                self.next()
                events.append(self.event_block({e.name for e in events}))
            else:
                raise self.err(f"unexpected {t!r} at machine level")
        # These are found at the end of the input, and reported there.
        if not variables:
            raise self.err("machine has no variables block")
        if not init:
            raise self.err("machine has no init block")
        assigned = {a.writes for a in init}
        missing = [v.name for v in variables if v.name not in assigned]
        if missing:
            raise self.err(f"init does not assign {', '.join(missing)}")
        return Machine(name, tuple(carriers), tuple(variables),
                       tuple(invariants), tuple(init), tuple(events))

    def context_block(self) -> list[Carrier]:
        out: list[Carrier] = []
        while not self.at("end"):
            k = self.name_tok("a carrier name")
            name = self.declare(k, "carrier")
            if name in self.carriers or name in self.mvars:
                raise self.err(f"duplicate name {name!r}", k)
            members: Optional[tuple[str, ...]] = None
            if self.at("="):
                self.next()
                self.expect("{")
                elems = self.comma_list(
                    lambda: self.declare(self.name_tok("a member"), "member"))
                self.expect("}")
                if len(elems) < 2:
                    raise self.err("a carrier needs at least two members", k)
                if len(set(elems)) != len(elems):
                    raise self.err("carrier members must be distinct", k)
                members = tuple(elems)
            self.carriers[name] = members
            out.append(Carrier(name, members))
        self.expect("end")
        return out

    def variables_block(self) -> list[MachineVar]:
        out: list[MachineVar] = []
        while not self.at("end"):
            k = self.name_tok("a variable name")
            name = self.declare(k, "variable")
            if name in self.mvars or name in self.carriers:
                raise self.err(f"duplicate name {name!r}", k)
            ty = None
            if self.at(":"):
                self.next()
                ty = self.type_expr()
            self.mvars[name] = ty
            out.append(MachineVar(name, ty))
        self.expect("end")
        return out

    def invariants_block(self) -> list[Invariant]:
        out: list[Invariant] = []
        labels: set[str] = set()
        while not self.at("end"):
            label = self.label(labels)
            f, _ = self.body(label)
            out.append(Invariant(label, f))
        self.expect("end")
        return out

    def init_block(self) -> list[Action]:
        out: list[Action] = []
        labels: set[str] = set()
        self.in_init = True
        try:
            while not self.at("end"):
                label = self.label(labels)
                k = self.i
                a = self.action(label, primed=False)
                if any(b.writes == a.writes for b in out):
                    raise self.err(f"init assigns {a.writes} twice", k)
                out.append(a)
        finally:
            self.in_init = False
        self.expect("end")
        return out

    def event_block(self, taken: set[str]) -> Event:
        k = self.name_tok("an event name")
        name = self.declare(k, "event")
        if name in taken:
            raise self.err(f"duplicate event {name!r}", k)
        params: list[str] = []
        if self.at("any"):
            self.next()

            def param() -> None:
                k = self.name_tok("a parameter name")
                pname = self.declare(k, "parameter")
                if self.in_scope(pname) or pname in params:
                    raise self.err(f"parameter {pname!r} shadows another name", k)
                params.append(pname)

            self.comma_list(param)
        self.scopes.append(set(params))
        guards: list[Guard] = []
        actions: list[Action] = []
        labels: set[str] = set()
        try:
            if self.at("where"):
                self.next()
                while not self.at("then") and not self.at("end"):
                    label = self.label(labels)
                    f, wd = self.body(label)
                    guards.append(Guard(label, f, wd))
            if self.at("then"):
                self.next()
                while not self.at("end"):
                    label = self.label(labels)
                    k = self.i
                    a = self.action(label, primed=True)
                    if any(b.writes == a.writes for b in actions):
                        raise self.err(f"event {name} assigns {a.writes} twice", k)
                    actions.append(a)
        finally:
            self.scopes.pop()
        self.expect("end")
        return Event(name, tuple(params), tuple(guards), tuple(actions))

    def label(self, taken: set[str]) -> str:
        k = self.name_tok("a label")
        label = self.toks[k]
        if label in taken:
            raise self.err(f"duplicate label {label!r}", k)
        if label in _KEYWORDS:
            raise self.err(f"{label!r} cannot be a label", k)
        taken.add(label)
        self.expect(":")
        return label

    # --- guard and invariant bodies --------------------------------------------

    def body(self, site: str) -> tuple[Formula, tuple[WDOcc, ...]]:
        """Parse one labelled formula, draining lifted applications.

        The top level of the body is treated as a conjunction; application
        constraints generated while reading conjunct k are inserted before it
        and remember conjuncts 1..k-1 as their established context.
        """
        self.site = site
        self.frames.append([])
        self.occs = []
        items: list[Formula] = []
        parts: list[Formula] = []
        lifted: list[Formula] = []
        while True:
            f = self.prim_formula()
            drained = self.drain()
            if drained:
                pre = conj(list(items)) if items else TrueF()
            for (c, chain) in drained:
                self.occs.append(WDOcc(c, chain, pre, site))
                items.append(c)
                lifted.append(c)
            parts.append(f)
            items.append(f)
            if self.at("&"):
                self.next()
                continue
            break
        if self.at("or") or self.at("implies"):
            # The body is not a plain conjunction after all.  Applications
            # stay hoisted in front; the structure is rebuilt from the parts.
            left: Formula = conj(parts)
            while self.at("or"):
                self.next()
                g = self.and_formula()
                for (c, chain) in self.drain():
                    self.occs.append(WDOcc(c, chain, TrueF(), site))
                    lifted.append(c)
                left = disj([left, g])
            if self.at("implies"):
                self.next()
                rhs = self.formula()
                for (c, chain) in self.drain():
                    self.occs.append(WDOcc(c, chain, TrueF(), site))
                    lifted.append(c)
                left = Implies(left, rhs)
            final = conj(lifted + [left])
        else:
            final = conj(items)
        self.frames.pop()
        final = self.fold(final)
        return final, tuple(self.occs)

    def drain(self) -> list[tuple[Constraint, tuple]]:
        got = list(self.frames[-1])
        self.frames[-1].clear()
        return got

    def fold(self, f: Formula) -> Formula:
        """Merge ``applyTo(f, x, m) & m = t`` into ``applyTo(f, x, t)``.

        m is a lifted variable and both are immediate conjuncts.  Each
        application lifts its own m, under a name the text never writes, so
        m occurs only in its applyTo and where the application stood: here,
        the equality.  So m occurs exactly twice, and the equality can go.
        A fold only removes equalities, so one pass finds every match.
        """
        if not isinstance(f, And):
            return f
        items = list(f.parts)
        folded: set[int] = set()
        for i, g in enumerate(items):
            if not (isinstance(g, Constraint) and g.kind == "applyTo"):
                continue
            out = g.args[2]
            if not (isinstance(out, Var) and out.name in self.lift_vars):
                continue
            for j, h in enumerate(items):
                if j in folded or not (isinstance(h, Constraint) and h.kind == "eq"
                                       and out in h.args):
                    continue
                a, b = h.args
                items[i] = Constraint("applyTo", (g.args[0], g.args[1], b if a == out else a))
                folded.add(j)
                break
        return conj(g for j, g in enumerate(items) if j not in folded)

    # --- hooks of the shared grammar --------------------------------------------

    def mark(self):
        # Backtracking must also discard any applications lifted while
        # trying the formula reading.
        return (self.i, len(self.frames[-1]), len(self.occs), self.m_counter,
                set(self.lift_vars))

    def reset(self, mark) -> None:
        self.i, frame, occs, self.m_counter, self.lift_vars = mark
        del self.frames[-1][frame:]
        del self.occs[occs:]

    def call(self, t: str) -> Formula:
        k = self.i
        if t in KINDS and not self.in_scope(t) and self.toks[k + 1] == "(":
            if t in ("dec", "foplus"):
                raise self.err(f"{t} cannot be used in a machine formula")
            self.next()
            self.expect("(")
            args = self.comma_list(self.aexpr)
            self.expect(")")
            return self.constraint(t, args, k)
        return self.infix_constraint()

    def binder(self) -> Term:
        """A declared name, or a pair of two, that shadows no name in scope."""
        pair = self.at("[")
        if pair:
            self.next()
            ks = [self.name_tok("a binder")]
            self.expect(",")
            ks.append(self.name_tok("a binder"))
            self.expect("]")
        else:
            ks = [self.name_tok("a binder")]
        names: list[str] = []
        for k in ks:
            nm = self.declare(k, "binder")
            if self.in_scope(nm) or nm in names:
                raise self.err(f"binder {nm!r} shadows another name", k)
            names.append(nm)
        return Pair(Var(names[0]), Var(names[1])) if pair else Var(names[0])

    def quantified(self, binder: Term, dom: Term):
        """The body, with the binder in scope; the applications lifted in it
        become the locals and the let-part."""
        self.scopes.append(set(binder_names(binder)))
        self.frames.append([])
        self.binders.append((binder, dom))
        try:
            body = self.formula()
        finally:
            frame = self.frames.pop()
            self.scopes.pop()
            self.binders.pop()
        for c, chain in frame:
            self.occs.append(WDOcc(c, chain, TrueF(), self.site))
        lifted = [c for c, _ in frame]
        return tuple(c.args[2].name for c in lifted), body, conj(lifted) if lifted else None

    def word(self, t: str) -> Term:
        """The name in scope, or an atom; a name in scope before ``(`` is
        applied."""
        k = self.i - 1
        if t.endswith("_"):
            raise self.err("names ending in _ are reserved for next-state "
                           "variables", k)
        if not self.in_scope(t):
            if self.toks[self.i] == "(":
                raise self.err(f"{t!r} is not a function or constraint", k)
            return Atom(t)
        if self.toks[self.i] == "(":
            return self.application(Var(t), k)
        return Var(t)

    def sub_term(self) -> Term:
        """A term that may itself hold applications, in parentheses or not."""
        e = self.aexpr()
        if not isinstance(e, Term):
            raise self.err("expected a term, found an integer expression")
        return e

    def application(self, fvar: Var, k: int) -> Var:
        """``fvar(x)`` lifted to a fresh variable; an error is reported at
        token ``k``, the function's name."""
        if self.in_init:
            raise self.err("the initialisation cannot read state through "
                           "function application", k)
        self.expect("(")
        arg = self.sub_term()
        if self.at(","):
            raise self.err("function application takes one argument; "
                           "apply to a pair instead", k)
        self.expect(")")
        m = Var(self.fresh_m())
        c = C("applyTo", fvar, arg, m)
        self.frames[-1].append((c, tuple(self.binders)))
        return m

    # --- actions --------------------------------------------------------------

    def action(self, label: str, primed: bool) -> Action:
        self.site = label
        self.frames.append([])
        self.occs = []
        k = self.name_tok("an assignment target")
        target = self.toks[k]
        if target not in self.mvars:
            raise self.err(f"{target!r} is not a state variable", k)
        nxt = Var(target + "_") if primed else Var(target)
        lifted: list[Formula] = []

        def drain_all() -> None:
            for (c, chain) in self.drain():
                self.occs.append(WDOcc(c, chain, conj(list(lifted)) if lifted
                                       else TrueF(), label))
                lifted.append(c)

        if self.at("("):
            if not primed:
                raise self.err("the initialisation cannot use functional override")
            self.next()
            key_e = self.aexpr()
            self.expect(")")
            self.expect(":=")
            val_e = self.aexpr()
            drain_all()
            key = self.lowered(key_e, lifted)
            val = self.lowered(val_e, lifted)
            core: Formula = C("foplus", Var(target), key, val, nxt)
        else:
            self.expect(":=")
            e = self.aexpr()
            drain_all()
            if isinstance(e, Term):
                core = C("eq", nxt, e)
            else:
                core = Constraint("is", (nxt, e))
        self.frames.pop()
        f = self.fold(conj(lifted + [core]))
        return Action(label, target, f, tuple(self.occs))

    def lowered(self, e, lifted: list[Formula]) -> Term:
        """Name an integer expression so it can sit in a term position."""
        if isinstance(e, Term):
            return e
        m = Var(self.fresh_m())
        lifted.append(Constraint("is", (m, e)))
        return m


def parse_machine(text: str) -> Machine:
    return _MParser(text).machine()


# --- formula assembly ---------------------------------------------------------

def prime(f: Formula, names: set[str]) -> Formula:
    """Replace each state variable in ``names`` by its next-state variable."""
    from .formulas import subst_formula
    from .terms import VarGen

    sub = {n: Var(n + "_") for n in names}
    return subst_formula(sub, f, VarGen())


def init_formula(m: Machine) -> Formula:
    return conj([a.formula for a in m.init])


def guards_formula(ev: Event) -> Formula:
    return conj([g.formula for g in ev.guards])


def event_formula(m: Machine, ev: Event, frames: bool = False) -> Formula:
    """Guards and actions of one event; with ``frames``, unchanged variables
    are pinned to their old values (needed to compute successor states)."""
    parts: list[Formula] = [g.formula for g in ev.guards]
    parts += [a.formula for a in ev.actions]
    if frames:
        written = set(ev.writes())
        for v in m.var_names():
            if v not in written:
                parts.append(C("eq", Var(v + "_"), Var(v)))
    return conj(parts)


def carrier_equalities(m: Machine) -> Formula:
    """Pin every enumerated carrier to its member set."""
    parts: list[Formula] = []
    for c in m.carriers:
        if c.members is not None:
            parts.append(C("eq", Var(c.name), mkset([Atom(x) for x in c.members])))
    return conj(parts)


def carrier_synonyms(carriers: tuple[Carrier, ...]) -> dict[str, object]:
    """Type synonyms contributed by enumerated carriers."""
    return {c.name: TEnum(c.members) for c in carriers if c.members is not None}


def machine_synonyms(m: Machine) -> dict[str, object]:
    """Type synonyms contributed by the machine's enumerated carriers."""
    return carrier_synonyms(m.carriers)


def machine_var_types(m: Machine) -> dict[str, object]:
    """Declared types for state variables and carrier sets."""
    out: dict[str, object] = {}
    for c in m.carriers:
        out[c.name] = TSet(TBasic(c.name))
    for v in m.variables:
        if v.ty is not None:
            out[v.name] = v.ty
    return out
