"""Constraint and formula AST shared by the solver, parsers and verifier."""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import arith
from .terms import EMPTY, IllSorted, Pair, Term, Var, VarGen, subst_term, term_vars

# Constraint signatures, one sort per argument: a lower-case letter is a
# schema variable, ("S", x) a set of x, ("P", x, y) a pair and INT an integer.
# The typechecker instantiates them; the parser, the rewrite rules and the
# store read their set and integer positions from them.  Every ``nX`` is the
# exact complement of ``X`` (``COMPLEMENT`` pairs them).
# ``npair`` is internal: it is emitted by negative rewrite rules and never
# appears in surface syntax.
INT = 0


def _signatures() -> dict[str, tuple]:
    a, b, c = "a", "b", "c"
    S, P = lambda x: ("S", x), lambda x, y: ("P", x, y)
    sets3 = (S(a), S(a), S(a))
    rel = S(P(a, b))
    return {
        "eq": (a, a), "neq": (a, a),
        "in": (a, S(a)), "nin": (a, S(a)),
        "un": sets3, "nun": sets3,
        "disj": (S(a), S(a)), "ndisj": (S(a), S(a)),
        "subset": (S(a), S(a)), "nsubset": (S(a), S(a)),
        "comp": (S(P(a, b)), S(P(b, c)), S(P(a, c))),
        "ncomp": (S(P(a, b)), S(P(b, c)), S(P(a, c))),
        "inv": (rel, S(P(b, a))), "ninv": (rel, S(P(b, a))),
        "id": (S(a), S(P(a, a))), "nid": (S(a), S(P(a, a))),
        "pfun": (rel,), "npfun": (rel,),
        "dom": (rel, S(a)), "ndom": (rel, S(a)),
        "ran": (rel, S(b)), "nran": (rel, S(b)),
        "applyTo": (rel, a, b),
        "foplus": (rel, a, b, rel),
        "le": (INT, INT), "lt": (INT, INT), "is": (INT, INT),
        "npair": (a,),
    }


SIG = _signatures()
# The argument positions of each kind that hold a set, and those that hold
# an integer.
SET_POS = {k: tuple(i for i, s in enumerate(sig) if isinstance(s, tuple) and s[0] == "S")
           for k, sig in SIG.items()}
INT_POS = {k: tuple(i for i, s in enumerate(sig) if s == INT) for k, sig in SIG.items()}
_NEGATED = {"n" + k: k for k in SIG if "n" + k in SIG}
COMPLEMENT = _NEGATED | {k: nk for nk, k in _NEGATED.items()}
# The kinds that are total functions of their inputs: the output is the last
# argument.  ``un``'s two inputs commute.
FUNCTIONAL = ("un", "comp", "dom", "ran", "inv", "id")
# ``dec(X, type)`` is a typing directive; its second argument is a type.
ARITY = {k: len(sig) for k, sig in SIG.items()} | {"dec": 2}
KINDS = frozenset(ARITY) | {"foreach", "exists"}


class Formula:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class TrueF(Formula):
    pass


@dataclass(slots=True, unsafe_hash=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(slots=True, unsafe_hash=True)
class QPayload:
    """Quantifier payload: binder pattern, domain, locals, body, let-part.

    ``binder`` is a Var or a Pair of Vars.  ``locals`` are instantiated fresh
    at every expansion step.  ``funcs`` holds the functional predicates of the
    four-argument form (the "let" conjuncts); None for the two-argument form.
    """

    binder: Term
    domain: Term
    locals: tuple[str, ...]
    body: Formula
    funcs: Optional[Formula] = None


@dataclass(slots=True, unsafe_hash=True)
class Constraint(Formula):
    kind: str
    args: tuple = ()
    q: Optional[QPayload] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown constraint kind: {self.kind}")
        if self.kind in ("foreach", "exists"):
            if self.q is None:
                raise ValueError(f"{self.kind} needs a quantifier payload")
        elif len(self.args) != ARITY[self.kind]:
            raise ValueError(f"{self.kind} expects {ARITY[self.kind]} args")


@dataclass(slots=True, unsafe_hash=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(slots=True, unsafe_hash=True)
class Or(Formula):
    parts: tuple[Formula, ...]
    # A queue item: ``rules.rewrite`` decides it like a constraint.
    kind = "or"
    args = ()
    q = None


@dataclass(slots=True, unsafe_hash=True)
class Neg(Formula):
    body: Formula


@dataclass(slots=True, unsafe_hash=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(slots=True, unsafe_hash=True)
class PredCall(Formula):
    """Call to a user-defined predicate; expanded by inlining its clause."""

    name: str
    args: tuple[Term, ...]


@dataclass(slots=True, unsafe_hash=True)
class Clause:
    name: str
    params: tuple[str, ...]
    body: Formula


@dataclass(slots=True, unsafe_hash=True)
class Program:
    """Clause database plus the typing directives collected from a file."""

    clauses: dict[tuple[str, int], Clause] = field(default_factory=dict)
    pred_types: dict[tuple[str, int], tuple] = field(default_factory=dict)
    type_defs: dict[str, object] = field(default_factory=dict)
    queries: tuple[Formula, ...] = ()

    def lookup(self, name: str, arity: int) -> Optional[Clause]:
        return self.clauses.get((name, arity))


def conj(parts: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, TrueF):
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of ``f`` under nested ``And``, in order, without ``true``."""
    if isinstance(f, And):
        return [c for p in f.parts for c in conjuncts(p)]
    return [] if isinstance(f, TrueF) else [f]


def disj(parts: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseF):
            continue
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def C(kind: str, *args, q: Optional[QPayload] = None) -> Constraint:
    return Constraint(kind, tuple(args), q=q)


def binder_names(binder: Term) -> tuple[str, ...]:
    if isinstance(binder, Var):
        return (binder.name,)
    if isinstance(binder, Pair) and isinstance(binder.first, Var) and isinstance(binder.second, Var):
        return (binder.first.name, binder.second.name)
    raise ValueError(f"invalid quantifier binder: {binder!r}")


def formula_vars(f: Formula) -> set[str]:
    """Free variables of a formula (quantifier binders and locals removed)."""
    if isinstance(f, Constraint):
        if f.q is not None:
            out = term_vars(f.q.domain)
            bound = set(binder_names(f.q.binder)) | set(f.q.locals)
            inner = formula_vars(f.q.body)
            if f.q.funcs is not None:
                inner |= formula_vars(f.q.funcs)
            out |= inner - bound
            return out
        out = set()
        for a in f.args:
            out |= arg_vars(a)
        return out
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= formula_vars(p)
        return out
    if isinstance(f, Neg):
        return formula_vars(f.body)
    if isinstance(f, Implies):
        return formula_vars(f.left) | formula_vars(f.right)
    if isinstance(f, PredCall):
        out = set()
        for a in f.args:
            out |= term_vars(a)
        return out
    return set()


def all_var_names(f: Formula) -> set[str]:
    """Every variable name occurring anywhere, bound or free."""
    out: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Constraint):
            for a in g.args:
                out.update(arg_vars(a))
            if g.q is not None:
                out.update(term_vars(g.q.binder))
                out.update(term_vars(g.q.domain))
                out.update(g.q.locals)
                walk(g.q.body)
                if g.q.funcs is not None:
                    walk(g.q.funcs)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Neg):
            walk(g.body)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, PredCall):
            for a in g.args:
                out.update(arg_vars(a))

    walk(f)
    return out


def arg_vars(a) -> set[str]:
    """Variables of a constraint argument: a term or an integer expression."""
    if isinstance(a, Term):
        return term_vars(a)
    if isinstance(a, arith.ABin):
        return arg_vars(a.left) | arg_vars(a.right)
    if isinstance(a, arith.ANeg):
        return arg_vars(a.body)
    return set()


def subst_formula(s: dict[str, Term], f: Formula, gen: VarGen,
                  cuts: Optional[list[str]] = None) -> Formula:
    """Capture-avoiding substitution into a formula.  A formula the
    substitution does not change is returned as the same object.

    With ``cuts``, an ``or`` alternative that the substitution leaves
    ill-sorted becomes ``false``, unless every alternative is, when the
    ``or`` itself is the part cut by what encloses it; failing that, a
    ``foreach`` whose body it leaves ill-sorted holds only over an empty
    domain and becomes ``D = {}``.  Each cut appends the ill-sorted term to
    ``cuts``.  Without ``cuts``, or with the term in neither, it raises."""
    if not s:
        return f
    cls = type(f)
    if cls is Constraint:
        if f.q is not None:
            return _subst_quant(s, f, gen, cuts)
        args = tuple([_subst_arg(s, a) for a in f.args])
        if all(map(operator.is_, args, f.args)):
            return f
        return Constraint(f.kind, args)
    if cls is And:
        parts = tuple([subst_formula(s, p, gen, cuts) for p in f.parts])
        return f if all(map(operator.is_, parts, f.parts)) else cls(parts)
    if cls is Or:
        parts, cut = [], []
        for p in f.parts:
            try:
                parts.append(subst_formula(s, p, gen, cuts))
            except IllSorted as e:
                if cuts is None:
                    raise
                cut.append(e)
                parts.append(FALSE)
        if cut:
            if len(cut) == len(parts):
                raise cut[0]
            cuts.extend(map(str, cut))
        return f if all(map(operator.is_, parts, f.parts)) else Or(tuple(parts))
    if cls is Neg:
        body = subst_formula(s, f.body, gen, cuts)
        return f if body is f.body else Neg(body)
    if cls is Implies:
        left = subst_formula(s, f.left, gen, cuts)
        right = subst_formula(s, f.right, gen, cuts)
        return f if left is f.left and right is f.right else Implies(left, right)
    if cls is PredCall:
        args = tuple([subst_term(s, a) for a in f.args])
        return f if all(map(operator.is_, args, f.args)) else PredCall(f.name, args)
    return f


def _subst_arg(s: dict[str, Term], a):
    if isinstance(a, Term):
        return subst_term(s, a)
    if isinstance(a, arith.ABin):
        left = _subst_arg(s, a.left)
        right = _subst_arg(s, a.right)
        if left is a.left and right is a.right:
            return a
        return arith.ABin(a.op, left, right)
    if isinstance(a, arith.ANeg):
        body = _subst_arg(s, a.body)
        return a if body is a.body else arith.ANeg(body)
    return a


def _subst_quant(s: dict[str, Term], f: Constraint, gen: VarGen,
                 cuts: Optional[list[str]]) -> Constraint:
    q = f.q
    assert q is not None
    bound = set(binder_names(q.binder)) | set(q.locals)
    inner = {k: v for k, v in s.items() if k not in bound}
    domain = subst_term(s, q.domain)
    # Rename bound names that would capture variables of the incoming terms.
    incoming = set().union(*map(term_vars, inner.values()))
    renames = {name: gen.fresh() for name in sorted(bound) if name in incoming}
    body = subst_formula(renames, q.body, gen)
    funcs = None if q.funcs is None else subst_formula(renames, q.funcs, gen)
    try:
        body = subst_formula(inner, body, gen, cuts)
        if funcs is not None:
            funcs = subst_formula(inner, funcs, gen, cuts)
    except IllSorted as e:
        if f.kind != "foreach" or cuts is None:
            raise
        cuts.append(str(e))
        return Constraint("eq", (domain, EMPTY))
    if not renames and domain is q.domain and body is q.body and funcs is q.funcs:
        return f
    binder = subst_term(renames, q.binder)
    locals_ = tuple(renames[n].name if n in renames else n for n in q.locals)
    return Constraint(f.kind, (), q=QPayload(binder, domain, locals_, body, funcs))


class IllFormed(Exception):
    """Raised for structurally bad input: unknown predicates, bad arities,
    recursive clause expansion, malformed quantifiers."""


def expand_calls(f: Formula, program: Optional[Program], gen: VarGen,
                 _stack: tuple = ()) -> Formula:
    """Inline user-predicate calls.  Clause-local variables are renamed fresh
    at every expansion, which makes them implicitly existential."""
    if isinstance(f, PredCall):
        if program is None:
            raise IllFormed(f"unknown predicate {f.name}/{len(f.args)}")
        key = (f.name, len(f.args))
        if key in _stack:
            raise IllFormed(f"recursive predicate {f.name}/{len(f.args)} cannot be expanded")
        clause = program.lookup(f.name, len(f.args))
        if clause is None:
            raise IllFormed(f"unknown predicate {f.name}/{len(f.args)}")
        body, _ = instantiate_clause(clause, f.args, gen)
        return expand_calls(body, program, gen, _stack + (key,))
    if isinstance(f, And):
        return conj(expand_calls(p, program, gen, _stack) for p in f.parts)
    if isinstance(f, Or):
        return disj(expand_calls(p, program, gen, _stack) for p in f.parts)
    if isinstance(f, Neg):
        return Neg(expand_calls(f.body, program, gen, _stack))
    if isinstance(f, Implies):
        return Implies(expand_calls(f.left, program, gen, _stack),
                       expand_calls(f.right, program, gen, _stack))
    if isinstance(f, Constraint) and f.q is not None:
        q = f.q
        body = expand_calls(q.body, program, gen, _stack)
        funcs = expand_calls(q.funcs, program, gen, _stack) if q.funcs is not None else None
        return Constraint(f.kind, (), q=QPayload(q.binder, q.domain, q.locals, body, funcs))
    return f


def instantiate_clause(clause: Clause, args: Sequence[Term], gen: VarGen):
    """Clause body with parameters bound to ``args`` and body-local variables
    renamed fresh.  Returns (formula, local-name mapping)."""
    if len(args) != len(clause.params):
        raise IllFormed(
            f"predicate {clause.name}/{len(clause.params)} called with {len(args)} arguments")
    if not all(isinstance(a, Term) for a in args):
        raise IllFormed(f"predicate {clause.name}/{len(clause.params)} takes "
                        "terms, not integer expressions")
    locals_ = sorted(formula_vars(clause.body) - set(clause.params))
    ren = {name: gen.fresh() for name in locals_}
    s: dict[str, Term] = dict(zip(clause.params, args))
    s.update(ren)
    return subst_formula(s, clause.body, gen), ren
