"""Optional type system: enumerated, product, powerset, int, and str types.

Constraints carry polymorphic signatures; checking is unification of type
terms with declarations coming from ``dec``, per-predicate signatures, and
machine variable declarations.  The checker reports errors and never changes
solver verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .arith import ABin, ANeg
from .formulas import (
    INT, SIG, And, Constraint, FalseF, Formula, Implies, Neg, Or,
    PredCall, Program, TrueF, binder_names,
)
from .terms import (
    CP, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var, set_parts,
)


@dataclass(slots=True, unsafe_hash=True)
class TInt:
    pass


@dataclass(slots=True, unsafe_hash=True)
class TStr:
    pass


@dataclass(slots=True, unsafe_hash=True)
class TBasic:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class TEnum:
    members: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("enumerated type needs at least two members")


@dataclass(slots=True, unsafe_hash=True)
class TProd:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("product type needs at least two components")


@dataclass(slots=True, unsafe_hash=True)
class TSet:
    elem: object


@dataclass(slots=True, unsafe_hash=True)
class TV:
    """Inference variable; only appears while checking."""
    id: int


@dataclass(slots=True, unsafe_hash=True)
class TNameVar:
    """A named type variable written in a declaration, e.g. dec(F,stype([X,Y]))."""
    name: str


TypeExpr = Union[TInt, TStr, TBasic, TEnum, TProd, TSet, TV, TNameVar]


def pp_type(t) -> str:
    if isinstance(t, TInt):
        return "int"
    if isinstance(t, TStr):
        return "str"
    if isinstance(t, TBasic):
        return t.name
    if isinstance(t, TEnum):
        return "etype([" + ",".join(t.members) + "])"
    if isinstance(t, TProd):
        return "[" + ",".join(pp_type(p) for p in t.parts) + "]"
    if isinstance(t, TSet):
        return f"stype({pp_type(t.elem)})"
    if isinstance(t, TNameVar):
        return t.name
    if isinstance(t, TV):
        return f"?{t.id}"
    raise TypeError(f"not a type: {t!r}")


@dataclass
class TypeError_:
    msg: str
    where: str = ""

    def __str__(self):
        return f"{self.where}: {self.msg}" if self.where else self.msg


@dataclass
class TypeEnv:
    vars: dict = field(default_factory=dict)        # variable name -> TypeExpr
    preds: dict = field(default_factory=dict)       # (name, arity) -> tuple of TypeExpr
    synonyms: dict = field(default_factory=lambda: {"bool": TEnum(("true", "false"))})

    def resolve(self, t):
        seen = set()
        while isinstance(t, TBasic) and t.name in self.synonyms:
            if t.name in seen:
                break
            seen.add(t.name)
            t = self.synonyms[t.name]
        return t

    def expand(self, t, _open: tuple = ()):
        """``t`` with its synonyms resolved, also inside sets and products.
        A synonym met again inside its own expansion is left as it is."""
        if isinstance(t, TBasic) and t.name not in _open:
            _open += (t.name,)
            t = self.resolve(t)
        if isinstance(t, TSet):
            return TSet(self.expand(t.elem, _open))
        if isinstance(t, TProd):
            return TProd(tuple(self.expand(p, _open) for p in t.parts))
        return t


class Checker:
    def __init__(self, env: TypeEnv):
        self.env = env
        self.uf: dict[int, object] = {}
        self.next_tv = 0
        self.errors: list[TypeError_] = []
        self.atom_obligations: list[tuple[object, str, str]] = []
        self.scope: dict[str, object] = {}
        self.named_tvs: dict[str, TV] = {}

    def fresh(self) -> TV:
        self.next_tv += 1
        return TV(self.next_tv)

    def conv(self, ty, memo: Optional[dict] = None):
        """Replace named type variables with inference variables, and resolve
        synonyms."""
        memo = self.named_tvs if memo is None else memo
        if isinstance(ty, TNameVar):
            return memo.setdefault(ty.name, self.fresh())
        if isinstance(ty, TSet):
            return TSet(self.conv(ty.elem, memo))
        if isinstance(ty, TProd):
            return TProd(tuple(self.conv(p, memo) for p in ty.parts))
        return self.env.expand(ty)

    def find(self, t):
        while isinstance(t, TV) and t.id in self.uf:
            t = self.uf[t.id]
        return t

    def _occurs(self, v: TV, t) -> bool:
        t = self.find(t)
        if isinstance(t, TV):
            return t == v
        if isinstance(t, TSet):
            return self._occurs(v, t.elem)
        if isinstance(t, TProd):
            return any(self._occurs(v, p) for p in t.parts)
        return False

    def _head(self, t):
        """The root of an inference variable or the synonym of a name; types
        enter resolved, so such a name is abstract or recursive."""
        cls = type(t)
        return self.find(t) if cls is TV else self.env.resolve(t) if cls is TBasic else t

    def unify(self, a, b, where: str) -> None:
        a, b = self._head(a), self._head(b)
        if a == b:
            return
        if type(a) is not TV and type(b) is TV:
            a, b = b, a
        if type(a) is TV:
            if type(b) in (TSet, TProd) and self._occurs(a, b):
                self.errors.append(TypeError_("circular type", where))
                return
            self.uf[a.id] = b
            return
        if isinstance(a, TSet) and isinstance(b, TSet):
            self.unify(a.elem, b.elem, where)
            return
        if isinstance(a, TProd) and isinstance(b, TProd) and len(a.parts) == len(b.parts):
            for x, y in zip(a.parts, b.parts):
                self.unify(x, y, where)
            return
        if isinstance(a, TEnum) and isinstance(b, TEnum) and \
                frozenset(a.members) == frozenset(b.members):
            return
        self.errors.append(
            TypeError_(f"type mismatch: {pp_type(self.zonk(a))} vs {pp_type(self.zonk(b))}",
                       where))

    def zonk(self, t):
        t = self.find(self.env.resolve(t))
        if isinstance(t, TSet):
            return TSet(self.zonk(t.elem))
        if isinstance(t, TProd):
            return TProd(tuple(self.zonk(p) for p in t.parts))
        return t

    # --- term typing -----------------------------------------------------

    def type_of_term(self, t: Term, where: str):
        if isinstance(t, Var):
            if t.name not in self.scope:
                # ``fresh`` runs for a declared variable too: it numbers messages.
                self.scope[t.name] = self.env.expand(self.env.vars.get(t.name, self.fresh()))
            return self.scope[t.name]
        if isinstance(t, Int):
            return TInt()
        if isinstance(t, Str):
            return TStr()
        if isinstance(t, Atom):
            tv = self.fresh()
            self.atom_obligations.append((tv, t.name, where))
            return tv
        if isinstance(t, Pair):
            return TProd((self.type_of_term(t.first, where),
                          self.type_of_term(t.second, where)))
        if isinstance(t, EmptySet):
            return TSet(self.fresh())
        if isinstance(t, ExtSet):
            et = self.type_of_term(t.head, where)
            tt = self.type_of_term(t.tail, where)
            self.unify(tt, TSet(et), where)
            return TSet(et)
        if isinstance(t, CP):
            lt = self.type_of_term(t.left, where)
            rt = self.type_of_term(t.right, where)
            le, re_ = self.fresh(), self.fresh()
            self.unify(lt, TSet(le), where)
            self.unify(rt, TSet(re_), where)
            return TSet(TProd((le, re_)))
        if isinstance(t, Interval):
            for b in (t.lo, t.hi):
                self.unify(self.type_of_term(b, where), TInt(), where)
            return TSet(TInt())
        raise TypeError(f"not a term: {t!r}")

    def type_of_expr(self, a, where: str):
        if isinstance(a, Term):
            return self.type_of_term(a, where)
        if isinstance(a, ABin):
            self.unify(self.type_of_expr(a.left, where), TInt(), where)
            self.unify(self.type_of_expr(a.right, where), TInt(), where)
            return TInt()
        if isinstance(a, ANeg):
            self.unify(self.type_of_expr(a.body, where), TInt(), where)
            return TInt()
        raise TypeError(f"not an expression: {a!r}")

    # --- formula typing ---------------------------------------------------

    def _instantiate(self, sig):
        inst: dict[str, TV] = {}

        def go(s):
            if type(s) is str:
                return inst.setdefault(s, self.fresh())
            if s == INT:
                return TInt()
            if s[0] == "S":
                return TSet(go(s[1]))
            return TProd((go(s[1]), go(s[2])))

        return tuple(go(s) for s in sig)

    def check_formula(self, f: Formula, where: str = "") -> None:
        if isinstance(f, Constraint):
            self.check_constraint(f, where)
            return
        if isinstance(f, (TrueF, FalseF)):
            return
        if isinstance(f, (And, Or)):
            for p in f.parts:
                self.check_formula(p, where)
            return
        if isinstance(f, Neg):
            self.check_formula(f.body, where)
            return
        if isinstance(f, Implies):
            self.check_formula(f.left, where)
            self.check_formula(f.right, where)
            return
        if isinstance(f, PredCall):
            if not all(isinstance(a, Term) for a in f.args):
                # As formulas.instantiate_clause, which solve goes through.
                self.errors.append(TypeError_(
                    f"predicate {f.name}/{len(f.args)} takes terms, not integer expressions",
                    where))
                return
            sig = self.env.preds.get((f.name, len(f.args)))
            if sig is None:
                self.errors.append(TypeError_(f"no signature for {f.name}/{len(f.args)}", where))
                return
            memo: dict = {}  # fresh instantiation per call site
            for a, s in zip(f.args, sig):
                self.unify(self.type_of_expr(a, where), self.conv(s, memo), where)
            return
        raise TypeError(f"not a formula: {f!r}")

    def check_constraint(self, c: Constraint, where: str) -> None:
        w = f"{where}{' ' if where else ''}{c.kind}"
        if c.kind == "dec":
            v, ty = c.args
            if isinstance(v, Var):
                self.unify(self.type_of_term(v, w), self.conv(ty), w)
            else:
                self.errors.append(TypeError_("dec needs a variable", w))
            return
        if c.q is not None:
            q = c.q
            dt = self.type_of_term(q.domain, w)
            saved = dict(self.scope)
            if isinstance(q.binder, Var):
                bt = self.fresh()
                self.scope[q.binder.name] = bt
                self.unify(dt, TSet(bt), w)
            else:
                n1, n2 = binder_names(q.binder)
                t1, t2 = self.fresh(), self.fresh()
                self.scope[n1], self.scope[n2] = t1, t2
                self.unify(dt, TSet(TProd((t1, t2))), w)
            for l in q.locals:
                self.scope[l] = self.fresh()
            if q.funcs is not None:
                self.check_formula(q.funcs, w)
            self.check_formula(q.body, w)
            self.scope = saved
            return
        sig = SIG.get(c.kind)
        if sig is None:
            self.errors.append(TypeError_(f"no signature for constraint {c.kind}", w))
            return
        inst = self._instantiate(sig)
        for a, s in zip(c.args, inst):
            self.unify(self.type_of_expr(a, w), s, w)

    def finish(self) -> None:
        for tv, atom, where in self.atom_obligations:
            t = self.zonk(tv)
            if isinstance(t, TEnum):
                if atom in t.members:
                    continue
                self.errors.append(
                    TypeError_(f"atom {atom} is not a member of {pp_type(t)}", where))
            elif isinstance(t, TV):
                self.errors.append(
                    TypeError_(f"cannot infer an enumerated type for atom {atom}", where))
            else:
                self.errors.append(
                    TypeError_(f"atom {atom} used where {pp_type(t)} expected", where))


def check_formula(f: Formula, env: Optional[TypeEnv] = None,
                  where: str = "") -> list[TypeError_]:
    env = env or TypeEnv()
    ck = Checker(env)
    ck.check_formula(f, where)
    ck.finish()
    return ck.errors


def _cyclic(synonyms: dict) -> list[str]:
    """The names of ``synonyms`` whose expansion mentions themselves."""
    def reach(t, seen: set) -> set:
        if isinstance(t, TBasic) and t.name in synonyms and t.name not in seen:
            seen.add(t.name)
            reach(synonyms[t.name], seen)
        elif isinstance(t, TSet):
            reach(t.elem, seen)
        elif isinstance(t, TProd):
            for p in t.parts:
                reach(p, seen)
        return seen

    return [name for name, ty in synonyms.items() if name in reach(ty, set())]


def check_program(prog: Program, env: Optional[TypeEnv] = None) -> list[TypeError_]:
    env = env or TypeEnv()
    env.synonyms.update(prog.type_defs)
    # A synonym defined through itself has no finite expansion to check by.
    cyclic = _cyclic(env.synonyms)
    if cyclic:
        return [TypeError_("type defined in terms of itself", n) for n in cyclic]
    env.preds.update(prog.pred_types)
    errors: list[TypeError_] = []
    declared = {name for name, _ in env.preds}
    for (name, arity), clause in prog.clauses.items():
        ck = Checker(env)
        sig = env.preds.get((name, arity))
        if sig is not None:
            memo: dict = {}
            for p, s in zip(clause.params, sig):
                ck.scope[p] = ck.conv(s, memo)
        elif name in declared:
            # An undeclared overload beside a declared one is an error, so
            # a wrong-arity clause is not silently checked untyped.
            errors.append(TypeError_(f"arity mismatch in signature of {name}", name))
        ck.check_formula(clause.body, name)
        ck.finish()
        errors.extend(ck.errors)
    for q in prog.queries:
        ck = Checker(env)
        ck.check_formula(q, "query")
        ck.finish()
        errors.extend(ck.errors)
    return errors


def inhabits(t: Term, ty, env: Optional[TypeEnv] = None) -> bool:
    """Does ground term t inhabit type ty?  ``env`` resolves the synonyms
    of ``ty`` first; without it, ``ty`` must already be resolved."""
    if env is not None:
        ty = env.expand(ty)
    if isinstance(ty, TInt):
        return isinstance(t, Int)
    if isinstance(ty, TStr):
        return isinstance(t, Str)
    if isinstance(ty, TEnum):
        return isinstance(t, Atom) and t.name in ty.members
    if isinstance(ty, TBasic):
        return isinstance(t, Atom)
    if isinstance(ty, TProd):
        if not isinstance(t, Pair) or len(ty.parts) != 2:
            return False
        return inhabits(t.first, ty.parts[0]) and inhabits(t.second, ty.parts[1])
    if isinstance(ty, TSet):
        if isinstance(t, EmptySet):
            return True
        if isinstance(t, ExtSet):
            elems, tail = set_parts(t)
            if not isinstance(tail, EmptySet):
                return False
            return all(inhabits(e, ty.elem) for e in elems)
        if isinstance(t, CP) and isinstance(ty.elem, TProd):
            return inhabits(t.left, TSet(ty.elem.parts[0])) and \
                inhabits(t.right, TSet(ty.elem.parts[1]))
        if isinstance(t, Interval):
            return isinstance(ty.elem, TInt)
        return False
    return False
