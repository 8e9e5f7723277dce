"""Linear integer arithmetic over integer rows.

Expressions stay symbolic (``ABin``/``ANeg`` over Var/Int leaves) until a
constraint is asserted; lowering to a linear form with ``int`` coefficients
raises ``NonLinear`` when two non-constant factors are multiplied.

The store keeps equations ``e = 0`` and rows ``e =< 0`` over the integers.
Every row is tight, as in Pugh's Omega test: its coefficients have gcd 1 and
its constant is rounded up, so a strict ``e < 0`` is stored as
``e + 1 =< 0``.  The Gaussian step rejects an equation whose coefficient gcd
does not divide its constant, and pivots only on a variable with coefficient
±1, so it never divides; an equation without one becomes two rows.
Fourier-Motzkin combines rows with positive integer multipliers and
tightens the result.  Every derived row holds at every integer point of the
store.  A bounded search over integer values finishes the job: each node
projects its rows onto the variable it branches on, by one elimination of
all the others, and reads that variable's range from the projection.  An
empty projection (a constant row above 0, or a lower bound above the upper
one) fails the node, so no separate feasibility pass runs first.

``consistent()`` answers True when the search found an integer point (which
``model()`` returns), False when the store has no integer point, and None
when the search ran out of budget or of a capped range of an unbounded
variable before finding one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .terms import IllSorted, Int, Term, Var


class NonLinear(Exception):
    pass


@dataclass(slots=True, unsafe_hash=True)
class ABin:
    op: str  # '+', '-', '*'
    left: "AExpr"
    right: "AExpr"


@dataclass(slots=True, unsafe_hash=True)
class ANeg:
    body: "AExpr"


AExpr = Union[Term, ABin, ANeg]


class LinExpr:
    """Sum of integer-coefficient variables plus an integer constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[str, int]] = None, const: int = 0):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}
        self.const = const

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LinExpr(out, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LinExpr":
        return LinExpr({k: v * c for k, v in self.coeffs.items()}, self.const * c)

    def is_const(self) -> bool:
        return not self.coeffs

    def free(self) -> set[str]:
        return set(self.coeffs)

    def __repr__(self) -> str:
        return f"LinExpr({self.coeffs}, {self.const})"


def lower(e: AExpr) -> LinExpr:
    """Lower an expression to linear form.  Raises NonLinear on products of
    two non-constant subexpressions, and TypeError on non-integer leaves."""
    if isinstance(e, Int):
        return LinExpr({}, e.value)
    if isinstance(e, Var):
        return LinExpr({e.name: 1})
    if isinstance(e, ANeg):
        return lower(e.body).scale(-1)
    if isinstance(e, ABin):
        a, b = lower(e.left), lower(e.right)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            if a.is_const():
                return b.scale(a.const)
            if b.is_const():
                return a.scale(b.const)
            raise NonLinear(f"non-linear product: {e!r}")
        raise ValueError(f"unknown operator {e.op!r}")
    raise TypeError(f"not an integer expression: {e!r}")


def check_int(e: AExpr) -> None:
    """Raise IllSorted unless every leaf of e is an integer or a variable."""
    if isinstance(e, ABin):
        check_int(e.left)
        check_int(e.right)
    elif isinstance(e, ANeg):
        check_int(e.body)
    elif not isinstance(e, (Int, Var)):
        raise IllSorted(f"not an integer: {e!r}")


def expr_is_ground(e: AExpr) -> bool:
    if isinstance(e, Int):
        return True
    if isinstance(e, Var):
        return False
    if isinstance(e, ANeg):
        return expr_is_ground(e.body)
    if isinstance(e, ABin):
        return expr_is_ground(e.left) and expr_is_ground(e.right)
    return False


def eval_ground(e: AExpr) -> int:
    le = lower(e)
    if not le.is_const():
        raise ValueError(f"expression not ground: {e!r}")
    return le.const


def _tight(e: LinExpr) -> LinExpr:
    """The row ``e =< 0`` divided by its coefficients' gcd, with the
    constant rounded up: the same integer points, and tight."""
    g = math.gcd(*e.coeffs.values())
    if g <= 1:
        return e
    return LinExpr({k: v // g for k, v in e.coeffs.items()}, -(-e.const // g))


class ArithStore:
    """Conjunction of linear constraints over integer variables."""

    def __init__(self) -> None:
        self.eqs: list[LinExpr] = []     # expr = 0
        self.ineqs: list[LinExpr] = []   # tight rows, expr =< 0
        self.failed = False

    def copy(self) -> "ArithStore":
        out = ArithStore()
        out.eqs = list(self.eqs)
        out.ineqs = list(self.ineqs)
        out.failed = self.failed
        return out

    def vars(self) -> set[str]:
        out: set[str] = set()
        for e in self.eqs:
            out |= e.free()
        for e in self.ineqs:
            out |= e.free()
        return out

    def assert_eq(self, e: LinExpr) -> None:
        if e.is_const():
            if e.const != 0:
                self.failed = True
            return
        self.eqs.append(e)

    def assert_le(self, e: LinExpr, strict: bool = False) -> None:
        if strict:
            e = LinExpr(e.coeffs, e.const + 1)
        if e.is_const():
            if e.const > 0:
                self.failed = True
            return
        self.ineqs.append(_tight(e))

    def consistent(self, budget: int = 4096) -> Optional[bool]:
        """True / False when decided; None when the integer search ran out."""
        return self._search(budget)[0]

    def model(self, budget: int = 4096) -> Optional[dict[str, int]]:
        """An integer assignment satisfying the store, or None."""
        ok, pivots, model = self._search(budget)
        if not ok:
            return None
        # Back-substitute the eliminated equality variables.
        for pivot_var, expr in reversed(pivots):
            val = expr.const
            for k, c in expr.coeffs.items():
                val += c * model.setdefault(k, 0)
            model[pivot_var] = val
        return model

    def _search(self, budget: int):
        """(verdict, equality pivots, integer model of the remaining
        variables): the Gaussian step, then the bounded integer search,
        which projects by Fourier-Motzkin at every node."""
        if self.failed:
            return False, [], {}
        pivots, rows = _gauss(self.eqs, self.ineqs)
        if pivots is None:
            return False, [], {}
        ok, model = _int_feasible(_drop_redundant(rows), budget)
        return ok, pivots, model


def _gauss(eqs: list[LinExpr], rows: list[LinExpr]):
    """Eliminate unit pivots; returns (pivots, rewritten tight rows) or
    (None, _) when an equation has no integer solution.  Each pivot is
    (var, rhs-expression)."""
    pivots: list[tuple[str, LinExpr]] = []
    work = list(eqs)
    rows = list(rows)
    while work:
        e = work.pop()
        g = math.gcd(*e.coeffs.values())
        if g == 0:        # no variable left
            if e.const:
                return None, []
            continue
        if e.const % g:   # the gcd test
            return None, []
        if g > 1:
            e = LinExpr({k: v // g for k, v in e.coeffs.items()}, e.const // g)
        var = next((k for k in sorted(e.coeffs) if e.coeffs[k] in (1, -1)), None)
        if var is None:
            rows += [e, e.scale(-1)]
            continue
        c = e.coeffs[var]
        # var = -c * (e - c * var), and x - a*c*e has no var.
        pivots.append((var, LinExpr({k: -c * v for k, v in e.coeffs.items() if k != var},
                                    -c * e.const)))
        work = [_elim(x, var, c, e) for x in work]
        rows = [_tight(_elim(x, var, c, e)) for x in rows]
    return pivots, rows


def _elim(x: LinExpr, var: str, c: int, e: LinExpr) -> LinExpr:
    a = x.coeffs.get(var)
    if not a:
        return x
    return x + e.scale(-a * c)


def _drop_redundant(rows: list[LinExpr]) -> list[LinExpr]:
    """Keep one row per coefficient vector: the one with the largest
    constant, which implies the others."""
    best: dict[tuple, LinExpr] = {}
    for e in rows:
        key = tuple(sorted(e.coeffs.items()))
        old = best.get(key)
        if old is None or e.const > old.const:
            best[key] = e
    return list(best.values())


def _eliminate(rows: list[LinExpr], v: str) -> list[LinExpr]:
    """One Fourier-Motzkin step: project v out of the rows."""
    lower_rows, upper_rows, out = [], [], []
    for e in rows:
        c = e.coeffs.get(v, 0)
        if c > 0:
            upper_rows.append((e, c))
        elif c < 0:
            lower_rows.append((e, c))
        else:
            out.append(e)
    for eu, cu in upper_rows:
        for el, cl in lower_rows:
            out.append(_tight(eu.scale(-cl) + el.scale(cu)))
    return _drop_redundant(out)


def _var_bounds(rows: list[LinExpr], v: str) -> Optional[tuple[Optional[int], Optional[int]]]:
    """Integer bounds for v after eliminating the rest, or None when the
    projection is empty: a constant row above 0, or ``lo > hi``."""
    others: set[str] = set()
    for e in rows:
        others |= e.free()
    others.discard(v)
    for u in sorted(others):
        rows = _eliminate(rows, u)
    lo: Optional[int] = None
    hi: Optional[int] = None
    for e in rows:
        c = e.coeffs.get(v, 0)
        if not c:    # a constant row, since every other variable is gone
            if e.const > 0:
                return None
        elif c > 0:  # v =< floor(-const / c)
            bound = -e.const // c
            if hi is None or bound < hi:
                hi = bound
        elif c < 0:  # v >= ceil(-const / c)
            bound = -(e.const // c)
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _int_feasible(rows: list[LinExpr], budget: int) -> tuple[Optional[bool], dict[str, int]]:
    """Bounded branch-and-bound search for an integer point."""
    state = {"budget": budget}

    def rec(rows: list[LinExpr], acc: dict[str, int]):
        if state["budget"] <= 0:
            return None, acc
        state["budget"] -= 1
        for e in rows:
            if e.is_const() and e.const > 0:
                return False, acc
        varset: set[str] = set()
        for e in rows:
            varset |= e.free()
        if not varset:
            return True, acc
        v = sorted(varset)[0]
        bounds = _var_bounds(rows, v)
        if bounds is None:
            return False, acc
        lo, hi = bounds
        capped = False
        if lo is None and hi is None:
            candidates = list(range(0, 33)) + list(range(-1, -33, -1))
            capped = True
        elif lo is None:
            candidates = list(range(hi, hi - 64, -1))
            capped = True
        elif hi is None:
            candidates = list(range(lo, lo + 64))
            capped = True
        else:
            if hi - lo > 256:
                hi = lo + 256  # cap the scan; failure past it -> unknown
                capped = True
            candidates = list(range(lo, hi + 1))
        saw_unknown = False
        for val in candidates:
            sub = [_assign(e, v, val) for e in rows]
            ok, model = rec(_drop_redundant(sub), {**acc, v: val})
            if ok:
                return True, model
            if ok is None:
                saw_unknown = True
        if saw_unknown or state["budget"] <= 0 or capped:
            return None, acc
        return False, acc

    ok, model = rec(rows, {})
    return ok, model


def _assign(e: LinExpr, v: str, val: int) -> LinExpr:
    c = e.coeffs.get(v)
    if not c:
        return e
    return _tight(LinExpr({k: x for k, x in e.coeffs.items() if k != v}, e.const + c * val))
