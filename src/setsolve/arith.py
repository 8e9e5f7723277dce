"""Linear integer arithmetic over exact rationals.

Expressions stay symbolic (``ABin``/``ANeg`` over Var/Int leaves) until a
constraint is asserted; lowering to a linear form raises ``NonLinear`` when
two non-constant factors are multiplied.  The store decides consistency with
Gaussian elimination on equalities, Fourier-Motzkin projection over the
rationals, and a bounded branch-and-bound for integrality.  A definite answer
is exact; when the bound runs out the store reports "unknown", never a
spurious "consistent".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    """Sum of rational-coefficient variables plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[str, Fraction]] = None,
                 const: Fraction = Fraction(0)):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}
        self.const = Fraction(const)

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LinExpr(out, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "LinExpr":
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
        return LinExpr({}, Fraction(e.value))
    if isinstance(e, Var):
        return LinExpr({e.name: Fraction(1)})
    if isinstance(e, ANeg):
        return lower(e.body).scale(Fraction(-1))
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
    if le.const.denominator != 1:
        raise ValueError("non-integer value")
    return int(le.const)


# A row is (expr, strict): expr <= 0, or expr < 0 when strict.
Row = tuple[LinExpr, bool]


class ArithStore:
    """Conjunction of linear constraints over integer variables."""

    def __init__(self) -> None:
        self.eqs: list[LinExpr] = []     # expr = 0
        self.ineqs: list[Row] = []       # expr <= 0 / expr < 0
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
        for e, _ in self.ineqs:
            out |= e.free()
        return out

    def assert_eq(self, e: LinExpr) -> None:
        if e.is_const():
            if e.const != 0:
                self.failed = True
            return
        self.eqs.append(e)

    def assert_le(self, e: LinExpr, strict: bool = False) -> None:
        if e.is_const():
            bad = e.const >= 0 if strict else e.const > 0
            if bad:
                self.failed = True
            return
        self.ineqs.append((e, strict))

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
                val += c * Fraction(model.get(k, 0))
            if val.denominator != 1:
                return None
            model[pivot_var] = int(val)
        return model

    def _search(self, budget: int):
        """(verdict, equality pivots, integer model of the remaining
        variables): Gaussian elimination, then Fourier-Motzkin over the
        rationals, then the bounded integer search."""
        if self.failed:
            return False, [], {}
        pivots, ineqs = _gauss(self.eqs, self.ineqs)
        if pivots is None:
            return False, [], {}
        rows = _drop_redundant(ineqs)
        if not _rational_feasible(rows):
            return False, [], {}
        ok, model = _int_feasible(rows, budget)
        return ok, pivots, model


def _gauss(eqs: list[LinExpr], ineqs: list[Row]):
    """Eliminate equality pivots; returns (pivots, rewritten ineqs) or
    (None, _) on contradiction.  Each pivot is (var, rhs-expression)."""
    pivots: list[tuple[str, LinExpr]] = []
    work = list(eqs)
    out_ineqs = list(ineqs)
    while work:
        e = work.pop()
        if e.is_const():
            if e.const != 0:
                return None, []
            continue
        var = sorted(e.coeffs)[0]
        c = e.coeffs[var]
        # var = rhs
        rhs_coeffs = {k: -v / c for k, v in e.coeffs.items() if k != var}
        rhs = LinExpr(rhs_coeffs, -e.const / c)
        pivots.append((var, rhs))
        work = [_elim(x, var, rhs) for x in work]
        out_ineqs = [(_elim(x, var, rhs), s) for x, s in out_ineqs]
    return pivots, out_ineqs


def _elim(e: LinExpr, var: str, rhs: LinExpr) -> LinExpr:
    c = e.coeffs.get(var)
    if not c:
        return e
    rest = LinExpr({k: v for k, v in e.coeffs.items() if k != var}, e.const)
    return rest + rhs.scale(c)


def _drop_redundant(rows: list[Row]) -> list[Row]:
    seen = {}
    for e, s in rows:
        key = (tuple(sorted(e.coeffs.items())), e.const)
        if key not in seen or (s and not seen[key][1]):
            seen[key] = (e, s)
    return list(seen.values())


def _eliminate(rows: list[Row], v: str) -> list[Row]:
    """One Fourier-Motzkin step: project v out of the rows."""
    lower_rows, upper_rows, out = [], [], []
    for e, s in rows:
        c = e.coeffs.get(v, Fraction(0))
        if c > 0:
            upper_rows.append((e, s, c))
        elif c < 0:
            lower_rows.append((e, s, c))
        else:
            out.append((e, s))
    for eu, su, cu in upper_rows:
        for el, sl, cl in lower_rows:
            out.append((eu.scale(-cl) + el.scale(cu), su or sl))
    return _drop_redundant(out)


def _rational_feasible(rows: list[Row]) -> bool:
    """Fourier-Motzkin elimination; exact over the rationals."""
    while True:
        for e, s in rows:
            if e.is_const():
                if (e.const > 0) or (s and e.const == 0):
                    return False
        varset: set[str] = set()
        for e, _ in rows:
            varset |= e.free()
        if not varset:
            return True
        rows = _eliminate(rows, sorted(varset)[0])
        if len(rows) > 2000:
            # Projection blow-up guard; fall back to "feasible" and let the
            # integer search give the definite word.
            return True


def _var_bounds(rows: list[Row], v: str):
    """Rational bounds (with strictness) for v after eliminating the rest."""
    others: set[str] = set()
    for e, _ in rows:
        others |= e.free()
    others.discard(v)
    for u in sorted(others):
        rows = _eliminate(rows, u)
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_strict = hi_strict = False
    for e, s in rows:
        c = e.coeffs.get(v, Fraction(0))
        if c == 0:
            continue
        bound = -e.const / c
        if c > 0:  # v <= bound / v < bound
            if hi is None or bound < hi or (bound == hi and s):
                hi, hi_strict = bound, s
        else:      # v >= bound / v > bound
            if lo is None or bound > lo or (bound == lo and s):
                lo, lo_strict = bound, s
    return lo, lo_strict, hi, hi_strict


def _int_floor(hi: Fraction, strict: bool) -> int:
    if strict and hi.denominator == 1:
        return int(hi) - 1
    return math.floor(hi)


def _int_ceil(lo: Fraction, strict: bool) -> int:
    if strict and lo.denominator == 1:
        return int(lo) + 1
    return math.ceil(lo)


def _int_feasible(rows: list[Row], budget: int) -> tuple[Optional[bool], dict[str, int]]:
    """Bounded branch-and-bound search for an integer point."""
    state = {"budget": budget}

    def rec(rows: list[Row], acc: dict[str, int]):
        if state["budget"] <= 0:
            return None, acc
        state["budget"] -= 1
        for e, s in rows:
            if e.is_const():
                if (e.const > 0) or (s and e.const == 0):
                    return False, acc
        varset: set[str] = set()
        for e, _ in rows:
            varset |= e.free()
        if not varset:
            return True, acc
        if not _rational_feasible(rows):
            return False, acc
        v = sorted(varset)[0]
        lo, lo_s, hi, hi_s = _var_bounds(rows, v)
        capped = False
        if lo is None and hi is None:
            candidates = list(range(0, 33)) + list(range(-1, -33, -1))
            capped = True
        elif lo is None:
            top = _int_floor(hi, hi_s)
            candidates = list(range(top, top - 64, -1))
            capped = True
        elif hi is None:
            bot = _int_ceil(lo, lo_s)
            candidates = list(range(bot, bot + 64))
            capped = True
        else:
            ilo, ihi = _int_ceil(lo, lo_s), _int_floor(hi, hi_s)
            if ilo > ihi:
                return False, acc
            if ihi - ilo > 256:
                ihi = ilo + 256  # cap the scan; failure past it -> unknown
                capped = True
            candidates = list(range(ilo, ihi + 1))
        saw_unknown = False
        for val in candidates:
            sub = [(_assign(e, v, val), s) for e, s in rows]
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
    return LinExpr({k: x for k, x in e.coeffs.items() if k != v},
                   e.const + c * Fraction(val))
