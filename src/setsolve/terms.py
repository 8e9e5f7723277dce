"""Core term language for the finite-set constraint solver.

Terms are slotted dataclasses that compare and hash by value, and are shared
structurally everywhere.  They are not frozen, because a frozen ``__init__``
costs more than twice as much; they are immutable because no code assigns to
a field of a built node, which ``tests/test_nodes.py`` checks by reading every
module.  Extensional sets follow the element/tail discipline: ``ExtSet(h, t)`` denotes
``{h} | t`` where the tail is itself a set term (EmptySet, ExtSet or a
variable standing for the "rest" of the set).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class Term:
    """Marker base class; concrete terms are the dataclasses below."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Atom(Term):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Int(Term):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class Str(Term):
    value: str


@dataclass(slots=True, unsafe_hash=True)
class Pair(Term):
    """Ordered pair ``[x, y]``.  Pairs are ur-elements, not sets."""

    first: Term
    second: Term


@dataclass(slots=True, unsafe_hash=True)
class EmptySet(Term):
    pass


EMPTY = EmptySet()

# The terms that are never sets.
NON_SETS = (Atom, Int, Str, Pair)


class IllSorted(ValueError):
    """A term of the wrong sort: a non-set where a set belongs, or a
    non-integer where an integer belongs.  The constructors below raise it
    for their own positions, and the solver for constraint arguments; the
    solver then drops the branch that holds the term."""


@dataclass(slots=True, unsafe_hash=True)
class ExtSet(Term):
    """``{head / tail}``: the set ``{head}`` united with ``tail``."""

    head: Term
    tail: Term

    def __post_init__(self) -> None:
        if not isinstance(self.tail, (EmptySet, ExtSet, Var)):
            raise IllSorted(f"invalid set tail: {self.tail!r}")


@dataclass(slots=True, unsafe_hash=True)
class CP(Term):
    """Cartesian product of two sets, kept symbolic until expanded."""

    left: Term
    right: Term

    def __post_init__(self) -> None:
        for s in (self.left, self.right):
            if isinstance(s, NON_SETS):
                raise IllSorted(f"invalid product factor: {s!r}")


@dataclass(slots=True, unsafe_hash=True)
class Interval(Term):
    """Integer interval ``int(lo, hi)``; bounds are Int or Var."""

    lo: Term
    hi: Term

    def __post_init__(self) -> None:
        for b in (self.lo, self.hi):
            if not isinstance(b, (Int, Var)):
                raise IllSorted(f"invalid interval bound: {b!r}")


Subst = Mapping[str, Term]


def mkset(elems: Sequence[Term], tail: Term = EMPTY) -> Term:
    """Build ``{e1, ..., en / tail}`` as nested ExtSets."""
    out = tail
    for e in reversed(list(elems)):
        out = ExtSet(e, out)
    return out


def set_parts(t: Term) -> tuple[list[Term], Term]:
    """Split a set term into its listed elements and final tail."""
    elems: list[Term] = []
    while isinstance(t, ExtSet):
        elems.append(t.head)
        t = t.tail
    return elems, t


def term_vars(t: Term) -> set[str]:
    out: set[str] = set()
    _collect_vars(t, out)
    return out


def _collect_vars(t: Term, out: set[str]) -> None:
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Pair):
        _collect_vars(t.first, out)
        _collect_vars(t.second, out)
    elif isinstance(t, ExtSet):
        _collect_vars(t.head, out)
        _collect_vars(t.tail, out)
    elif isinstance(t, CP):
        _collect_vars(t.left, out)
        _collect_vars(t.right, out)
    elif isinstance(t, Interval):
        _collect_vars(t.lo, out)
        _collect_vars(t.hi, out)


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Pair):
        return is_ground(t.first) and is_ground(t.second)
    if isinstance(t, ExtSet):
        return is_ground(t.head) and is_ground(t.tail)
    if isinstance(t, CP):
        return is_ground(t.left) and is_ground(t.right)
    if isinstance(t, Interval):
        return is_ground(t.lo) and is_ground(t.hi)
    return True


def subst_term(s: Subst, t: Term) -> Term:
    """Apply a substitution.  Binding a set tail splices the sets together.

    Subterms the substitution does not touch are returned as they are, so a
    term with no bound variable comes back as the very same object.
    """
    if not s:
        return t
    cls = type(t)
    if cls is Var:
        return s.get(t.name, t)
    if cls is Pair:
        first = subst_term(s, t.first)
        second = subst_term(s, t.second)
        if first is t.first and second is t.second:
            return t
        return Pair(first, second)
    if cls is ExtSet:
        head = subst_term(s, t.head)
        tail = subst_term(s, t.tail)
        if head is t.head and tail is t.tail:
            return t
        return ExtSet(head, tail)
    if cls is CP:
        left = subst_term(s, t.left)
        right = subst_term(s, t.right)
        if left is t.left and right is t.right:
            return t
        return CP(left, right)
    if cls is Interval:
        lo = subst_term(s, t.lo)
        hi = subst_term(s, t.hi)
        if lo is t.lo and hi is t.hi:
            return t
        return Interval(lo, hi)
    return t


def compose(s: dict[str, Term], delta: Mapping[str, Term]) -> dict[str, Term]:
    """Compose substitutions so the result stays idempotent."""
    out = {k: subst_term(delta, v) for k, v in s.items()}
    for k, v in delta.items():
        if k not in out:
            out[k] = v
    return out


_FRESH_RE = re.compile(r"^_N(\d+)$")


class VarGen:
    """Fresh-variable supply.  Names are ``_N1``, ``_N2``, ...

    ``bump_past`` keeps generated names clear of variables that already
    appear in parsed input.
    """

    def __init__(self) -> None:
        self._n = 0

    def fresh(self) -> Var:
        self._n += 1
        return Var(f"_N{self._n}")

    def bump_past(self, names: Iterable[str]) -> None:
        for name in names:
            m = _FRESH_RE.match(name)
            if m:
                self._n = max(self._n, int(m.group(1)))


_KIND_RANK = {
    Int: 0,
    Atom: 1,
    Str: 2,
    Pair: 3,
    EmptySet: 4,
    ExtSet: 5,
    CP: 6,
    Interval: 7,
    Var: 8,
}


def term_key(t: Term):
    """Total order on terms, used to print ground sets deterministically."""
    rank = _KIND_RANK[type(t)]
    if isinstance(t, Int):
        return (rank, t.value)
    if isinstance(t, (Atom, Var)):
        return (rank, t.name)
    if isinstance(t, Str):
        return (rank, t.value)
    if isinstance(t, Pair):
        return (rank, term_key(t.first), term_key(t.second))
    if isinstance(t, EmptySet):
        return (rank,)
    if isinstance(t, ExtSet):
        elems, tail = set_parts(t)
        return (rank, tuple(sorted(term_key(e) for e in elems)), term_key(tail))
    if isinstance(t, CP):
        return (rank, term_key(t.left), term_key(t.right))
    if isinstance(t, Interval):
        return (rank, term_key(t.lo), term_key(t.hi))
    raise TypeError(f"not a term: {t!r}")
