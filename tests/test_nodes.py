"""Term, formula and type nodes: value semantics and immutability.

The nodes built in bulk are slotted dataclasses with a generated
``__eq__``/``__hash__`` but no ``frozen=True``: a frozen ``__init__`` sets
each field through ``object.__setattr__`` and costs more than twice as much.
Nodes are shared structurally, so they must still never change once built.
Nothing enforces that at run time; ``test_no_module_writes_a_node_field``
does, by reading every module of the package.
"""
import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest
import setsolve
from setsolve.formulas import C, Constraint
from setsolve.terms import EMPTY, Atom, ExtSet, Int, Pair, Str, Var
from setsolve.typecheck import TInt, TSet

MODULES = [importlib.import_module(f"setsolve.{m.name}")
           for m in pkgutil.iter_modules(setsolve.__path__)]


def node_classes() -> list[type]:
    """The dataclasses that hash by value without being frozen."""
    return sorted((c for mod in MODULES for c in vars(mod).values()
                   if isinstance(c, type) and c.__module__ == mod.__name__
                   and dataclasses.is_dataclass(c)
                   and c.__dataclass_params__.unsafe_hash),
                  key=lambda c: c.__qualname__)


NODE_FIELDS = frozenset(f.name for c in node_classes() for f in dataclasses.fields(c))


def _attr_targets(t: ast.expr):
    if isinstance(t, ast.Attribute):
        yield t
    elif isinstance(t, (ast.Tuple, ast.List)):
        for e in t.elts:
            yield from _attr_targets(e)
    elif isinstance(t, ast.Starred):
        yield from _attr_targets(t.value)


def node_writes(source: str) -> list[int]:
    """Lines that assign, update or delete a node field of an object other
    than ``self``, or call ``setattr``, ``delattr`` or their dunders at all."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Assign, ast.Delete)):
            targets = n.targets
        elif isinstance(n, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
            targets = [n.target]
        elif isinstance(n, ast.Call):
            f = n.func
            if (isinstance(f, ast.Name) and f.id in ("setattr", "delattr")
                    or isinstance(f, ast.Attribute)
                    and f.attr in ("__setattr__", "__delattr__")):
                out.append(n.lineno)
            continue
        else:
            continue
        for t in targets:
            for a in _attr_targets(t):
                if a.attr in NODE_FIELDS and not (
                        isinstance(a.value, ast.Name) and a.value.id == "self"):
                    out.append(a.lineno)
    return out


def test_the_bulk_node_classes_are_the_unfrozen_value_classes():
    assert [c.__qualname__ for c in node_classes()] == sorted([
        "Var", "Atom", "Int", "Str", "Pair", "EmptySet", "ExtSet", "CP",
        "Interval",
        "TrueF", "FalseF", "QPayload", "Constraint", "And", "Or", "Neg",
        "Implies", "PredCall", "Clause", "Program",
        "ABin", "ANeg",
        "TInt", "TStr", "TBasic", "TEnum", "TProd", "TSet", "TV", "TNameVar",
        "Bind",
    ])
    for c in node_classes():
        assert not c.__dataclass_params__.frozen
        assert c.__dictoffset__ == 0, f"{c.__qualname__} instances have a __dict__"


def test_no_module_writes_a_node_field():
    for mod in MODULES:
        path = Path(mod.__file__)
        assert node_writes(path.read_text()) == [], path.name


@pytest.mark.parametrize("line", [
    't.name = "y"',
    "t.head, x = x, t",
    "t.args += (x,)",
    "t.body: object = x",
    "del t.tail",
    "for c.kind in kinds: pass",
    'setattr(t, "name", "y")',
    'object.__setattr__(t, "name", "y")',
])
def test_the_guard_sees_a_planted_write(line):
    assert node_writes(line) == [1]


@pytest.mark.parametrize("line", [
    'self.name = "y"',
    "s.queues = []",
    "x = t.name",
])
def test_the_guard_passes_what_is_not_a_node_write(line):
    assert node_writes(line) == []


def test_nodes_compare_and_hash_by_value():
    a = C("in", Var("X"), ExtSet(Pair(Atom("a"), Int(1)), EMPTY))
    b = C("in", Var("X"), ExtSet(Pair(Atom("a"), Int(1)), EMPTY))
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert TSet(TInt()) == TSet(TInt()) and hash(TSet(TInt())) == hash(TSet(TInt()))
    assert Var("x") != Atom("x")
    assert Int(1) != Str("1")


def test_repr_is_the_dataclass_repr():
    assert repr(Pair(Atom("a"), Var("X"))) == "Pair(first=Atom(name='a'), second=Var(name='X'))"
    assert repr(Constraint("in", (Var("X"), EMPTY))) == \
        "Constraint(kind='in', args=(Var(name='X'), EmptySet()), q=None)"
    assert repr(TSet(TInt())) == "TSet(elem=TInt())"
