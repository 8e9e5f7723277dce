"""Parser for formula/clause files (.slog), and the grammar core it shares.

Prolog-flavoured surface syntax: identifiers starting with an uppercase
letter or underscore are variables, everything else is an atom.  Clauses end
with a period, ``:-`` introduces directives and clause bodies, ``?-``
introduces queries, and ``%`` starts a line comment.

Machine files (``machines.py``) are written in the same constraint language,
so ``machines._MParser`` subclasses :class:`Parser`.  The lexer (``tokenize``),
the token helpers, types, terms, integer expressions, infix constraints and
the ``formula``/``or_formula``/``and_formula``/``prim_formula`` chain are
shared.  A subclass changes the lexical class attributes (comment character,
punctuation, word classifier, error class) and overrides these hooks:

* ``word`` turns a word token into a term (here: by case);
* ``sub_term`` reads a term nested in a pair, set, ``cp`` or ``int``;
* ``mark``/``reset`` save and restore the state a backtrack must undo;
* ``call`` reads a formula that starts with a word (constraint or predicate
  call), or failing that an infix constraint;
* ``quantifier`` reads ``foreach``/``exists``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from .arith import ABin, ANeg
from .formulas import (
    ARITY, INT_POS, Clause, Constraint, FalseF, Formula, Implies, KINDS, Neg,
    PredCall, Program, QPayload, TrueF, conj, disj,
)
from .terms import (
    CP, EMPTY, Atom, ExtSet, IllSorted, Int, Interval, Pair, Str, Term, Var,
    mkset,
)
from .typecheck import TBasic, TEnum, TInt, TNameVar, TProd, TSet, TStr


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg, self.line, self.col = msg, line, col


@dataclass(slots=True)
class Tok:
    kind: str   # atom|var|int|str|punct|eof
    val: str
    line: int
    col: int


_PUNCT2 = (":-", "?-", "=<", ">=")
_PUNCT1 = "()[]{},/=<>&.+-*?"


# The rest of a word: ``\w`` is exactly ``str.isalnum()`` or ``_``.
_WORD_REST = re.compile(r"\w*")


def _case_kind(word: str) -> str:
    return "var" if (word[0] == "_" or word[0].isupper()) else "atom"


def tokenize(text: str, comment: str = "%", punct2: tuple[str, ...] = _PUNCT2,
             punct1: str = _PUNCT1, word_kind: Callable[[str], str] = _case_kind,
             error: type[ParseError] = ParseError) -> list[Tok]:
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    starts2 = {p[0] for p in punct2}
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":  # the most common token first
            j = _WORD_REST.match(text, i + 1).end()
            word = text[i:j]
            toks.append(Tok(word_kind(word), word, line, col))
            col += j - i
            i = j
            continue
        if ch == comment:
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                               .get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise error("unterminated string", line, col)
            toks.append(Tok("str", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in starts2 and text[i:i + 2] in punct2:
            toks.append(Tok("punct", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch.isdecimal():  # what int() reads; "²" is a digit but no number
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in punct1:
            toks.append(Tok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# Infix constraint operators: the constraint kind, and whether the operands
# swap (``A >= B`` is ``le(B, A)``).  The printer writes the unswapped ones.
INFIX_OPS = {
    "=": ("eq", False), "neq": ("neq", False),
    "in": ("in", False), "nin": ("nin", False),
    "is": ("is", False),
    "=<": ("le", False), "<": ("lt", False),
    ">=": ("le", True), ">": ("lt", True),
}


class Parser:
    Error: type[ParseError] = ParseError
    COMMENT = "%"
    PUNCT2 = _PUNCT2
    PUNCT1 = _PUNCT1
    word_kind = staticmethod(_case_kind)

    def __init__(self, text: str):
        self.toks = tokenize(text, self.COMMENT, self.PUNCT2, self.PUNCT1,
                             self.word_kind, self.Error)
        self.i = 0

    def peek(self, ahead: int = 0) -> Tok:
        # ``next`` never moves past the final eof token, so only a lookahead
        # can run off the end.
        try:
            return self.toks[self.i + ahead]
        except IndexError:
            return self.toks[-1]

    def next(self) -> Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, val: str) -> Tok:
        t = self.next()
        if t.val != val or t.kind not in ("punct", "atom"):
            raise self.Error(f"expected {val!r}, found {t.val!r}", t.line, t.col)
        return t

    def at(self, val: str, kind: Optional[str] = None) -> bool:
        t = self.toks[self.i]
        return t.val == val and (kind is None or t.kind == kind)

    def comma_list(self, item: Callable[[], object]) -> list:
        """``item`` read once, and again after each comma."""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return self.Error(msg, t.line, t.col)

    # --- hooks ----------------------------------------------------------------

    def word(self, t: Tok) -> Term:
        """The term a consumed word token denotes."""
        return Var(t.val) if t.kind == "var" else Atom(t.val)

    def sub_term(self) -> Term:
        return self.term()

    def mark(self):
        return self.i

    def reset(self, mark) -> None:
        self.i = mark

    # --- terms and integer expressions -------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "var":
            self.next()
            return self.word(t)
        if t.kind == "int":
            self.next()
            return Int(int(t.val))
        if t.kind == "str":
            self.next()
            return Str(t.val)
        if t.val == "-":
            self.next()
            u = self.next()
            if u.kind != "int":
                raise self.Error("expected a number after -", u.line, u.col)
            return Int(-int(u.val))
        if t.val == "[":
            return self.pair()
        if t.val == "{":
            return self.set_term()
        if t.kind == "atom":
            if t.val in ("cp", "int") and self.peek(1).val == "(":
                a, b = self._two_args()
                try:
                    return CP(a, b) if t.val == "cp" else Interval(a, b)
                except IllSorted as e:
                    raise self.Error(str(e), t.line, t.col) from None
            self.next()
            return self.word(t)
        raise self.err(f"expected a term, found {t.val!r}")

    def _two_args(self) -> tuple[Term, Term]:
        self.next()
        self.expect("(")
        a = self.sub_term()
        self.expect(",")
        b = self.sub_term()
        self.expect(")")
        return a, b

    def pair(self) -> Pair:
        self.expect("[")
        a = self.sub_term()
        self.expect(",")
        b = self.sub_term()
        self.expect("]")
        return Pair(a, b)

    def set_term(self) -> Term:
        self.expect("{")
        if self.at("}"):
            self.next()
            return EMPTY
        elems = self.comma_list(self.sub_term)
        tail: Term = EMPTY
        if self.at("/"):
            self.next()
            tail = self.sub_term()
            if not isinstance(tail, (Var, ExtSet)) and tail != EMPTY:
                raise self.err("set tail must be a variable or a set")
        self.expect("}")
        return mkset(elems, tail)

    # These three read the current token once and test its value.
    def aexpr(self):
        e = self.amul()
        while (op := self.toks[self.i].val) == "+" or op == "-":
            self.next()
            e = ABin(op, e, self.amul())
        return e

    def amul(self):
        e = self.aunary()
        while (t := self.toks[self.i]).val == "*":
            self.next()
            e = ABin("*", e, self.aunary())
        if (t.val == "div" or t.val == "mod") and t.kind == "atom":
            raise self.err(f"'{t.val}' is not supported: integer "
                           f"expressions use +, - and *")
        return e

    def aunary(self):
        val = self.toks[self.i].val
        if val == "-":
            nxt = self.peek(1)
            if nxt.kind == "int":
                self.i += 2
                return Int(-int(nxt.val))
            self.next()
            return ANeg(self.aunary())
        if val == "(":
            self.next()
            e = self.aexpr()
            self.expect(")")
            return e
        return self.term()

    # --- types --------------------------------------------------------------

    def type_expr(self):
        t = self.peek()
        if t.kind == "var":
            self.next()
            return TNameVar(t.val)
        if self.at("["):
            self.next()
            parts = self.comma_list(self.type_expr)
            self.expect("]")
            if len(parts) < 2:
                raise self.Error("product type needs at least two components",
                                 t.line, t.col)
            return TProd(tuple(parts))
        if t.kind != "atom":
            raise self.err(f"expected a type, found {t.val!r}")
        self.next()
        if self.at("?"):
            raise self.Error("ur-element types are not supported", t.line, t.col)
        if t.val == "int":
            return TInt()
        if t.val == "str":
            return TStr()
        if t.val == "etype":
            self.expect("(")
            self.expect("[")
            members = self.comma_list(self._atom_name)
            self.expect("]")
            self.expect(")")
            if len(members) < 2:
                raise self.Error("etype needs at least two members", t.line, t.col)
            return TEnum(tuple(members))
        if t.val == "stype":
            self.expect("(")
            inner = self.type_expr()
            self.expect(")")
            return TSet(inner)
        return TBasic(t.val)

    def _atom_name(self) -> str:
        t = self.next()
        if t.kind != "atom":
            raise self.Error(f"expected an atom, found {t.val!r}", t.line, t.col)
        return t.val

    def _local_name(self) -> str:
        t = self.next()
        if t.kind != "var":
            raise self.Error("locals must be variables", t.line, t.col)
        return t.val

    # --- formulas -------------------------------------------------------------

    def formula(self) -> Formula:
        left = self.or_formula()
        if self.at("implies", "atom"):
            self.next()
            return Implies(left, self.formula())
        return left

    def or_formula(self) -> Formula:
        parts = [self.and_formula()]
        while self.at("or", "atom"):
            self.next()
            parts.append(self.and_formula())
        return disj(parts) if len(parts) > 1 else parts[0]

    def and_formula(self) -> Formula:
        parts = [self.prim_formula()]
        while self.at("&"):
            self.next()
            parts.append(self.prim_formula())
        return conj(parts) if len(parts) > 1 else parts[0]

    def prim_formula(self) -> Formula:
        t = self.peek()
        if t.kind == "atom":
            opens = self.peek(1).val == "("
            if t.val == "true" and not opens:
                self.next()
                return TrueF()
            if t.val == "false" and not opens:
                self.next()
                return FalseF()
            if t.val == "neg" and opens:
                self.next()
                self.expect("(")
                f = self.formula()
                self.expect(")")
                return Neg(f)
            if t.val in ("foreach", "exists") and opens:
                return self.quantifier()
        if self.at("("):
            # A parenthesis can open a formula or an integer expression;
            # backtrack if the formula reading fails.
            save = self.mark()
            try:
                self.next()
                f = self.formula()
                self.expect(")")
                if self._at_infix():
                    raise self.Error("backtrack", t.line, t.col)
                return f
            except ParseError:
                self.reset(save)
                return self.infix_constraint()
        return self.call(t)

    def call(self, t: Tok) -> Formula:
        """``dec``, a constraint or a predicate call; failing those, an
        infix constraint."""
        if t.kind != "atom":
            return self.infix_constraint()
        if self.peek(1).val != "(":
            if self._tok_infix(self.peek(1)):
                return self.infix_constraint()
            self.next()
            return PredCall(t.val, ())
        if t.val == "dec":
            self.next()
            self.expect("(")
            v = self.term()
            self.expect(",")
            ty = self.type_expr()
            self.expect(")")
            if not isinstance(v, Var):
                raise self.Error("dec needs a variable", t.line, t.col)
            return Constraint("dec", (v, ty))
        if t.val in ("cp", "int"):
            return self.infix_constraint()
        save = self.i
        name = self.next().val
        self.expect("(")
        args = self.comma_list(self.aexpr)
        self.expect(")")
        if self._at_infix():
            # It was a term after all (no term functors exist, so the
            # only legal reading is an error further up).
            self.i = save
            return self.infix_constraint()
        if name in KINDS:
            return self.constraint(name, args, t)
        return PredCall(name, tuple(args))

    def constraint(self, kind: str, args: list, t: Tok) -> Constraint:
        """``kind(args)``, after checking its arity and that integer
        expressions stand only in the integer positions of its signature."""
        if ARITY.get(kind) != len(args):
            raise self.Error(f"{kind} takes {ARITY.get(kind)} arguments",
                             t.line, t.col)
        for i, a in enumerate(args):
            if not isinstance(a, Term) and i not in INT_POS[kind]:
                raise self.Error(f"argument {i + 1} of {kind} must be a term, "
                                 "not an integer expression", t.line, t.col)
        return Constraint(kind, tuple(args))

    def _tok_infix(self, t: Tok) -> bool:
        return t.val in INFIX_OPS and t.kind in ("punct", "atom")

    def _at_infix(self) -> bool:
        return self._tok_infix(self.peek())

    def infix_constraint(self) -> Formula:
        t = self.peek()
        a = self.aexpr()
        op = self.peek()
        if not self._at_infix():
            raise self.Error(f"expected a constraint operator, found {op.val!r}",
                             op.line, op.col)
        self.next()
        b = self.aexpr()
        kind, swap = INFIX_OPS[op.val]
        if swap:
            a, b = b, a
        if kind == "is" and not isinstance(a, Term):
            raise self.Error("the left side of is must be a variable or number",
                             t.line, t.col)
        return self.constraint(kind, [a, b], t)

    def quantifier(self) -> Formula:
        kw = self.next().val
        self.expect("(")
        if self.at("["):
            binder: Term = self.pair()
            if not (isinstance(binder, Pair) and isinstance(binder.first, Var)
                    and isinstance(binder.second, Var)):
                raise self.err("quantifier pattern must be a pair of variables")
        else:
            t = self.next()
            if t.kind != "var":
                raise self.Error("quantifier needs a variable", t.line, t.col)
            binder = Var(t.val)
        self.expect("in")
        dom = self.term()
        self.expect(",")
        locals_: tuple[str, ...] = ()
        funcs: Optional[Formula] = None
        if self.at("["):
            self.next()
            names = [] if self.at("]") else self.comma_list(self._local_name)
            self.expect("]")
            self.expect(",")
            locals_ = tuple(names)
            body = self.formula()
            self.expect(",")
            funcs = self.formula()
            if isinstance(funcs, TrueF):
                funcs = None
            self.expect(")")
        else:
            body = self.formula()
            self.expect(")")
        return Constraint(kw, (), q=QPayload(binder, dom, locals_, body, funcs))

    # --- statements ---------------------------------------------------------

    def program(self) -> Program:
        clauses: dict = {}
        pred_types: dict = {}
        type_defs: dict = {}
        queries: list[Formula] = []
        while self.peek().kind != "eof":
            t = self.peek()
            if self.at(":-"):
                self.next()
                self.directive(pred_types, type_defs)
                self.expect(".")
                continue
            if self.at("?-"):
                self.next()
                queries.append(self.formula())
                self.expect(".")
                continue
            cl = self.clause()
            key = (cl.name, len(cl.params))
            if key in clauses:
                raise self.Error(f"duplicate clause for {cl.name}/{len(cl.params)}",
                                 t.line, t.col)
            clauses[key] = cl
            self.expect(".")
        return Program(clauses, pred_types, type_defs, queries)

    def directive(self, pred_types: dict, type_defs: dict) -> None:
        t = self.next()
        if t.val == "dec_p_type" and t.kind == "atom":
            self.expect("(")
            name = self._atom_name()
            self.expect("(")
            sig = self.comma_list(self.type_expr)
            self.expect(")")
            self.expect(")")
            pred_types[(name, len(sig))] = tuple(sig)
            return
        if t.val == "def_type" and t.kind == "atom":
            self.expect("(")
            name = self._atom_name()
            self.expect(",")
            ty = self.type_expr()
            self.expect(")")
            type_defs[name] = ty
            return
        raise self.Error(f"unknown directive {t.val!r}", t.line, t.col)

    def clause(self) -> Clause:
        t = self.next()
        if t.kind != "atom":
            raise self.Error(f"expected a clause head, found {t.val!r}", t.line, t.col)
        name = t.val
        params: list[str] = []
        if self.at("("):
            self.next()

            def param() -> None:
                p = self.next()
                if p.kind != "var":
                    raise self.Error("clause parameters must be distinct variables",
                                     p.line, p.col)
                if p.val in params:
                    raise self.Error(f"duplicate parameter {p.val}", p.line, p.col)
                params.append(p.val)

            self.comma_list(param)
            self.expect(")")
        body: Formula = TrueF()
        if self.at(":-"):
            self.next()
            body = self.formula()
        return Clause(name, tuple(params), body)


def parse_formula(text: str) -> Formula:
    p = Parser(text)
    f = p.formula()
    if p.at("."):
        p.next()
    if p.peek().kind != "eof":
        raise p.err(f"trailing input {p.peek().val!r}")
    return f


def parse_program(text: str) -> Program:
    return Parser(text).program()


def parse_term(text: str) -> Term:
    p = Parser(text)
    t = p.term()
    if p.peek().kind != "eof":
        raise p.err(f"trailing input {p.peek().val!r}")
    return t
