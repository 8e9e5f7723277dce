"""Parser for formula/clause files (.slog), and the grammar core it shares.

Prolog-flavoured surface syntax: identifiers starting with an uppercase
letter or underscore are variables, everything else is an atom.  Clauses end
with a period, ``:-`` introduces directives and clause bodies, ``?-``
introduces queries, and ``%`` starts a line comment.

The lexer is one pattern per grammar, built from its comment character and
punctuation.  ``Parser.toks`` is the list of token strings as the text spells
them, a string literal with its quotes, followed by ``""`` for the end.  A
token's first character tells its class: a letter or ``_`` starts a word, a
digit an integer, ``"`` a string, and anything else is punctuation.  Which
words are variables, ``word_kind`` tells where the grammar asks.  A bad
character or an unterminated string is reported before parsing starts.  The
line and column of an error are computed only when it is raised: the first
error of a parse runs the pattern again to find where each token starts.

Machine files (``machines.py``) are written in the same constraint language,
so ``machines._MParser`` subclasses :class:`Parser`.  The lexer, the token
helpers, types, terms, integer expressions, infix constraints and the
``formula``/``or_formula``/``and_formula``/``prim_formula`` chain are
shared.  A subclass changes the lexical class attributes (comment character,
punctuation, word classifier, error class) and overrides these hooks:

* ``word`` turns a consumed word into a term (here: by case);
* ``sub_term`` reads a term nested in a pair, set, ``cp`` or ``int``;
* ``mark``/``reset`` save and restore the state a backtrack must undo;
* ``call`` reads a formula that starts with a word (constraint or predicate
  call), or failing that an infix constraint;
* ``quantifier`` reads ``foreach``/``exists``.
"""
from __future__ import annotations

import functools
import re
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


_PUNCT2 = (":-", "?-", "=<", ">=")
_PUNCT1 = "()[]{},/=<>&.+-*?"


@functools.cache
def _lexer(comment: str, punct2: tuple[str, ...],
           punct1: str) -> tuple[re.Pattern, re.Pattern]:
    r"""A grammar's two patterns: blanks and comments, and one token with the
    blanks and comments after it.

    A token is a word (``\w`` after a letter or ``_``), a punctuation mark,
    an integer (what ``int()`` reads) or a string literal with its quotes.
    Where no token starts, at a bad character or at the end, the group
    matches empty.  ``[^\W\d]`` also admits a numeral such as ``²``, which
    starts no word; ``Parser.__init__`` rejects it.
    """
    skip = rf"[ \t\r\n]*(?:{re.escape(comment)}.*[ \t\r\n]*)*"
    token = "|".join((
        r"[^\W\d]\w*", *map(re.escape, punct2), f"[{re.escape(punct1)}]",
        r"\d+", r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'))
    return re.compile(skip), re.compile(f"({token}|){skip}")


def _numeral(c: str) -> bool:
    """``c`` is a numeral that is no letter and no digit ``int()`` reads."""
    return c.isnumeric() and not (c.isalpha() or c.isdecimal())


_ESCAPE = re.compile(r"\\(.)", re.S)


def _unquote(lexeme: str) -> str:
    """The value of a string literal: ``\\n`` is a newline, ``\\t`` a tab,
    and a backslash before any other character stands for that character."""
    return _ESCAPE.sub(lambda m: {"n": "\n", "t": "\t"}.get(m[1], m[1]),
                       lexeme[1:-1])


def _case_kind(word: str) -> str:
    return "var" if (word[0] == "_" or word[0].isupper()) else "atom"


# Words that open a formula of their own: ``true``, ``false``, ``neg(...)``
# and the quantifiers.
_PRIM_WORDS = frozenset(("true", "false", "neg", "foreach", "exists"))

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
        self.text = text
        self.skip, self.lex = _lexer(self.COMMENT, self.PUNCT2, self.PUNCT1)
        # One token string a match, and "" where no token starts: at the end,
        # and before it at a bad character or an unterminated string.
        self.toks = toks = self.lex.findall(text, self.skip.match(text).end())
        self.i = 0
        bad = toks.index("")
        if not text.isascii():  # a numeral such as "²" starts no word
            bad = next((k for k in range(bad) if _numeral(toks[k][0])), bad)
        if bad < len(toks) - 1:
            c = text[self.starts[bad]]
            raise self.err("unterminated string" if c == '"'
                           else f"unexpected character {c!r}", bad)

    @functools.cached_property
    def starts(self) -> list[int]:
        """Where each token starts: the lexer runs again at the first error,
        so that a backtrack over many failed readings pays for it once."""
        found = self.lex.finditer(self.text, self.skip.match(self.text).end())
        return [m.start() for m in found]

    def err(self, msg: str, at: Optional[int] = None) -> ParseError:
        """``msg`` at token ``at``, by default the current one."""
        off = self.starts[self.i if at is None else at]
        line = self.text.count("\n", 0, off) + 1
        return self.Error(msg, line, off - self.text.rfind("\n", 0, off))

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        """The current token, after which the parser moves on, except at the
        final ""."""
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def expect(self, val: str) -> None:
        if self.toks[self.i] != val:
            raise self.err(f"expected {val!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def at(self, val: str) -> bool:
        return self.toks[self.i] == val

    def is_var(self, t: str) -> bool:
        c = t[:1]
        return (c.isalpha() or c == "_") and self.word_kind(t) == "var"

    def is_atom(self, t: str) -> bool:
        c = t[:1]
        return (c.isalpha() or c == "_") and self.word_kind(t) == "atom"

    def comma_list(self, item: Callable[[], object]) -> list:
        """``item`` read once, and again after each comma."""
        out = [item()]
        while self.toks[self.i] == ",":
            self.i += 1
            out.append(item())
        return out

    # --- hooks ----------------------------------------------------------------

    def word(self, t: str) -> Term:
        """The term a consumed word denotes."""
        return Var(t) if self.word_kind(t) == "var" else Atom(t)

    def sub_term(self) -> Term:
        return self.term()

    def mark(self):
        return self.i

    def reset(self, mark) -> None:
        self.i = mark

    # --- terms and integer expressions -------------------------------------

    def term(self) -> Term:
        i = self.i
        t = self.toks[i]
        c = t[:1]
        if c.isalpha() or c == "_":
            if (t == "cp" or t == "int") and self.toks[i + 1] == "(":
                a, b = self._two_args()
                try:
                    return CP(a, b) if t == "cp" else Interval(a, b)
                except IllSorted as e:
                    raise self.err(str(e), i) from None
            self.i = i + 1
            return self.word(t)
        if c.isdecimal():
            self.i = i + 1
            return Int(self.number(i))
        if c == '"':
            self.i = i + 1
            return Str(_unquote(t))
        if t == "-":
            u = self.toks[i + 1]
            if not u[:1].isdecimal():
                raise self.err("expected a number after -", i + 1)
            self.i = i + 2
            return Int(-self.number(i + 1))
        if t == "[":
            return self.pair()
        if t == "{":
            return self.set_term()
        raise self.err(f"expected a term, found {t!r}")

    def number(self, at: int) -> int:
        """The value of the integer literal at token ``at``."""
        try:
            return int(self.toks[at])
        except ValueError:  # more digits than ``int()`` converts
            raise self.err("integer literal too long", at) from None

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
        while (op := self.toks[self.i]) == "+" or op == "-":
            self.i += 1
            e = ABin(op, e, self.amul())
        return e

    def amul(self):
        e = self.aunary()
        while (t := self.toks[self.i]) == "*":
            self.i += 1
            e = ABin("*", e, self.aunary())
        if t == "div" or t == "mod":
            raise self.err(f"'{t}' is not supported: integer "
                           f"expressions use +, - and *")
        return e

    def aunary(self):
        t = self.toks[self.i]
        if t == "-":
            nxt = self.toks[self.i + 1]
            if nxt[:1].isdecimal():
                self.i += 2
                return Int(-self.number(self.i - 1))
            self.i += 1
            return ANeg(self.aunary())
        if t == "(":
            self.i += 1
            e = self.aexpr()
            self.expect(")")
            return e
        return self.term()

    # --- types --------------------------------------------------------------

    def type_expr(self):
        k = self.i
        t = self.toks[k]
        if self.is_var(t):
            self.i += 1
            return TNameVar(t)
        if t == "[":
            self.i += 1
            parts = self.comma_list(self.type_expr)
            self.expect("]")
            if len(parts) < 2:
                raise self.err("product type needs at least two components", k)
            return TProd(tuple(parts))
        if not self.is_atom(t):
            raise self.err(f"expected a type, found {t!r}")
        self.i += 1
        if self.at("?"):
            raise self.err("ur-element types are not supported", k)
        if t == "int":
            return TInt()
        if t == "str":
            return TStr()
        if t == "etype":
            self.expect("(")
            self.expect("[")
            members = self.comma_list(self._atom_name)
            self.expect("]")
            self.expect(")")
            if len(members) < 2:
                raise self.err("etype needs at least two members", k)
            return TEnum(tuple(members))
        if t == "stype":
            self.expect("(")
            inner = self.type_expr()
            self.expect(")")
            return TSet(inner)
        return TBasic(t)

    def _atom_name(self) -> str:
        t = self.toks[self.i]
        if not self.is_atom(t):
            raise self.err(f"expected an atom, found {t!r}")
        self.i += 1
        return t

    def _local_name(self) -> str:
        t = self.toks[self.i]
        if not self.is_var(t):
            raise self.err("locals must be variables")
        self.i += 1
        return t

    # --- formulas -------------------------------------------------------------

    def formula(self) -> Formula:
        left = self.or_formula()
        if self.at("implies"):
            self.next()
            return Implies(left, self.formula())
        return left

    def or_formula(self) -> Formula:
        parts = [self.and_formula()]
        while self.at("or"):
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
        t = self.toks[self.i]
        if t in _PRIM_WORDS:
            opens = self.toks[self.i + 1] == "("
            if t == "true" and not opens:
                self.next()
                return TrueF()
            if t == "false" and not opens:
                self.next()
                return FalseF()
            if t == "neg" and opens:
                self.next()
                self.expect("(")
                f = self.formula()
                self.expect(")")
                return Neg(f)
            if t in ("foreach", "exists") and opens:
                return self.quantifier()
        if t == "(":
            # A parenthesis can open a formula or an integer expression;
            # backtrack if the formula reading fails.
            save = self.mark()
            try:
                self.next()
                f = self.formula()
                self.expect(")")
                if self.toks[self.i] in INFIX_OPS:
                    raise self.Error("backtrack")
                return f
            except ParseError:
                self.reset(save)
                return self.infix_constraint()
        return self.call(t)

    def call(self, t: str) -> Formula:
        """``dec``, a constraint or a predicate call; failing those, an
        infix constraint."""
        if not self.is_atom(t):
            return self.infix_constraint()
        k = self.i
        if self.toks[k + 1] != "(":
            if self.toks[k + 1] in INFIX_OPS:
                return self.infix_constraint()
            self.next()
            return PredCall(t, ())
        if t == "dec":
            self.next()
            self.expect("(")
            v = self.term()
            self.expect(",")
            ty = self.type_expr()
            self.expect(")")
            if not isinstance(v, Var):
                raise self.err("dec needs a variable", k)
            return Constraint("dec", (v, ty))
        if t in ("cp", "int"):
            return self.infix_constraint()
        self.next()
        self.expect("(")
        args = self.comma_list(self.aexpr)
        self.expect(")")
        if self.toks[self.i] in INFIX_OPS:
            # It was a term after all (no term functors exist, so the
            # only legal reading is an error further up).
            self.i = k
            return self.infix_constraint()
        if t in KINDS:
            return self.constraint(t, args, k)
        return PredCall(t, tuple(args))

    def constraint(self, kind: str, args: list, at: int) -> Constraint:
        """``kind(args)``, after checking its arity and that integer
        expressions stand only in the integer positions of its signature;
        an error is reported at token ``at``."""
        if ARITY.get(kind) != len(args):
            raise self.err(f"{kind} takes {ARITY.get(kind)} arguments", at)
        for i, a in enumerate(args):
            if not isinstance(a, Term) and i not in INT_POS[kind]:
                raise self.err(f"argument {i + 1} of {kind} must be a term, "
                               "not an integer expression", at)
        return Constraint(kind, tuple(args))

    def infix_constraint(self) -> Formula:
        k = self.i
        a = self.aexpr()
        op = self.toks[self.i]
        if op not in INFIX_OPS:
            raise self.err(f"expected a constraint operator, found {op!r}")
        self.i += 1
        b = self.aexpr()
        kind, swap = INFIX_OPS[op]
        if swap:
            a, b = b, a
        if kind == "is" and not isinstance(a, Term):
            raise self.err("the left side of is must be a variable or number", k)
        return self.constraint(kind, [a, b], k)

    def quantifier(self) -> Formula:
        kw = self.next()
        self.expect("(")
        if self.at("["):
            binder: Term = self.pair()
            if not (isinstance(binder, Pair) and isinstance(binder.first, Var)
                    and isinstance(binder.second, Var)):
                raise self.err("quantifier pattern must be a pair of variables")
        else:
            t = self.toks[self.i]
            if not self.is_var(t):
                raise self.err("quantifier needs a variable")
            self.i += 1
            binder = Var(t)
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
        while self.toks[self.i]:
            k = self.i
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
                raise self.err(f"duplicate clause for {cl.name}/{len(cl.params)}", k)
            clauses[key] = cl
            self.expect(".")
        return Program(clauses, pred_types, type_defs, queries)

    def directive(self, pred_types: dict, type_defs: dict) -> None:
        t = self.toks[self.i]
        if t == "dec_p_type":
            self.next()
            self.expect("(")
            name = self._atom_name()
            self.expect("(")
            sig = self.comma_list(self.type_expr)
            self.expect(")")
            self.expect(")")
            pred_types[(name, len(sig))] = tuple(sig)
            return
        if t == "def_type":
            self.next()
            self.expect("(")
            name = self._atom_name()
            self.expect(",")
            ty = self.type_expr()
            self.expect(")")
            type_defs[name] = ty
            return
        raise self.err(f"unknown directive {t!r}")

    def clause(self) -> Clause:
        name = self.toks[self.i]
        if not self.is_atom(name):
            raise self.err(f"expected a clause head, found {name!r}")
        self.next()
        params: list[str] = []
        if self.at("("):
            self.next()

            def param() -> None:
                p = self.toks[self.i]
                if not self.is_var(p):
                    raise self.err("clause parameters must be distinct variables")
                if p in params:
                    raise self.err(f"duplicate parameter {p}")
                self.i += 1
                params.append(p)

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
    if p.peek():
        raise p.err(f"trailing input {p.peek()!r}")
    return f


def parse_program(text: str) -> Program:
    return Parser(text).program()


def parse_term(text: str) -> Term:
    p = Parser(text)
    t = p.term()
    if p.peek():
        raise p.err(f"trailing input {p.peek()!r}")
    return t
