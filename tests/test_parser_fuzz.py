"""Token-level edits of the bundled inputs: each parses or fails with a position.

Every edited text is either parsed, or rejected with a ``ParseError`` (or
``MachineError``) whose line and column fall inside the text; any other
exception fails.  An edit drops, duplicates or swaps a token, or inserts a
punctuation character or a non-ASCII letter or digit before or after one.
The token spans come from a pattern of this file, not from the parser's
lexer, so that a lexer fault cannot hide itself.
"""
import re

from hypothesis import HealthCheck, given, settings, strategies as st
from setsolve.corpus import corpus_text
from setsolve.machines import parse_machine
from setsolve.parser import ParseError, parse_program

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|\w+|:=|:-|\?-|=<|>=|\S')
_INSERTS = "()[]{},/=<>&.:+-*?$\"%#_" + "éßΩ²٣一Ⅷ"

_INPUTS = [(parse_machine, corpus_text(name)) for name in
           ("gears.smch", "doors.smch", "gears_intermediate.smch")]
_INPUTS.append((parse_program, corpus_text("examples.slog")))
_SPANS = [[m.span() for m in _TOKEN.finditer(text)] for _, text in _INPUTS]


@st.composite
def edited(draw):
    n = draw(st.integers(0, len(_INPUTS) - 1))
    parse, text = _INPUTS[n]
    spans = _SPANS[n]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    op = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")))
    if op == "drop":
        return parse, text[:a] + text[b:]
    if op == "duplicate":
        return parse, text[:b] + " " + text[a:b] + text[b:]
    if op == "swap":
        c, d = spans[draw(st.integers(0, len(spans) - 1))]
        if c < a:
            a, b, c, d = c, d, a, b
        if b > c:
            return parse, text
        return parse, text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    at = draw(st.sampled_from((a, b)))
    return parse, text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited())
def test_an_edited_input_parses_or_fails_with_a_position_inside_it(case):
    parse, text = case
    try:
        parse(text)
    except ParseError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines), (str(e), text)
        assert 1 <= e.col <= len(lines[e.line - 1]) + 1, (str(e), text)
