"""Finite-set constraint solving and machine verification.

The package answers queries over hereditarily finite sets (membership,
union, disjointness, relational images, partial functions, integer
arithmetic), proves formulas by refuting their negation, and applies the
same engine to state machines: it generates initialisation, invariant
preservation and well-definedness obligations and discharges or refutes
each one, producing ground counterexamples for the failures.

Entry points: :func:`solve` for queries, :func:`parse_formula`,
:func:`parse_program` and :func:`parse_machine` for the two surface
syntaxes, :func:`verify_machine` and :func:`report_json` for machines,
:func:`initial_state` and :func:`step` for animation, and
:func:`load_corpus` for the bundled examples.
"""
from .corpus import CorpusCase, CorpusError, load_corpus
from .engine import Result, Solution, ground_complete, solve
from .formulas import (
    And, C, Constraint, FalseF, Formula, Implies, Neg, Or, PredCall, Program,
    TrueF, conj, disj, formula_vars,
)
from .machines import Machine, MachineError, parse_machine
from .negate import NotNegatable, negate
from .parser import ParseError, parse_formula, parse_program
from .printer import pp_formula, pp_term
from .terms import (
    CP, EMPTY, Atom, EmptySet, ExtSet, Int, Interval, Pair, Str, Term, Var,
    VarGen, is_ground, mkset, set_parts,
)
from .typecheck import TypeEnv, check_formula, check_program
from .verifier import (
    PO, GuardNotSatisfied, POResult, VerifyError, discharge, generate_pos,
    initial_state, report_json, step, typecheck_machine, verify_machine,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "C", "CP", "Constraint", "CorpusCase", "CorpusError",
    "EMPTY", "EmptySet", "ExtSet", "FalseF", "Formula", "GuardNotSatisfied",
    "Implies", "Int", "Interval", "Machine", "MachineError", "Neg",
    "NotNegatable", "Or", "PO", "POResult", "Pair", "ParseError", "PredCall",
    "Program", "Result", "Solution", "Str", "Term", "TrueF", "TypeEnv", "Var",
    "VarGen", "VerifyError", "check_formula", "check_program", "conj",
    "discharge", "disj", "formula_vars", "generate_pos", "ground_complete",
    "initial_state", "is_ground", "load_corpus", "mkset", "negate",
    "parse_formula", "parse_machine", "parse_program", "pp_formula", "pp_term",
    "report_json", "set_parts", "solve", "step", "typecheck_machine",
    "verify_machine",
]
