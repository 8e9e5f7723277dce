"""Command line front end.

Five subcommands: ``solve`` runs queries and prints answers, ``prove``
refutes the negation of a goal, ``typecheck`` reports type errors,
``verify`` discharges the proof obligations of a machine, and ``animate``
replays an event trace.  Exit codes: 0 success (all proved / satisfiable),
1 a definitive negative (unsatisfiable query, counterexample, disproved
obligation), 2 unknown, 3 usage, parse or type errors.  ``prove`` names the
cause of an unknown: ``budget``, ``timeout``, ``ungroundable`` (an answer
that does not ground) or ``ill_sorted``.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Optional

from .engine import Result, Solution, ground_complete, solve
from .formulas import Formula, IllFormed, Neg, Program
from .machines import parse_machine
from .negate import NotNegatable
from .parser import ParseError, parse_formula, parse_program, parse_term
from .printer import pp_formula, pp_term
from .terms import Term
from .typecheck import check_program
from .verifier import (
    GuardNotSatisfied, VerifyError, initial_state, report_json, step,
    typecheck_machine, verify_machine,
)

OK, REFUTED, UNKNOWN, USAGE = 0, 1, 2, 3

class _Argv(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE)


class _Timeout(Exception):
    pass


def _with_timeout(seconds: Optional[float], thunk):
    """Run ``thunk`` under a wall-clock limit; None means no limit."""
    if not seconds:
        return thunk()

    def alarm(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _stderr_trace(kind, step, constraint, result):
    """One JSON object per rewrite step: its number, the kind, the printed
    constraint, and the result, ``"park"``, ``"ill_sorted"`` or a branch
    count."""
    event = {"step": step, "kind": kind, "constraint": pp_formula(constraint),
             "result": result}
    print(json.dumps(event), file=sys.stderr)


def _parse_file(path: str, parse):
    """Parse a program or machine file; a parse error names the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ParseError as e:
        raise ParseError(f"{path}:{e}" if e.line else f"{path}: {e}") from None


def _load_goals(ns) -> tuple[list[Formula], Optional[Program]]:
    """Goals from -e or from the queries of a program file."""
    if ns.expr is not None:
        return [parse_formula(ns.expr)], None
    if ns.file is None:
        print("give a program file or -e EXPR", file=sys.stderr)
        raise SystemExit(USAGE)
    if ns.file.endswith(".smch"):
        print("machines are verified or animated, not solved", file=sys.stderr)
        raise SystemExit(USAGE)
    prog = _parse_file(ns.file, parse_program)
    if not prog.queries:
        print(f"{ns.file}: no queries", file=sys.stderr)
        raise SystemExit(USAGE)
    return list(prog.queries), prog


def _answer_line(sol: Solution) -> str:
    parts = [f"{name} = {pp_term(t)}" for name, t in sorted(sol.bindings.items())]
    parts += [pp_formula(c) for c in sol.residual]
    return ", ".join(parts) if parts else "Sat."


def cmd_solve(ns) -> int:
    goals, prog = _load_goals(ns)
    worst = OK
    for i, goal in enumerate(goals, 1):
        if len(goals) > 1:
            print(f"-- query {i}")
        try:
            res: Result = _with_timeout(ns.timeout, lambda: solve(
                goal, program=prog, budget=ns.budget,
                max_solutions=1000 if ns.all else 1,
                trace=_stderr_trace if ns.trace else None))
        except _Timeout:
            print("Unknown.")
            worst = max(worst, UNKNOWN)
            continue
        if res.unsat:
            print("Unsat.")
            worst = max(worst, REFUTED)
        elif res.solutions:
            for sol in res.solutions:
                print(_answer_line(sol))
        else:
            print("Unknown.")
            worst = max(worst, UNKNOWN)
    return worst


def cmd_prove(ns) -> int:
    goals, prog = _load_goals(ns)
    theorem, refuted, unknown = 0, 0, 0
    for i, goal in enumerate(goals, 1):
        if len(goals) > 1:
            print(f"-- goal {i}")
        try:
            res = _with_timeout(ns.timeout, lambda: solve(
                Neg(goal), program=prog, budget=ns.budget,
                trace=_stderr_trace if ns.trace else None))
        except _Timeout:
            print("Unknown (timeout).")
            unknown += 1
            continue
        if res.unsat and not res.ill_sorted:
            print("Theorem.")
            theorem += 1
        elif res.solutions and ground_complete(res.solutions[0]) is not None:
            print("Counterexample.")
            print(_answer_line(res.solutions[0]))
            refuted += 1
        else:
            cause = ("ill_sorted" if res.unsat
                     else "ungroundable" if res.solutions else "budget")
            print(f"Unknown ({cause}).")
            unknown += 1
    if refuted:
        return REFUTED
    if unknown:
        return UNKNOWN
    return OK


def cmd_typecheck(ns) -> int:
    if ns.file.endswith(".smch"):
        errors = typecheck_machine(_parse_file(ns.file, parse_machine))
    else:
        errors = [str(e) for e in check_program(_parse_file(ns.file, parse_program))]
    for e in errors:
        print(e)
    if errors:
        return USAGE
    print("ok")
    return OK


def _print_results(results) -> None:
    width = max((len(r.po.po_id) for r in results), default=0) + 2
    for r in results:
        line = f"{r.po.po_id:<{width}}{r.status}"
        if r.hyps_used:
            line += "  [" + ", ".join(r.hyps_used) + "]"
        if r.note:
            line += f"  ({r.note})"
        print(line)
        if r.counterexample is not None:
            for k, v in sorted(r.counterexample.items()):
                print(f"    {k} = {pp_term(v)}")
    kinds = {"INIT": 0, "WD": 0, "INV": 0}
    tally = {"Proved": 0, "Disproved": 0, "Unknown": 0}
    for r in results:
        kinds[r.po.kind] += 1
        tally[r.status] += 1
    print(f"{len(results)} POs: {tally['Proved']} proved, "
          f"{tally['Disproved']} disproved, {tally['Unknown']} unknown "
          f"(INIT {kinds['INIT']}, WD {kinds['WD']}, INV {kinds['INV']})")


def cmd_verify(ns) -> int:
    m = _parse_file(ns.file, parse_machine)
    results = verify_machine(m, budget=ns.budget, po_id=ns.po)
    if ns.po is not None and not results:
        print(f"no obligation named {ns.po!r}", file=sys.stderr)
        return USAGE
    _print_results(results)
    if ns.json:
        with open(ns.json, "w") as fh:
            json.dump(report_json(m, results), fh, indent=2)
            fh.write("\n")
    if any(r.status == "Disproved" for r in results):
        return REFUTED
    if any(r.status == "Unknown" for r in results):
        return UNKNOWN
    return OK


def _value_term(text: str, path: str, ln: int) -> Term:
    """One value of a carriers or trace file; an error names the file line."""
    try:
        return parse_term(text)
    except ParseError as e:
        raise ParseError(f"{path}:{ln}: in {text!r}: {e.msg}") from None


def _load_carriers(path: str) -> dict[str, Term]:
    out: dict[str, Term] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{ln}: expected 'name = set'")
            name, val = line.split("=", 1)
            out[name.strip()] = _value_term(val.strip(), path, ln)
    return out


def _parse_trace_line(line: str, path: str, ln: int) -> tuple[str, dict[str, Term]]:
    head, _, rest = line.partition(" ")
    args: dict[str, Term] = {}
    for chunk in rest.split():
        if "=" not in chunk:
            raise ParseError(f"{path}:{ln}: expected param=value, found {chunk!r}")
        k, v = chunk.split("=", 1)
        args[k] = _value_term(v, path, ln)
    return head, args


def _print_state(label: str, state: dict[str, Term]) -> None:
    print(label)
    for k, v in sorted(state.items()):
        print(f"    {k} = {pp_term(v)}")


def cmd_animate(ns) -> int:
    m = _parse_file(ns.file, parse_machine)
    carriers = _load_carriers(ns.carriers) if ns.carriers else None
    state = initial_state(m, budget=ns.budget, carriers=carriers)
    _print_state("state 0", state)
    with open(ns.trace) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    n = 0
    for ln, line in enumerate(lines, start=1):
        if not line:
            continue
        event, args = _parse_trace_line(line, ns.trace, ln)
        try:
            succs = step(m, state, event, args, budget=ns.budget, carriers=carriers)
        except GuardNotSatisfied as e:
            print(f"stuck: {e}")
            return REFUTED
        n += 1
        state = succs[0]
        tag = f" (one of {len(succs)} successors)" if len(succs) > 1 else ""
        _print_state(f"state {n} after {event}{tag}", state)
    return OK


def _common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=200_000,
                   help="rewrite step budget (default 200000)")
    p.add_argument("--trace", action="store_true",
                   help="log every rewrite step to stderr, one JSON object a line")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall clock limit in seconds")


def _goal_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default=None,
                   help="program file whose queries are run")
    p.add_argument("-e", "--expr", default=None,
                   help="formula given inline instead of a file")


def build_argv() -> argparse.ArgumentParser:
    root = _Argv(prog="setsolve")
    sub = root.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run queries and print answers")
    _goal_source(p)
    p.add_argument("--all", action="store_true",
                   help="enumerate all answers instead of the first")
    _common_solver_flags(p)
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("prove", help="prove a goal by refuting its negation")
    _goal_source(p)
    _common_solver_flags(p)
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("typecheck", help="typecheck a program or machine")
    p.add_argument("file")
    p.set_defaults(run=cmd_typecheck)

    p = sub.add_parser("verify", help="discharge the obligations of a machine")
    p.add_argument("file")
    p.add_argument("--po", default=None, help="check one obligation by name")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the machine report as JSON")
    p.add_argument("--budget", type=int, default=200_000,
                   help="rewrite step budget per attempt (default 200000)")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("animate", help="replay an event trace on a machine")
    p.add_argument("file")
    p.add_argument("--trace", required=True, metavar="T",
                   help="trace file: one 'event param=value ...' per line")
    p.add_argument("--carriers", default=None, metavar="FILE",
                   help="values for abstract carrier sets, 'name = set' lines")
    p.add_argument("--budget", type=int, default=200_000,
                   help="rewrite step budget per step (default 200000)")
    p.set_defaults(run=cmd_animate)

    return root


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_argv().parse_args(argv)
    try:
        return ns.run(ns)
    except (ParseError, VerifyError, IllFormed, NotNegatable, OSError) as e:
        print(str(e), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
