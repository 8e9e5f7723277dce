"""Exit codes of the command line front end on small machine files."""
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from setsolve import cli

GEARS = str(resources.files("setsolve") / "data" / "corpus" / "gears.smch")

_MACHINE = """\
machine iv
context
  s = {a, b}
end
variables
  f : stype([s, int])
  n : int
end
invariants
  inv1: %s
end
init
  act1: f := {[a, 0], [b, 0]}
  act2: n := 0
end
"""


@pytest.fixture
def machine_file(tmp_path):
    def write(invariant):
        path = tmp_path / "iv.smch"
        path.write_text(_MACHINE % invariant)
        return str(path)
    return write


@pytest.mark.parametrize("invariant", [
    "n in int(0, 3) & f(a) = n",
    "n is -(n) & f(a) = n",
])
def test_application_beside_interval_or_negation_verifies(machine_file, capsys,
                                                          invariant):
    assert cli.main(["verify", machine_file(invariant)]) == cli.OK
    assert "1 proved" in capsys.readouterr().out


def test_jobs_option_is_gone(machine_file, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "--jobs", "2", machine_file("n >= 0")])
    assert ei.value.code == cli.USAGE
    assert "--jobs" in capsys.readouterr().err


def test_solve_lists_each_residual_constraint_once(capsys):
    # pfun, applyTo and foplus each post "x is not in the domain of _N3".
    goal = "pfun(F) & applyTo(F, x, b) & foplus(F, x, c, G)"
    assert cli.main(["solve", "-e", goal]) == cli.OK
    line = capsys.readouterr().out.strip()
    assert line.count("comp({[x,x]},_N3,{})") == 1, line
    assert line.count("[x,b] nin _N3") == 1, line


def test_trace_writes_one_json_object_per_step(capsys):
    goal = "un(A, B, C) & disj(A, B) & 1 in A & 1 in B"
    assert cli.main(["solve", "-e", goal, "--trace"]) == cli.REFUTED
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["step"] for e in events] == list(range(1, len(events) + 1))
    kinds = [e["kind"] for e in events]
    # Once the memberships list A and B, the disj fails before the un splits:
    # its one branch holds ``1 nin {1/_N2}``, which is false on sight.
    assert "un" not in kinds[:kinds.index("disj")]
    assert events[kinds.index("disj")] == {
        "step": 5, "kind": "disj", "constraint": "disj({1/_N1},{1/_N2})", "result": 0}


def test_trace_shows_the_step_an_ill_sorted_term_cuts(capsys):
    assert cli.main(["solve", "-e", "X = a & 1 in X", "--trace"]) == cli.REFUTED
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["step"] for e in events] == [1, 2]
    assert events[1] == {
        "step": 2, "kind": "in", "constraint": "1 in a", "result": "ill_sorted"}


def test_trace_shows_an_or_step_like_any_other(capsys):
    assert cli.main(["solve", "-e", "X = a & (X = b or X = a)", "--trace"]) == cli.OK
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[1] == {
        "step": 2, "kind": "or", "constraint": "a = b or a = a", "result": 2}
    assert all(list(e) == ["step", "kind", "constraint", "result"] for e in events)


def test_stray_character_is_a_usage_error(machine_file, capsys):
    assert cli.main(["verify", machine_file("n >= 0 $")]) == cli.USAGE
    assert "unexpected character '$'" in capsys.readouterr().err


def _animate(machine, tmp_path, trace, carriers=None):
    trace_path = tmp_path / "run.trace"
    trace_path.write_text(trace)
    argv = ["animate", machine, "--trace", str(trace_path)]
    if carriers is not None:
        carriers_path = tmp_path / "run.carriers"
        carriers_path.write_text(carriers)
        argv += ["--carriers", str(carriers_path)]
    return cli.main(argv), argv


def test_bad_carriers_value_names_the_file_line(machine_file, tmp_path, capsys):
    code, argv = _animate(machine_file("n >= 0"), tmp_path, "",
                          carriers="# carriers\ns = {a, b\n")
    assert code == cli.USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[-1]}:2: ")
    assert "expected '}'" in err


def test_bad_trace_chunk_names_the_file_line(machine_file, tmp_path, capsys):
    code, argv = _animate(machine_file("n >= 0"), tmp_path, "# replay\n\nev po\n")
    assert code == cli.USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[3]}:3: expected param=value, found 'po'")


@pytest.mark.parametrize("trace, code, last", [
    ("start_GearRetract po=front\nmake_GearExtended po=front\n", cli.OK,
     "state 2 after make_GearExtended"),
    ("start_GearRetract po=front\nstart_GearRetract po=front\n", cli.REFUTED,
     "stuck: start_GearRetract is not enabled in this state"),
])
def test_animate_replays_a_trace_on_gears(tmp_path, capsys, trace, code, last):
    assert _animate(GEARS, tmp_path, trace)[0] == code
    assert last in capsys.readouterr().out


_SWAP = """\
machine sw
context
  pos = {a, b}
end
variables
  x : pos
  y : pos
end
invariants
  inv1: x = y
end
init
  act1: x := y
  act2: y := x
end
event swap
  then
    act1: x := y
    act2: y := x
  end
"""

_PICK = """\
machine pk
context
  pos = {a, b}
end
variables
  x : pos
end
invariants
  inv1: x in pos
end
init
  act1: x := a
end
event pick
  any v
  where
    grd1: v neq a
  then
    act1: x := v
  end
"""


@pytest.mark.parametrize("text, trace, out", [
    # x and y are only equal in the initialisation: both take one member.
    (_SWAP, "swap\n", "state 0\n    pos = {a,b}\n    x = a\n    y = a\n"
                      "state 1 after swap\n    pos = {a,b}\n    x = a\n    y = a\n"),
    # v neq a leaves b as the one member for x.
    (_PICK, "pick\n", "state 0\n    pos = {a,b}\n    x = a\n"
                      "state 1 after pick\n    pos = {a,b}\n    x = b\n"),
], ids=["swap", "pick"])
def test_animate_gives_each_variable_a_value_of_its_type(tmp_path, capsys, text,
                                                          trace, out):
    path = tmp_path / "m.smch"
    path.write_text(text)
    assert _animate(str(path), tmp_path, trace)[0] == cli.OK
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("carriers, out", [
    # Pinned to two members, pos types x as one of them: v neq a leaves b.
    ("pos = {a, b}\n", "state 0\n    pos = {a,b}\n    x = a\n"
                       "state 1 after pick\n    pos = {a,b}\n    x = b\n"),
    # One member makes no enumeration, so pos keeps its abstract typing;
    # the pin is not an error.
    ("pos = {a}\n", "state 0\n    pos = {a}\n    x = a\nstate 1 after pick\n"),
], ids=["two-members", "one-member"])
def test_animate_types_a_variable_by_its_pinned_carrier(tmp_path, capsys, carriers, out):
    path = tmp_path / "m.smch"
    path.write_text(_PICK.replace("pos = {a, b}", "pos"))
    assert _animate(str(path), tmp_path, "pick\n", carriers=carriers)[0] == cli.OK
    assert capsys.readouterr().out.startswith(out)


@pytest.mark.parametrize("cmd, suffix, text", [
    ("verify", ".smch", _MACHINE % "n >= 0 $"),
    ("animate", ".smch", _MACHINE % "n >= 0 $"),
    ("typecheck", ".smch", _MACHINE % "n >= 0 $"),
    ("typecheck", ".slog", "p(X) :- X = $.\n?- p(a).\n"),
    ("solve", ".slog", "p(X) :- X = $.\n?- p(a).\n"),
    ("prove", ".slog", "p(X) :- X = $.\n?- p(a).\n"),
])
def test_parse_error_names_the_file(tmp_path, capsys, cmd, suffix, text):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    argv = [cmd, str(path)] + (["--trace", str(path)] if cmd == "animate" else [])
    assert cli.main(argv) == cli.USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:")
    assert err.count("\n") == 1
    assert "unexpected character '$'" in err


@pytest.mark.parametrize("argv, message", [
    (["solve", "-e", "p(X)"], "unknown predicate p/1"),
    (["prove", "-e", "neg(p(X))"], "unknown predicate p/1"),
    (["solve", "-e", "neg(p(X))"], "call to p/1 under negation"),
    (["prove", "-e", "X is 7 mod 2 implies X = 5"], "'mod' is not supported"),
    (["solve", "-e", "X is 7 div 2"], "'div' is not supported"),
    (["solve", "-e", "3 is 7 div 2"], "'div' is not supported"),
    (["solve", "-e", "un(1 + 1, {}, C)"], "argument 1 of un must be a term"),
    (["solve", "-e", "eq(X + 1, Y)"], "argument 1 of eq must be a term"),
    (["solve", "-e", "subset(X + 1, A)"], "argument 1 of subset must be a term"),
    (["solve", "-e", "delay(X = 1)"], "expected ')', found '='"),
    (["solve", "-e", "X = 2²"], "unexpected character '²'"),
])
def test_bad_goal_is_a_one_line_usage_error(capsys, argv, message):
    assert cli.main(argv) == cli.USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and message in out.err


@pytest.mark.parametrize("cmd", ["solve", "prove"])
@pytest.mark.parametrize("source, message", [
    ([], "give a program file or -e EXPR"),
    ([GEARS], "machines are verified or animated, not solved"),
    (["clauses.slog"], "clauses.slog: no queries"),
])
def test_a_goal_source_with_no_goals_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                      cmd, source, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clauses.slog").write_text("p(X) :- X = a.\n")
    with pytest.raises(SystemExit) as ei:
        cli.main([cmd] + source)
    assert ei.value.code == cli.USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == message + "\n"


def test_undefined_predicate_in_a_clause_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "undef.slog"
    path.write_text("p(X) :- q(X).\n?- p(a).\n")
    assert cli.main(["solve", str(path)]) == cli.USAGE
    assert capsys.readouterr().err == "unknown predicate q/1\n"


@pytest.mark.parametrize("query", ["p(1 + 1)", "p(Y + 1)", "neg(p(Y + 1))"])
def test_integer_expression_as_a_predicate_argument_is_a_usage_error(tmp_path, capsys,
                                                                     query):
    # The clause would put the expression where a term belongs.
    path = tmp_path / "p.slog"
    path.write_text(f"p(X) :- X in {{2}}.\n?- {query}.\n")
    assert cli.main(["solve", str(path)]) == cli.USAGE
    assert capsys.readouterr().err == "predicate p/1 takes terms, not integer expressions\n"


def test_directory_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path)]) == cli.USAGE
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("goal, code, out", [
    ("X = {a/Y} & Y = 1", cli.REFUTED, "Unsat.\n"),
    ("Y = 1 & X = {a/Y}", cli.REFUTED, "Unsat.\n"),
    ("(Y = 1 or Y = {b}) & X = {a/Y}", cli.OK, "X = {a,b}, Y = {b}\n"),
])
def test_non_set_in_a_set_tail(capsys, goal, code, out):
    assert cli.main(["solve", "-e", goal]) == code
    assert capsys.readouterr().out == out


_COPY_MACHINE = """\
machine h
variables
  n : int
  m : int
end
invariants
  inv1: n >= 0
  inv2: m >= n
end
init
  act1: n := 0
  act2: m := 0
end
event copy
  then
    act1: n := m
end
"""


def test_copy_is_proved_from_the_invariant_it_links_to(tmp_path, capsys):
    # Preserving inv1 under copy needs inv2, which every obligation assumes;
    # the proof records it, linked to n_ through the action n_ = m.
    path = tmp_path / "h.smch"
    path.write_text(_COPY_MACHINE)
    report = tmp_path / "h.json"
    assert cli.main(["verify", "--json", str(report), str(path)]) == cli.OK
    assert "h/copy/inv1/INV  Proved  [inv2]\n" in capsys.readouterr().out
    schema = json.loads(
        (resources.files("setsolve") / "data" / "report.schema.json").read_text())
    causes = schema["properties"]["pos"]["items"]["properties"]["cause"]["enum"]
    assert causes == ["budget", "ungroundable", "ill_sorted"]
    doc = json.loads(report.read_text())
    jsonschema.validate(doc, schema)
    row = next(r for r in doc["pos"] if r["id"] == "h/copy/inv1/INV")
    assert (row["status"], row["hypotheses_used"], row["iterations"]) == (
        "Proved", ["inv2"], 1)
    assert "cause" not in row


@pytest.mark.parametrize("goal", [
    "Y = 1 implies X = {a/Y}",
    "Y = 1 implies X neq {a/Y}",
    "D = 2 implies foreach(Z in D, Z = 1)",
    "D = 2 implies exists(Z in D, Z = 1)",
    "A = 1 implies subset(A, B)",
    "A = 1 implies nsubset(A, B)",
    "F = a implies npfun(F)",
    "X = a implies 3 =< X",
    "nun(1, 2, 3)",
])
def test_prove_does_not_count_an_ill_sorted_death_as_a_proof(capsys, goal):
    # The negated goal dies of the ill-sorted {a/1} whichever way the goal
    # reads, so neither it nor its opposite is a theorem.
    assert cli.main(["prove", "-e", goal]) == cli.UNKNOWN
    assert capsys.readouterr().out == "Unknown (ill_sorted).\n"


@pytest.mark.parametrize("invariant", ["f = {[a, 0] / n}", "f neq {[a, 0] / n}"])
def test_verify_rejects_an_ill_sorted_invariant_as_a_type_error(machine_file,
                                                               capsys, invariant):
    assert cli.main(["verify", machine_file(invariant)]) == cli.USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("type errors:\n") and "type mismatch" in out.err


def test_insertion_mutant_counterexample_fits_the_declared_types(tmp_path, capsys):
    # Inserting a second image breaks pfun; the free images of the other
    # points must be completed from bool, not with fresh atoms.
    from setsolve.machines import machine_synonyms, machine_var_types, parse_machine
    from setsolve.parser import parse_term
    from setsolve.typecheck import TypeEnv, inhabits

    text = open(GEARS).read().replace(
        "act1: gear_ext_p(po) := true",
        "act1: gear_ext_p := {[po, true] / gear_ext_p}")
    path, report = tmp_path / "ins.smch", tmp_path / "ins.json"
    path.write_text(text)
    assert cli.main(["verify", "--json", str(report), str(path)]) == cli.REFUTED
    capsys.readouterr()
    row = next(r for r in json.loads(report.read_text())["pos"]
               if r["id"] == "gears/make_GearExtended/inv1/INV")
    assert row["status"] == "Disproved"
    m = parse_machine(text)
    types = machine_var_types(m)
    env = TypeEnv()
    env.synonyms.update(machine_synonyms(m))
    cex = row["counterexample"]
    assert {"gear_ext_p", "gear_ext_p_"} <= set(cex)
    for name, value in cex.items():
        ty = types.get(name[:-1] if name.endswith("_") else name)
        if ty is not None:
            assert inhabits(parse_term(value), ty, env), f"{name} = {value}"


@pytest.mark.parametrize("goal, code, out", [
    # A comp over variables whose third argument lists a pair is decided, so
    # the lemma is refuted instead of ending in an ungroundable residue.
    ("comp(R, S, T) & dom(T, D) & dom(R, E) implies subset(D, E)", cli.OK,
     "Theorem.\n"),
    ("X in A implies X in B", cli.REFUTED, "Counterexample.\nA = {X/_N1}, X nin B\n"),
])
def test_prove_calls_only_a_grounded_answer_a_counterexample(capsys, goal, code, out):
    assert cli.main(["prove", "-e", goal]) == code
    assert capsys.readouterr().out == out


def test_prove_says_why_it_does_not_know(capsys, monkeypatch):
    goal = "X in A implies X in B"
    assert cli.main(["prove", "--budget", "1", "-e", goal]) == cli.UNKNOWN
    assert capsys.readouterr().out == "Unknown (budget).\n"
    monkeypatch.setattr(cli, "ground_complete", lambda sol, hints=None: None)
    assert cli.main(["prove", "-e", goal]) == cli.UNKNOWN
    assert capsys.readouterr().out == "Unknown (ungroundable).\n"

    def timed_out(*args, **kw):
        raise cli._Timeout()

    monkeypatch.setattr(cli, "solve", timed_out)
    assert cli.main(["prove", "--timeout", "5", "-e", goal]) == cli.UNKNOWN
    assert capsys.readouterr().out == "Unknown (timeout).\n"


def test_verify_po_checks_one_obligation(capsys):
    assert cli.main(["verify", "--po", "gears/start_GearRetract/inv1/INV", GEARS]) == cli.OK
    assert capsys.readouterr().out == (
        "gears/start_GearRetract/inv1/INV  Proved\n"
        "1 POs: 1 proved, 0 disproved, 0 unknown (INIT 0, WD 0, INV 1)\n")


def test_verify_po_rejects_an_unknown_name_before_discharging(capsys, monkeypatch):
    from setsolve import verifier

    def discharge(*args, **kw):
        raise AssertionError("no obligation is discharged")

    monkeypatch.setattr(verifier, "discharge", discharge)
    assert cli.main(["verify", "--po", "gears/no_such/INV", GEARS]) == cli.USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "no obligation named 'gears/no_such/INV'\n"


@pytest.mark.parametrize("name", ["gears.smch", "examples.slog"])
def test_typecheck_accepts_the_bundled_inputs(capsys, name):
    path = str(resources.files("setsolve") / "data" / "corpus" / name)
    assert cli.main(["typecheck", path]) == cli.OK
    assert capsys.readouterr().out == "ok\n"


def test_typecheck_rejects_atoms_where_an_int_belongs(machine_file, capsys):
    assert cli.main(["typecheck", machine_file("n in {a, b}")]) == cli.USAGE
    assert "in: atom a used where int expected\n" in capsys.readouterr().out


def test_typecheck_rejects_a_type_defined_in_terms_of_itself(tmp_path, capsys):
    path = tmp_path / "cyclic.slog"
    path.write_text(":- def_type(t, stype(t)).\n:- dec_p_type(p(t)).\n"
                    "p(X) :- X = {{1}}.\n?- p({}).\n")
    assert cli.main(["typecheck", str(path)]) == cli.USAGE
    assert capsys.readouterr().out == "t: type defined in terms of itself\n"


def test_solve_out_of_budget_is_unknown(capsys):
    goal = "X in {a,b} & Y in {c,d} & X neq Y"
    assert cli.main(["solve", "--budget", "1", "-e", goal]) == cli.UNKNOWN
    assert capsys.readouterr().out == "Unknown.\n"


def test_solve_refutes_a_goal_with_no_integer_point(capsys):
    assert cli.main(["solve", "-e", "X is Y * 2 & X = 5"]) == cli.REFUTED
    assert capsys.readouterr().out == "Unsat.\n"


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "setsolve", "solve", "-e", "X = a"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "X = a\n"
