"""Exit codes of the command line front end on small machine files."""
import pytest
from setsolve import cli

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
