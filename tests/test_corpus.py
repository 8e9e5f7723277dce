"""The bundled corpus against its manifest.

``manifest.txt`` records, per corpus file, what must hold of it.  These
tests check each machine's name, events and proof-obligation counts, the
verdicts of the ``examples.slog`` queries, and the ``verify`` golden and JSON
report of each of the three machines, whose every obligation is Proved.
"""
import json
from importlib import resources

import jsonschema
import pytest
from setsolve import cli, verifier
from setsolve.corpus import load_corpus
from setsolve.engine import solve

CORPUS = resources.files("setsolve") / "data" / "corpus"
MACHINES = ["gears.smch", "gears_intermediate.smch", "doors.smch"]


@pytest.fixture(scope="module")
def cases():
    return {c.name: c for c in load_corpus()}


def test_manifest_covers_the_corpus(cases):
    assert sorted(cases) == sorted(MACHINES + ["examples.slog"])


@pytest.mark.parametrize("name", MACHINES)
def test_machine_matches_manifest(cases, name):
    case = cases[name]
    m, want = case.parsed, case.expected
    assert case.kind == "machine"
    assert m.name == want["machine"]
    events = [e.strip() for e in want["events"].split(",") if e.strip()]
    assert [e.name for e in m.events] == events
    pos = verifier.generate_pos(m)
    assert len(pos) == int(want["pos"])
    for kind in ("INIT", "WD", "INV"):
        got = sum(po.kind == kind for po in pos)
        assert got == int(want[f"{kind.lower()}_pos"]), kind


def test_example_verdicts_match_manifest(cases):
    case = cases["examples.slog"]
    program, want = case.parsed, case.expected
    assert len(program.queries) == int(want["queries"])
    verdicts = []
    for q in program.queries:
        res = solve(q, program=program)
        assert res.unsat or res.solutions, "an example query ended Unknown"
        verdicts.append("unsat" if res.unsat else "sat")
    assert verdicts == [v.strip() for v in want["verdicts"].split(",")]


def test_verify_output_is_the_golden_and_the_report_fits_the_schema(
        cases, tmp_path, capsys):
    schema = json.loads((resources.files("setsolve") / "data" / "report.schema.json")
                        .read_text())
    for name in MACHINES:
        case = cases[name]
        report = tmp_path / f"{name}.json"
        assert cli.main(["verify", str(CORPUS / name), "--json", str(report)]) == cli.OK
        assert capsys.readouterr().out == case.golden, name
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, schema)
        assert doc["machine"] == case.expected["machine"]
        assert doc["summary"]["total"] == int(case.expected["pos"])
        assert doc["summary"]["proved"] == doc["summary"]["total"]


def test_the_report_names_the_stage_that_decided_each_po(cases):
    schema = json.loads((resources.files("setsolve") / "data" / "report.schema.json")
                        .read_text())
    m = cases["gears.smch"].parsed
    doc = verifier.report_json(m, verifier.verify_machine(m))
    jsonschema.validate(doc, schema)
    assert {r["id"]: r["stage"] for r in doc["pos"]} == {
        "gears/INIT/inv1": "pinned",
        "gears/make_GearExtended/inv1/INV": "carrier_free",
        "gears/make_GearExtended/grd1/wd1/WD": "carrier_free",
        "gears/start_GearRetract/inv1/INV": "carrier_free",
        "gears/start_GearRetract/grd1/wd1/WD": "carrier_free",
    }
