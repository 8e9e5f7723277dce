"""The ``proofs`` workload: the bundled corpus as users run it.

``verify_machine`` on ``gears``, ``gears_intermediate`` and ``doors``, the
five queries of ``examples.slog``, and ``gears`` restated over a 4-member
carrier.  Nearly all of the time is deep UNSAT search in the INV
obligations.  Known answers: the manifest (PO counts per kind, events,
``all_proved``, the five query verdicts) and the golden ``verify`` output;
the restated ``gears`` is Proved because its invariant holds for any
carrier.  The inputs do not depend on the seed.
"""
from __future__ import annotations

import io
from contextlib import redirect_stdout
from typing import Optional

from common import Failure, Item, Outcome, evidence
from disproofs import restate
from queries import solve_and_ground

CARRIER = ["front", "right", "left", "nose", "tail"]


class MachineRun(Item):
    """``setsolve verify``: parse the machine, then ``verify_machine``."""

    def __init__(self, key: str, text: str, expected: dict[str, str],
                 golden: Optional[str] = None):
        self.key = key
        self.text = text
        self.expected = expected
        self.golden = golden

    def run(self) -> list[Outcome]:
        from setsolve import machines, verifier

        m = machines.parse_machine(self.text)
        results = verifier.verify_machine(m)
        return [Outcome(f"{self.key}:{r.po.po_id}", r.status, evidence=r.note,
                        latency=r.time_ms / 1000.0, payload=(m, r))
                for r in results]

    def check(self, outs: list[Outcome]) -> list[Failure]:
        from setsolve import cli

        out: list[Failure] = []
        m = outs[0].payload[0]
        results = [o.payload[1] for o in outs]
        if self.expected.get("all_proved") == "yes":
            out += [Failure(o.key, f"{o.verdict}, manifest says all proved", True)
                    for o in outs if o.verdict != "Proved"]
        kinds = {k: sum(r.po.kind == k for r in results) for k in ("INIT", "WD", "INV")}
        want = {"pos": len(results), "init_pos": kinds["INIT"],
                "wd_pos": kinds["WD"], "inv_pos": kinds["INV"]}
        for field, got in want.items():
            if field in self.expected and int(self.expected[field]) != got:
                out.append(Failure(self.key, f"{field} = {got}, manifest says "
                                   f"{self.expected[field]}", True))
        if "events" in self.expected:
            events = [e.strip() for e in self.expected["events"].split(",") if e.strip()]
            if events != [ev.name for ev in m.events]:
                out.append(Failure(self.key, "events differ from the manifest", True))
        if self.golden is not None:
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli._print_results(results)
            if buf.getvalue() != self.golden:
                out.append(Failure(self.key, "verify output differs from the golden", True))
        return out


class ExamplesRun(Item):
    """``setsolve solve examples.slog``: parse and typecheck the program,
    then solve each query and ground its first answer."""

    def __init__(self, key: str, text: str, expected: dict[str, str]):
        self.key = key
        self.text = text
        self.verdicts = [v.strip().capitalize()
                         for v in expected.get("verdicts", "").split(",") if v.strip()]

    def run(self) -> list[Outcome]:
        import time

        from setsolve import parser, typecheck

        program = parser.parse_program(self.text)
        errors = typecheck.check_program(program)
        if errors:
            raise ValueError("; ".join(str(e) for e in errors))
        outs = []
        for i, q in enumerate(program.queries, start=1):
            t0 = time.perf_counter()
            verdict, model = solve_and_ground(q, program)
            outs.append(Outcome(f"{self.key}/q{i}", verdict,
                                latency=time.perf_counter() - t0,
                                evidence=evidence(model)))
        return outs

    def check(self, outs: list[Outcome]) -> list[Failure]:
        if len(outs) != len(self.verdicts):
            return [Failure(self.key, f"{len(outs)} queries, manifest says "
                            f"{len(self.verdicts)}", True)]
        return [Failure(o.key, f"{o.verdict}, manifest says {want}",
                        o.verdict in ("Sat", "Unsat"))
                for o, want in zip(outs, self.verdicts) if o.verdict != want]


def restated_gears(corpus_texts: dict[str, str], n: int) -> MachineRun:
    """``gears`` over an n-member carrier; Proved for every n."""
    return MachineRun(f"gears_n{n}", restate(corpus_texts["gears.smch"], CARRIER[:n]),
                      {"all_proved": "yes"})


def build_items(cases) -> list[Item]:
    items: list[Item] = []
    for c in cases:
        if c.kind == "machine":
            items.append(MachineRun(c.name, c.text, c.expected, c.golden))
        else:
            items.append(ExamplesRun(c.name, c.text, c.expected))
    items.append(restated_gears({c.name: c.text for c in cases}, 4))
    return items
