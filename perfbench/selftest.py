"""Self-tests of the benchmark's inputs and gates.

    python3 perfbench/selftest.py

Run from the repository root.  The file is named so that the package's
own test suite does not collect it; it takes about half a minute.
"""
from __future__ import annotations

import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SolveMeter, load_package  # noqa: E402

ROOT = Path.cwd()
ORACLE = load_package(ROOT)

import disproofs  # noqa: E402
import proofs  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import setsolve  # noqa: E402

SEEDS = (1, 2)


def corpus_texts() -> dict[str, str]:
    return {c.name: c.text for c in setsolve.load_corpus()}


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        texts = corpus_texts()
        for seed in SEEDS:
            a = [(m.key, m.text) for m in disproofs.generate_mutants(texts, seed)]
            b = [(m.key, m.text) for m in disproofs.generate_mutants(texts, seed)]
            self.assertEqual(a, b)
            a = [(q.key, q.text) for q in queries.generate_queries(seed)]
            b = [(q.key, q.text) for q in queries.generate_queries(seed)]
            self.assertEqual(a, b)

    def test_seeds_differ(self):
        texts = corpus_texts()
        m1 = [m.text for m in disproofs.generate_mutants(texts, 1)]
        m2 = [m.text for m in disproofs.generate_mutants(texts, 2)]
        self.assertNotEqual(m1, m2)
        self.assertNotEqual([q.text for q in queries.generate_queries(1)],
                            [q.text for q in queries.generate_queries(2)])

    def test_mutants_typecheck_and_are_falsified(self):
        from setsolve import machines, verifier

        items = disproofs.build_items(corpus_texts(), 1, ORACLE)
        self.assertGreaterEqual(len(items), 100)
        by_mutant = {}
        for it in items:
            by_mutant.setdefault(it.mutant.key, (it.mutant, []))[1].append(it.po_id)
        for mutant, po_ids in by_mutant.values():
            m = machines.parse_machine(mutant.text)
            self.assertEqual(verifier.typecheck_machine(m), [], mutant.key)
            space = disproofs.Space(m, ORACLE)
            pos = {p.po_id: p for p in verifier.generate_pos(m)}
            for po_id in po_ids:
                self.assertTrue(disproofs.counterexample_exists(pos[po_id], space),
                                f"{mutant.key}: {po_id}")

    def test_enumeration_agrees_with_the_corpus(self):
        # Every corpus PO is Proved: the enumeration must falsify none.
        from setsolve import verifier

        for c in setsolve.load_corpus():
            if c.kind != "machine":
                continue
            space = disproofs.Space(c.parsed, ORACLE)
            for po in verifier.generate_pos(c.parsed):
                self.assertFalse(disproofs.counterexample_exists(po, space), po.po_id)

    def test_query_answers_agree_with_bounded_search(self):
        from setsolve import parser, typecheck

        for seed in SEEDS:
            self.assertGreaterEqual(len(queries.generate_queries(seed)), 100)
            for q in queries.generate_queries(seed):
                if q.program:
                    prog = parser.parse_program(q.text)
                    self.assertEqual(typecheck.check_program(prog), [], q.key)
                    f = queries._expanded(prog.queries[0], prog)
                else:
                    f = parser.parse_formula(q.text)
                model = queries.bounded_model(q, f, ORACLE)
                self.assertEqual(model is not None, q.expected == "Sat", q.text)


DIGEST_CHILD = """
import sys
sys.path.insert(0, 'perfbench')
from pathlib import Path
import run
from common import SolveMeter, load_package
oracle = load_package(Path('.'))
items = run.build(sys.argv[1], int(sys.argv[2]), oracle)
meter = SolveMeter()
meter.install()
p = run.Pass(items, meter)
print(p.steps, __import__("hashlib").sha256(repr(p.signature).encode()).hexdigest())
"""


class Determinism(unittest.TestCase):
    def child(self, workload: str, seed: int, hashseed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run([sys.executable, "-c", DIGEST_CHILD, workload, str(seed)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        return done.stdout.strip()

    def test_two_runs_same_steps_and_verdicts(self):
        # Separate processes with different string hashing: nothing may
        # depend on set iteration order.
        for workload in ("disproofs", "queries"):
            self.assertEqual(self.child(workload, 3, "1"), self.child(workload, 3, "2"),
                             workload)

    def test_passes_repeat_in_process(self):
        meter = SolveMeter()
        meter.install()
        items = proofs.build_items(setsolve.load_corpus())
        quick = [it for it in items if it.key in ("gears_intermediate.smch", "examples.slog")]
        a, b = run.Pass(quick, meter), run.Pass(quick, meter)
        self.assertEqual((a.steps, a.signature), (b.steps, b.signature))
        failures, problems = run.check(a, [a, b])
        self.assertEqual((failures, problems), ([], []))


class Gates(unittest.TestCase):
    def test_a_wrong_verdict_is_unsound(self):
        items = queries.build_items(1, ORACLE)
        item = next(it for it in items if it.query.expected == "Sat"
                    and it.query.shape == "sets")
        (out,) = item.run()
        out.verdict = "Unsat"
        (failure,) = item.check([out])
        self.assertTrue(failure.unsound)

    def test_an_ill_typed_witness_fails(self):
        from setsolve.terms import Atom, Pair, mkset

        items = disproofs.build_items(corpus_texts(), 1, ORACLE)
        item = next(it for it in items if it.mutant.op == "init_drop"
                    and it.mutant.base == "gears.smch")
        outs = item.run()
        m, po, r = outs[0].payload
        self.assertEqual(r.status, "Disproved")
        members = next(c.members for c in m.carriers)
        r.counterexample["gear_ext_p"] = mkset([Pair(Atom(x), Atom("_e9")) for x in members])
        (failure,) = item.check(outs)
        self.assertIn("ill-typed", failure.reason)
        self.assertFalse(failure.unsound)


if __name__ == "__main__":
    unittest.main()
