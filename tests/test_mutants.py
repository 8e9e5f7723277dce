"""A seeded slice of the ``disproofs`` bench workload.

The first falsified POs of the seed-1 mutants of ``gears`` and
``gears_intermediate``, as ``perfbench/disproofs.py`` builds and checks
them, are Disproved with a witness its enumeration accepts.  So is every
falsified INV PO of those mutants, and every INV PO the enumeration finds
valid is Proved.  ``doors`` is left out: its enumeration of states
dominates the time of a full build.
"""
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import oracle
from setsolve import machines, verifier
from setsolve.corpus import corpus_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import disproofs  # noqa: E402

SLICE = 20


def _mutant_pos(seed: int):
    """Each PO of each mutant of ``gears`` and ``gears_intermediate`` for
    ``seed``, with the mutant's key and machine and its enumeration."""
    texts = {name: corpus_text(name) for name, _ in disproofs.BASES}
    good_states: dict = {}
    for mu in disproofs.generate_mutants(texts, seed):
        if mu.base == "doors.smch":
            continue
        m = machines.parse_machine(mu.text)
        space = disproofs.Space(m, oracle, good_states)
        for po in verifier.generate_pos(m):
            yield mu.key, m, po, space


def _falsified(seed: int):
    for key, m, po, space in _mutant_pos(seed):
        if disproofs.counterexample_exists(po, space):
            yield key, m, po, space


def test_falsified_mutant_pos_are_disproved_with_an_accepted_witness():
    items = list(islice(_falsified(1), SLICE))
    assert len(items) == SLICE
    for key, m, po, space in items:
        r = verifier.discharge(po, hints=verifier._hints(m))
        assert r.status == "Disproved", (key, po.po_id, r.note)
        assert disproofs.check_counterexample(key, m, po, r.counterexample, space) is None


def test_every_inv_po_of_the_mutants_gets_the_verdict_of_the_enumeration():
    verdicts: Counter = Counter()
    for key, m, po, space in _mutant_pos(1):
        if not po.po_id.endswith("/INV"):
            continue
        r = verifier.discharge(po, hints=verifier._hints(m))
        if disproofs.counterexample_exists(po, space):
            assert r.status == "Disproved", (key, po.po_id, r.note)
            assert disproofs.check_counterexample(key, m, po, r.counterexample, space) is None
        else:
            assert r.status == "Proved", (key, po.po_id, r.status, r.note)
        verdicts[r.status] += 1
    assert verdicts == {"Disproved": 6, "Proved": 114}
