"""A seeded slice of the ``disproofs`` bench workload.

The first falsified POs of the seed-1 mutants of ``gears`` and
``gears_intermediate``, as ``perfbench/disproofs.py`` builds and checks
them, are Disproved with a witness its enumeration accepts.  ``doors`` is
left out: its enumeration of states dominates the time of a full build.
"""
import sys
from itertools import islice
from pathlib import Path

import oracle
from setsolve import machines, verifier
from setsolve.corpus import corpus_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import disproofs  # noqa: E402

SLICE = 20


def _falsified(seed: int):
    texts = {name: corpus_text(name) for name, _ in disproofs.BASES}
    good_states: dict = {}
    for mu in disproofs.generate_mutants(texts, seed):
        if mu.base == "doors.smch":
            continue
        m = machines.parse_machine(mu.text)
        space = disproofs.Space(m, oracle, good_states)
        for po in verifier.generate_pos(m):
            if disproofs.counterexample_exists(po, space):
                yield mu.key, m, po, space


def test_falsified_mutant_pos_are_disproved_with_an_accepted_witness():
    items = list(islice(_falsified(1), SLICE))
    assert len(items) == SLICE
    for key, m, po, space in items:
        r = verifier.discharge(po, hints=verifier._hints(m))
        assert r.status == "Disproved", (key, po.po_id, r.note)
        assert disproofs.check_counterexample(key, m, po, r.counterexample, space) is None
