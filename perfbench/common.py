"""Plumbing shared by the workloads: locating the package and its oracle,
the outcome of one item, and the meter that sums rewrite steps.

The benchmark runs from the root of a source checkout.  It imports the
package from ``src/`` and the independent oracle from ``tests/oracle.py``;
neither is installed, so a checkout without them cannot be measured.
"""
from __future__ import annotations

import importlib.util
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


class MissingSource(Exception):
    """The working directory is not a source checkout of the package."""


def load_package(root: Path):
    """Put ``src/`` on the path and load ``tests/oracle.py`` as ``oracle``."""
    src = root / "src"
    oracle_path = root / "tests" / "oracle.py"
    if not (src / "setsolve" / "__init__.py").is_file():
        raise MissingSource(f"{src / 'setsolve'} not found: run from the repository root")
    if not oracle_path.is_file():
        raise MissingSource(f"{oracle_path} not found: run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if "oracle" not in sys.modules:
        spec = importlib.util.spec_from_file_location("oracle", oracle_path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules["oracle"] = mod
        spec.loader.exec_module(mod)
    return sys.modules["oracle"]


DECIDED = frozenset(("Proved", "Disproved", "Sat", "Unsat"))


@dataclass
class Outcome:
    """What one PO or query produced.  ``evidence`` is a canonical string of
    the counterexample or model, compared across passes; ``latency`` is set
    when the item's own time is narrower than the call that produced it."""
    key: str
    verdict: str                  # Proved | Disproved | Sat | Unsat | Unknown | Error
    evidence: str = ""
    error: str = ""
    latency: Optional[float] = None
    payload: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Failure:
    item: str
    reason: str
    unsound: bool                 # the verdict itself contradicts the known answer


def evidence(assignment) -> str:
    """A counterexample or model as one canonical string."""
    from setsolve.printer import pp_term

    if assignment is None:
        return ""
    return ";".join(f"{k}={pp_term(v)}" for k, v in sorted(assignment.items()))


class Item:
    """A unit of work: ``run`` is timed and yields one outcome per PO or
    query; ``check`` is not timed and returns the failures among them."""
    key: str = ""

    def run(self) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outs: list[Outcome]) -> list[Failure]:
        raise NotImplementedError


class SolveMeter:
    """Sums ``Result.steps`` and the time spent inside ``solve``.

    ``solve`` is replaced where its callers look it up: in ``verifier`` (the
    discharge loop) and in ``engine`` (the benchmark's own query calls).
    """

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self.calls = 0

    def install(self) -> None:
        from setsolve import engine, verifier

        orig = engine.solve

        def metered(*args, **kw):
            t0 = time.perf_counter()
            try:
                res = orig(*args, **kw)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1
            self.steps += res.steps
            return res

        engine.solve = metered
        verifier.solve = metered
