"""Benchmark of the setsolve package: one workload, one seed, one run.

    python3 perfbench/run.py --workload proofs|disproofs|queries \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric a ``{"value", "unit"}`` pair.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, from a traced run
that also writes per-PO rows to ``perfbench/out/``.  Progress and every
failure go to standard error.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import DECIDED, Failure, MissingSource, Outcome, SolveMeter, load_package

WORKLOADS = ("proofs", "disproofs", "queries")
SETUP_REPS = 9
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import setsolve\n"
    "setsolve.load_corpus()\n"
    "print(time.perf_counter() - t0)\n"
)
# Times are reported at a reference machine speed: the speed at which the
# calibration load below takes CAL_REF_S.  The load does not touch the
# package, so a faster package still shows; the speed of a shared host,
# which can swing by 2x within seconds (see README.md), largely does not.
CAL_REF_S = 0.02
CAL_EVERY_S = 0.25


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _load() -> float:
    """Seconds for a fixed pure-Python load of allocation, hashing and
    sorting, the kind of work the solver does."""
    t0 = time.perf_counter()
    d = {}
    for i in range(40000):
        n = _Node(i, (i & 63, str(i & 127)))
        d[n.b] = n
    sorted(d, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - t0


def calibrate(span: float = 0.0) -> float:
    """Mean time of the load, repeated for a tenth of ``span`` (the stretch
    just measured), so that long stretches get a steadier estimate."""
    times = [_load()]
    while sum(times) < 0.1 * span:
        times.append(_load())
    return statistics.mean(times)


def measure_setup(root: Path) -> float:
    """Median time, in fresh processes, to import the package and load
    (parse and typecheck) the bundled corpus, at reference speed.  One
    unmeasured start first compiles the bytecode."""
    times = []
    before = calibrate()
    for i in range(SETUP_REPS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        after = calibrate()
        if i:
            t = float(done.stdout.strip().splitlines()[-1])
            times.append(t * 2 * CAL_REF_S / (before + after))
        before = after
    return statistics.median(times)


def build(workload: str, seed: int, oracle):
    import setsolve

    cases = setsolve.load_corpus()
    if workload == "proofs":
        import proofs
        return proofs.build_items(cases)
    texts = {c.name: c.text for c in cases}
    if workload == "disproofs":
        import disproofs
        return disproofs.build_items(texts, seed, oracle)
    import queries
    return queries.build_items(seed, oracle)


class Pass:
    """One pass over every item of the workload.

    The calibration load runs before the first item, after the last, and
    after any item that ends CAL_EVERY_S or more past the previous run of
    the load.  Each stretch of items between two runs of the load is scaled
    to reference speed by the mean of those two.  Only the first pass keeps
    its outcomes for checking; later ones keep a signature.
    """

    def __init__(self, items, meter: SolveMeter, keep: bool = True):
        outcomes: list[Outcome] = []
        self.latencies: list[float] = []   # reference seconds
        self.errors: list[Failure] = []
        self.unit_outs = []
        self.wall = self.raw_wall = self.solve_s = 0.0
        steps0 = meter.steps
        stretch: list[float] = []          # raw latencies since the last sample
        busy, solve0 = 0.0, meter.seconds
        cal, last = calibrate(), time.perf_counter()

        def close() -> None:
            """Scale the stretch since the last sample, then sample again."""
            nonlocal stretch, busy, solve0, cal, last
            after = calibrate(busy)
            scale = 2 * CAL_REF_S / (cal + after)
            self.latencies += [x * scale for x in stretch]
            self.wall += busy * scale
            self.raw_wall += busy
            self.solve_s += (meter.seconds - solve0) * scale
            stretch, busy, solve0 = [], 0.0, meter.seconds
            cal, last = after, time.perf_counter()

        for item in items:
            t0 = time.perf_counter()
            try:
                outs = item.run()
            except Exception:
                # A Python exception is a failure of this item, not of the run.
                err = traceback.format_exc(limit=3).strip().splitlines()[-1]
                outs = [Outcome(item.key, "Error", error=err)]
                self.errors.append(Failure(item.key, err, False))
            else:
                if keep:
                    self.unit_outs.append((item, outs))
            dt = time.perf_counter() - t0
            busy += dt
            outcomes += outs
            stretch += [dt if o.latency is None else o.latency for o in outs]
            if time.perf_counter() - last >= CAL_EVERY_S:
                close()
        close()
        self.steps = meter.steps - steps0
        self.signature = [(o.key, o.verdict, o.evidence, o.error) for o in outcomes]
        self.outcomes = outcomes if keep else []


def run_passes(items, meter, seconds: float, min_passes: int,
               first: bool = True) -> list[Pass]:
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(Pass(items, meter, keep=first and not passes))
        p = passes[-1]
        print(f"pass {len(passes)}: {p.raw_wall:.3f} s raw, {p.wall:.3f} s at "
              f"reference speed, {p.steps} steps", file=sys.stderr)
    return passes


def check(first: Pass, passes: list[Pass]) -> tuple[list[Failure], list[str]]:
    """Failures of the first pass, and reasons the run is not correct."""
    failures = list(first.errors)
    for item, outs in first.unit_outs:
        failures += item.check(outs)
    problems = [f"unsound: {f.item}: {f.reason}" for f in failures if f.unsound]
    for i, p in enumerate(passes[1:], start=2):
        if p.steps != first.steps or p.signature != first.signature:
            problems.append(f"pass {i} differs from pass 1 (steps or verdicts)")
    return failures, problems


def band_quantile(values: list[float], q: float) -> float:
    """The q-quantile, averaged over the observed values ranked within five
    points of it, and at least 17 values.  ``proofs`` has 22 items a pass,
    so its latencies form clusters, and single millisecond items jitter by
    20% on a shared host; a plain order statistic would swing with one
    sample.  With thousands of samples the band is narrow."""
    ordered = sorted(values)
    n = len(ordered)
    half = max(8, round(0.05 * n))
    mid = min(max(math.ceil(q * n) - 1, half), n - 1 - half)
    band = ordered[max(0, mid - half): mid + half + 1]
    return statistics.mean(band)


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """Every time is at reference speed (see CAL_REF_S)."""
    first = passes[0]
    lat = [x for p in passes for x in p.latencies]
    n = len(first.outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "steps": (first.steps, "count"),
        "steps_per_s": (statistics.median(p.steps / p.solve_s for p in passes), "1/s"),
        "latency_p50_ms": (1000.0 * band_quantile(lat, 0.5), "ms"),
        "latency_p90_ms": (1000.0 * band_quantile(lat, 0.9), "ms"),
        "decided_share": (sum(o.verdict in DECIDED for o in first.outcomes) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(workload: str, items, meter, seconds: float, root: Path, seed: int):
    """Untraced passes, then traced passes over the same items; the trace
    writes per-PO rows (and, for proofs, the carrier stress series)."""
    from tracer import Tracer

    few = 1 if workload == "proofs" else 2
    plain = run_passes(items, meter, seconds / 2, few)
    tracer = Tracer(meter)
    tracer.install()
    calls0 = meter.calls
    hot = run_passes(items, meter, seconds / 2, few, first=False)
    solve_calls = meter.calls - calls0
    # The traced passes' own ratio of reference to raw time scales the
    # layers' raw times.
    scale = sum(p.wall for p in hot) / sum(p.raw_wall for p in hot)
    metrics = tracer.metrics(len(hot), scale)
    metrics["engine.solve_calls"] = (solve_calls / len(hot), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in hot) / statistics.median(p.wall for p in plain),
        "ratio")
    rows = tracer.po_rows[: len(tracer.po_rows) // len(hot)]
    stress = []
    if workload == "proofs":
        import proofs
        import setsolve

        texts = {c.name: c.text for c in setsolve.load_corpus()}
        for n in (2, 3):
            tracer.po_rows.clear()
            Pass([proofs.restated_gears(texts, n)], meter, keep=False)
            stress.append({"n": n, "pos": list(tracer.po_rows)})
        n4 = len(plain[0].unit_outs[-1][1])   # gears_n4 is the last proofs item
        stress.append({"n": 4, "pos": rows[-n4:]})
    tracer.uninstall()
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "po_rows": rows,
        "carrier_stress": stress,
    }, indent=1) + "\n")
    print(f"trace written to {path}", file=sys.stderr)
    return plain + hot, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        oracle = load_package(root)
    except MissingSource as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(root)
    items = build(args.workload, args.seed, oracle)
    meter = SolveMeter()
    meter.install()
    if args.trace:
        passes, metrics = traced(args.workload, items, meter, args.seconds,
                                 root, args.seed)
    else:
        passes = run_passes(items, meter, args.seconds,
                            2 if args.workload == "proofs" else 3)
        metrics = end_to_end(passes, setup_s)
    failures, problems = check(passes[0], passes)
    for f in failures:
        print(f"FAILED {f.item}: {f.reason}", file=sys.stderr)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    per_pass = len(passes[0].outcomes)
    keys = {o.key for o in passes[0].outcomes}
    failed_keys = {f.item for f in failures}
    # A failure of a whole item (a golden diff, a PO count) counts once.
    failed = len(failed_keys & keys) + len(failed_keys - keys)
    if args.trace:
        metrics["verdicts.failed_share"] = (failed / per_pass, "share")
    result = {
        "correct": not problems,
        "attempted": per_pass * len(passes),
        "failed": failed * len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload}: {len(passes)} passes of {per_pass} items, "
          f"failed_share {failed / per_pass:.4f}, median raw pass "
          f"{statistics.median(p.raw_wall for p in passes):.3f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
