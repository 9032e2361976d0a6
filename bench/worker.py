"""One benchmark process: set up a workload, time passes over it, check them.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops after the warm-up and reports only when it got
there, so the launcher can time set-up from interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
# workload seeds 0..RECORDED_SEEDS-1 have recorded references; --seed n runs
# workload seed n mod RECORDED_SEEDS, so every seed is checked against a record
RECORDED_SEEDS = 256
CLOSED_FORM_RTOL = 1e-9  # closed-form values may move at rounding level only
# counts that the order of random draws fixes; they must repeat exactly
EXACT_COUNTS = ("channel.samples", "channel.substreams", "harness.batches")


def import_program():
    """Import gdmrelay from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import gdmrelay
    if SRC.resolve() not in Path(gdmrelay.__file__).resolve().parents:
        raise SystemExit(f"gdmrelay imported from {gdmrelay.__file__}, not {SRC}")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=CLOSED_FORM_RTOL)
    return got == want


def median_of(values):
    return statistics.median(values) if values else 0.0


def rate(passes, part, scale):
    """Median over passes of work/second for one part; 0 if the part never ran."""
    return median_of([p.work[part] / p.part_s[part] / scale
                      for p in passes if p.part_s.get(part)])


def run(args) -> dict:
    import numpy
    import scipy

    import tracing
    import workloads

    seed = args.seed % RECORDED_SEEDS
    wl = workloads.build(args.workload, seed)
    wl.warm_up()
    ready = time.monotonic()
    out = {"ready": ready, "workload_seed": seed,
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}
    if args.setup_only:
        return out

    ref = load_reference(args.workload)
    expected = dict(ref["fixed"], **ref["seeds"][str(seed)])
    notes = []

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []  # (wall seconds, PassResult, layer stats)
    attempted = failed = mismatched = 0
    min_passes = 4 if args.trace else 3
    # Passes rotate over the CPUs this process may use (an untraced/traced
    # pair shares one), so a run's time does not hang on which vCPU the
    # scheduler picked: on a shared host their speeds differ and drift apart.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    while len(untraced) + len(traced) < min_passes or time.perf_counter() < deadline:
        n = len(untraced) + len(traced)
        trace_this = tracer is not None and n % 2 == 1
        os.sched_setaffinity(0, {cpus[n // (2 if tracer else 1) % len(cpus)]})
        with tracer.installed() if trace_this else contextlib.nullcontext():
            t0 = time.perf_counter()
            res = wl.run_pass()
            wall = time.perf_counter() - t0
        bad = [op for op, got in res.outcomes.items() if not matches(got, expected.get(op))]
        attempted += len(res.outcomes)
        mismatched += len(bad)
        # a refused point fails even where the refusal is the recorded outcome
        refusals = {op for op, got in res.outcomes.items() if got == workloads.REFUSED}
        failed += len(refusals | set(bad))
        if bad and len(notes) < 10:
            notes.append(f"pass {n}: {len(bad)} operations "
                         f"differ from the reference, first {bad[0]}")
        res.outcomes = None  # not kept: peak RSS should measure the program, not this loop
        (traced if trace_this else untraced).append(
            (wall, res, dict(tracer.stats) if trace_this else None))

    os.sched_setaffinity(0, cpus)
    invariants_ok = True
    # mean pass time over the whole window (work per second, inverted): the
    # machine runs in fast and slow phases of seconds to minutes, and a median
    # of passes flips between them where the mean moves with their mix
    metrics = {"pass_s": sum(w for w, _, _ in untraced) / len(untraced),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        invariants_ok = per_layer(wl, ref, untraced, traced, tracer, metrics, notes)
    refused = sum(v == workloads.REFUSED for v in expected.values())
    if refused:
        notes.append(f"{refused} of {len(expected)} operations per pass are refused points "
                     "(relay error rate >= 1/2), as recorded; they count as failed")
    out.update(attempted=attempted, failed=failed, correct=mismatched == 0 and invariants_ok,
               passes=len(untraced) + len(traced), metrics=metrics, notes=notes)
    return out


def per_layer(wl, ref, untraced, traced, tracer, metrics, notes) -> bool:
    """Fill the traced-run metrics; returns False if an exact count moved."""
    import workloads

    results = [r for _, r, _ in untraced]
    mc = isinstance(wl, workloads.MonteCarlo)
    metrics["msym_per_s"] = median_of(
        [sum(r.work.values()) / w / 1e6 for w, r, _ in untraced]) if mc else 0.0
    for kind in ("nmld", "amld", "pld", "coherent"):
        metrics[f"msym_per_s.{kind}"] = rate(results, kind, 1e6)
    for part in ("conditional", "averaged"):
        metrics[f"kevals_per_s.{part}"] = rate(results, part, 1e3)

    stats = [s for _, _, s in traced]
    for key in stats[0]:
        metrics[key] = median_of([s[key] for s in stats])
    model_ops = wl.model_ops()
    for kind in ("nmld", "amld", "pld"):
        kernel_s = metrics[f"detectors.{kind}.s"]
        metrics[f"detectors.{kind}.model_mops_per_s"] = (
            model_ops.get(kind, 0) / kernel_s / 1e6 if kernel_s else 0.0)
    metrics["harness.frames"] = median_of([r.frames for _, r, _ in traced])
    metrics["trace.overhead_frac"] = (median_of([w for w, _, _ in traced])
                                      / median_of([w for w, _, _ in untraced]) - 1.0)
    if tracer.absent:
        notes.append("absent trace targets (reported as 0): " + ", ".join(tracer.absent))

    ok = True
    for key in EXACT_COUNTS:
        if key in tracer.absent_keys:
            continue
        seen = {s[key] for s in stats}
        if seen != {ref["counts"][key]}:
            notes.append(f"exact count {key} moved: seen {sorted(seen)}, "
                         f"recorded {ref['counts'][key]}")
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
