"""Benchmark launcher for gdmrelay.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dm-relays --seed 0 --seconds 20 --trace 0

Runs the workload in fresh worker processes with one BLAS/OpenMP thread and
``workers=1``: a few set-up-only workers (set-up time is their median) and
one worker that times passes for ``--seconds``.  It prints a stamp line,
readable metric lines and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  Exits non-zero, printing no result, if the program's sources are
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7      # set-up is timed in this many fresh processes (odd)
TIME_LIMIT_S = 170.0   # the whole run, every worker included
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("dm-relays", "gdm-long", "closed-form")


class WorkerError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args, deadline: float, setup_only: bool) -> tuple:
    """Run one worker to completion; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        # run() kills the worker and waits for it if the time limit passes
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=os.environ | THREAD_ENV,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:g} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["ready"] - t0, result


def declared_metrics(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gdmrelay benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gdmrelay" / "__init__.py").is_file():
        print(f"error: no gdmrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    load_before = os.getloadavg()
    cpus = sorted(os.sched_getaffinity(0))

    def setup_sample(i):
        # a set-up-only worker on one CPU, taking the CPUs in turn; the timed
        # worker rotates its passes over them itself
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        try:
            return spawn(args, deadline, setup_only=True)[0]
        finally:
            os.sched_setaffinity(0, cpus)

    try:
        # set-up samples before and after the timed worker, so their median
        # spans the same stretch of machine time as the passes
        half = SETUP_SAMPLES // 2
        setups = [setup_sample(i) for i in range(half)]
        setup_s, result = spawn(args, deadline, setup_only=False)
        setups.append(setup_s)
        setups += [setup_sample(i) for i in range(half, 2 * half)]
        declared = declared_metrics(args.trace)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    computed = dict(result["metrics"], setup_s=statistics.median(setups))

    stamp = {"workload": args.workload, "seed": args.seed,
             "workload_seed": result["workload_seed"], "seconds": args.seconds,
             "trace": args.trace, "workers": 1, **result["versions"],
             "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
             "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
             "passes": result["passes"], "setup_samples_s": setups, **THREAD_ENV}
    print("stamp " + json.dumps(stamp))
    for note in result["notes"]:
        print("note: " + note)
    metrics = {}
    for m in declared:
        if m["name"] not in computed:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:34s} {computed[m['name']]:.6g} {m['unit']}")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
