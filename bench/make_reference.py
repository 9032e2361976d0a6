"""Record the reference outcomes the benchmark checks every pass against.

    python3 bench/make_reference.py --workload dm-relays

Writes ``bench/reference/<workload>.json`` with the outcome of every
operation for each recorded seed (``worker.RECORDED_SEEDS``), the
seed-independent outcomes once, and the exact per-pass counts of a traced
pass.  Refuses to write one in which a Monte Carlo sweep records no errors at
some seed, since error counts are what the check compares.  Run it only when
the workloads change, from the commit whose results are the reference.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker


def seed_dependent(workload, op: str) -> bool:
    return op.split(".")[0] not in workload.fixed_parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    worker.import_program()
    import tracing
    import workloads

    fixed, seeds = {}, {}
    for seed in range(worker.RECORDED_SEEDS):
        wl = workloads.build(args.workload, seed)
        outcomes = wl.run_pass().outcomes
        if workloads.ERROR in outcomes.values():
            raise SystemExit(f"seed {seed}: an operation failed; no reference written")
        if isinstance(wl, workloads.MonteCarlo):
            for cfg in wl.sweeps:
                if not any(outcomes[wl.op_id(cfg, s)][1] for s in cfg.snr_grid_db):
                    raise SystemExit(f"seed {seed}: the {cfg.detector} sweep records no "
                                     "errors; no reference written")
        seeds[str(seed)] = {op: v for op, v in outcomes.items() if seed_dependent(wl, op)}
        fixed = {op: v for op, v in outcomes.items() if not seed_dependent(wl, op)}
        print(f"seed {seed} recorded", file=sys.stderr)

    tracer = tracing.Tracer()
    with tracer.installed():
        wl.run_pass()
    counts = {k: int(tracer.stats[k]) for k in worker.EXACT_COUNTS}

    # one line per seed keeps the file diffable
    lines = ["{", f' "workload": {json.dumps(args.workload)},',
             f' "counts": {json.dumps(counts)},', f' "fixed": {json.dumps(fixed, indent=2)},',
             ' "seeds": {']
    lines += [f'  {json.dumps(s)}: {json.dumps(v)},' for s, v in seeds.items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    path = worker.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
