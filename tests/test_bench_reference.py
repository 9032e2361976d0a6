"""One benchmark pass of each workload against its record.

`bench/reference/<workload>.json` holds the outcome (symbols, errors) of every
SNR point of one pass at each recorded seed, and every closed-form value and
refusal.  The draw order is part of the results contract, so a change to any
pipeline stage that moves a draw or a decision shows here at the benchmark's own
shapes.  The records are read only.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """`bench/<name>.py`, imported once under a name of its own."""
    module = sys.modules.get(f"bench_{name}")
    if module is None:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
        module = sys.modules[f"bench_{name}"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module


def _workloads():
    return _bench_module("workloads")


@pytest.mark.parametrize("seed", [0, 255])
@pytest.mark.parametrize("workload", ["dm-relays", "gdm-long"])
def test_pass_matches_reference(workload, seed):
    with open(BENCH_DIR / "reference" / f"{workload}.json") as fh:
        want = json.load(fh)["seeds"][str(seed)]
    got = _workloads().build(workload, seed).run_pass().outcomes
    assert got == want


def test_traced_pass_sees_every_layer():
    # the benchmark's tracer times each layer through the attributes it swaps, so a
    # kernel or draw the program reaches some other way would read 0 in its metrics
    with open(BENCH_DIR / "reference" / "dm-relays.json") as fh:
        ref = json.load(fh)
    tracer = _bench_module("tracing").Tracer()
    with tracer.installed():
        got = _workloads().build("dm-relays", 0).run_pass().outcomes
    assert got == ref["seeds"]["0"]
    # the coherent reference runs the nmld kernel, so only its own target is absent
    assert tracer.absent == ["gdmrelay.detectors.coherent_detect_batch"]
    for key, count in ref["counts"].items():  # samples, substreams and batches
        assert tracer.stats[key] == count, key
    for kind in ("nmld", "amld", "pld"):
        decided = sum(v[0] for op, v in got.items() if op.startswith(f"{kind}."))
        assert decided == 325_120
        assert tracer.stats[f"detectors.{kind}.symbols"] == decided, kind
    # each of the three relays decides every symbol of the three sweeps
    assert tracer.stats["detectors.relay.symbols"] == 3 * 3 * 325_120


def test_closed_form_pass_matches_reference():
    # the closed forms and their argument checks, at the workload's own call sequence
    with open(BENCH_DIR / "reference" / "closed-form.json") as fh:
        ref = json.load(fh)
    want = dict(ref["fixed"], **ref["seeds"]["0"])
    workloads = _workloads()
    got = workloads.build("closed-form", 0).run_pass().outcomes
    assert got.keys() == want.keys()
    refused = {op for op, v in want.items() if v == workloads.REFUSED}
    assert len(refused) == 150  # analyze's eps >= 1/2 points: M=8 from 0 to 6 dB, every N
    assert {op for op, v in got.items() if v == workloads.REFUSED} == refused
    far = {op: (got[op], v) for op, v in want.items() if op not in refused
           and not (isinstance(got[op], float) and math.isclose(got[op], v, rel_tol=1e-9))}
    assert far == {}
