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


def _workloads():
    """`bench/workloads.py`, imported once under a name of its own."""
    module = sys.modules.get("bench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      BENCH_DIR / "workloads.py")
        module = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module


@pytest.mark.parametrize("seed", [0, 255])
@pytest.mark.parametrize("workload", ["dm-relays", "gdm-long"])
def test_pass_matches_reference(workload, seed):
    with open(BENCH_DIR / "reference" / f"{workload}.json") as fh:
        want = json.load(fh)["seeds"][str(seed)]
    got = _workloads().build(workload, seed).run_pass().outcomes
    assert got == want


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
