"""One benchmark pass of each gated Monte Carlo workload against its record.

`bench/reference/<workload>.json` holds the outcome (symbols, errors) of every
SNR point of one pass at each recorded seed.  The draw order is part of the
results contract, so a change to any pipeline stage that moves a draw or a
decision shows here at the benchmark's own shapes.  The records are read only.
"""

import importlib.util
import json
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
