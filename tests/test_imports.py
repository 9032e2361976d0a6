"""A serial Monte Carlo run imports neither scipy.special nor a pool module.

The checks run in a fresh interpreter, because this test process may have
loaded these modules already.  One script runs every stage and reports, after
each, which of them are loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gdmrelay import analysis, harness

SRC = Path(__file__).resolve().parents[1] / "src"
CFG = dict(n_relays=1, m=4, k_frame=15, l_block=1, detector="nmld",
           snr_grid_db=(6.0, 10.0), min_errors=20, max_frames=600, master_seed=5)

SCRIPT = f"""
import contextlib, io, json, sys

LAZY = ("scipy.special", "concurrent.futures.thread", "concurrent.futures.process")
loaded = {{}}

def note(stage):
    loaded[stage] = [m for m in LAZY if m in sys.modules]

import gdmrelay
from gdmrelay import analysis, cli, harness
note("import")
cfg = harness.ExperimentConfig(**{CFG!r})
serial = harness.run_ser_experiment(cfg)
note("run_ser_experiment")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["simulate", "--K", "15", "--snr", "10", "--frames-max", "40"])
note("simulate")
closed = [analysis.bessel_k(1, 2.0), analysis.q_function(1.0)]
note("closed forms")
pooled = harness.run_ser_experiment(harness.ExperimentConfig(**{CFG!r}, workers=2))
note("workers=2")
print(json.dumps(dict(loaded=loaded, rc=rc, closed=closed,
                      serial=[list(p.__dict__.values()) for p in serial.points],
                      pooled=[list(p.__dict__.values()) for p in pooled.points])))
"""


@pytest.fixture(scope="module")
def fresh():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_monte_carlo_run_loads_neither(fresh):
    assert fresh["rc"] == 0
    for stage in ("import", "run_ser_experiment", "simulate"):
        assert fresh["loaded"][stage] == [], stage


def test_closed_forms_load_scipy_special_on_first_call(fresh):
    assert fresh["loaded"]["closed forms"] == ["scipy.special"]
    # the values of a process that loaded scipy.special up front
    assert fresh["closed"] == [analysis.bessel_k(1, 2.0), analysis.q_function(1.0)]
    assert fresh["closed"] == pytest.approx([0.13986588181652243, 0.15865525393145707],
                                            rel=1e-14)


def test_thread_pool_matches_serial(fresh):
    assert "concurrent.futures.thread" in fresh["loaded"]["workers=2"]
    assert "concurrent.futures.process" not in fresh["loaded"]["workers=2"]
    assert fresh["pooled"] == fresh["serial"]
    here = harness.run_ser_experiment(harness.ExperimentConfig(**CFG))
    assert fresh["serial"] == [list(p.__dict__.values()) for p in here.points]
